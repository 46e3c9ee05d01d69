"""The README's Python API example runs as written and prints sane numbers."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_example_runs(capsys):
    with open(README, encoding="utf-8") as f:
        blocks = re.findall(r"```python\n(.*?)```", f.read(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.split("\n")
    theta, m_abs_D = map(float, lines[0].split())
    K_I = float(lines[1])
    # SPR-CX on the level-2 L-shape: a near-unit effectivity and the unit
    # amplitude of the loading eigenfield, extracted
    assert 0.9 < theta < 1.1 and 0.0 < m_abs_D < 0.5
    assert abs(K_I - 1.0) < 0.05

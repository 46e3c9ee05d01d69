"""Record the reference outputs the benchmark checks every pass against.

    python3 perfbench/record_reference.py [workload ...]

Runs one untraced seed-0 pass of each workload and writes its outputs under
perfbench/reference/.  Only rerun it when the package's numbers are meant to
change; the benchmark's output check compares against these files.
"""

from __future__ import annotations

import json
import sys

from run import import_package


def main(names):
    import_package()
    import workloads
    from tracing import NULL_TRACER

    for name in names or workloads.WORKLOADS:
        workload = workloads.setup(name, 0)
        outputs = workload.run_pass(NULL_TRACER)
        if isinstance(workload, workloads.LadderWorkload):
            directory = workloads.REFERENCE_DIR / name
            directory.mkdir(parents=True, exist_ok=True)
            for label, texts in outputs.items():
                for ext, text in texts.items():
                    (directory / f"{label}.{ext}").write_text(text, encoding="ascii")
        else:
            workloads.REFERENCE_DIR.mkdir(exist_ok=True)
            path = workloads.REFERENCE_DIR / f"{name}.json"
            with open(path, "w", encoding="ascii") as f:
                json.dump(outputs, f, indent=2, sort_keys=True)
                f.write("\n")
        print(f"recorded {name}")


if __name__ == "__main__":
    main(sys.argv[1:])

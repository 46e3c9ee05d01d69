"""The package carries no public helper that only tests call.

Every module-level function and class in src/smoothfem is read (as a name or
an attribute) by some package code outside its own definition, or is part of
the package's exported API, ``smoothfem.__all__``.
"""

import ast
import collections
import pathlib

import smoothfem

SRC = pathlib.Path(smoothfem.__file__).parent


def _reads(node):
    """The names that node reads: loaded names and loaded attributes."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr


def test_every_module_level_definition_has_a_reader_in_src():
    tops = [
        (path.name, top)
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [set(_reads(top)) for _, top in tops]
    # the number of top-level nodes that read each name
    readers = collections.Counter(name for names in reads for name in names)
    unread = [
        f"{module}:{top.name}"
        for (module, top), names in zip(tops, reads)
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and top.name not in smoothfem.__all__
        and readers[top.name] == (top.name in names)  # no reader but itself
    ]
    assert unread == []

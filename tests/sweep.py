"""Deep sweep of the documented inputs, written to a committed ledger.

    PYTHONPATH=src python tests/sweep.py              # level 3 -> SWEEP.json
    PYTHONPATH=src python tests/sweep.py --level 4    # -> SWEEP_L4.json

Only the level-3 ledger is committed; another level writes its own file,
so an opt-in deeper run never replaces it.  The grid is
tests/test_conformance.py's `documented_configs`, taken deeper: the
cylinder, and the L-shape at gradings 1, 2 and 20 in both GSIF modes, at
one level; FEM and SFEM with 1, 2, 4 or 8 smoothing cells; all four
recovery variants; fitting degrees 1 and 2.  That is 280 configs.

Per config the ledger records the status: "ok" with the error report's
metrics (and the intensity factors the recovery used), or "error" with the
exception's class, message and the module.function that raised it.  It
also records theta and the number of patches that fell back from degree 2
to degree 1, counted from recovery's log warnings.  A RuntimeWarning (a
NaN or overflow in numpy) is raised as an error, as in the test suite.  No
timings are recorded, so two runs write identical files; diff the ledger
against the committed one to see what a change moved.  The name keeps
pytest from collecting this file.
"""

from __future__ import annotations

import argparse
import collections
import json
import logging
import math
import pathlib
import sys
import traceback
import warnings

from test_conformance import documented_configs

from smoothfem.harness import StudyConfig, _problem, make_benchmark, run_case

ROOT = pathlib.Path(__file__).resolve().parent.parent
GRADINGS = (1.0, 2.0, 20.0)
METRICS = ("dof", "estimated", "exact", "recovered", "m_abs_D", "sigma_D", "excluded")


class FallbackCounter(logging.Handler):
    """Counts the degree-1 fallback warnings recovery logs per patch.

    It mirrors perfbench/tracing.py's `_FallbackCounter`, which adds the
    same count to a trace instead of keeping it.
    """

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "falling back" in record.getMessage():
            self.count += 1


def run(config: StudyConfig, counter: FallbackCounter) -> dict:
    # the GSIF mode is read only where there is a singular field, as in
    # harness.resolve_variant
    singular = make_benchmark(config).singular_field is not None
    entry = {
        "benchmark": config.benchmark,
        "level": config.levels[0],
        "formulation": config.formulation,
        "nc": config.nc if config.formulation == "sfem" else None,
        "variant": config.variant,
        "degree": config.interior_degree,
        "grading": dict(_problem(config)[1]).get("grading"),
        "gsif_mode": config.gsif_mode if singular else None,
    }
    counter.count = 0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            case = run_case(config, config.levels[0])
    except Exception as exc:  # the ledger records every failure by its class
        frame = traceback.extract_tb(exc.__traceback__)[-1]  # no line number: stable over edits
        entry.update(status="error", error=type(exc).__name__, message=str(exc),
                     raised_in=f"{pathlib.Path(frame.filename).stem}.{frame.name}",
                     theta=None, fallbacks=counter.count)
        return entry
    metrics = {name: getattr(case.report, name) for name in METRICS}
    metrics.update(variant_run=case.variant, K_I=case.K_I, K_II=case.K_II)
    entry.update(status="ok", metrics=metrics, theta=case.report.theta, fallbacks=counter.count)
    return entry


def summary(entries: list) -> dict:
    ok = [e for e in entries if e["status"] == "ok"]
    thetas = [e["theta"] for e in ok]
    errors = collections.Counter(e["error"] for e in entries if e["status"] == "error")
    return {
        "configs": len(entries),
        "ok": len(ok),
        "non_finite": sum(
            not all(math.isfinite(v) for v in [e["theta"], *(e["metrics"][m] for m in METRICS)])
            for e in ok
        ),
        "theta_range": [min(thetas), max(thetas)] if thetas else None,
        "errors": dict(sorted(errors.items())),
        "with_fallbacks": sum(e["fallbacks"] > 0 for e in entries),
        "most_fallbacks": max((e["fallbacks"] for e in entries), default=0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--level", type=int, default=3, help="mesh level of both benchmarks")
    args = parser.parse_args(argv)
    out = ROOT / ("SWEEP.json" if args.level == 3 else f"SWEEP_L{args.level}.json")

    counter = FallbackCounter()
    recovery_log = logging.getLogger("smoothfem.recovery")
    recovery_log.addHandler(counter)
    try:
        grid = documented_configs((args.level, args.level), GRADINGS)
        entries = [run(config, counter) for config in grid]
    finally:
        recovery_log.removeHandler(counter)
    head = summary(entries)
    # one config per line, so a diff of two ledgers reads config by config
    rows = ",\n  ".join(json.dumps(e) for e in entries)
    out.write_text(
        f'{{"level": {args.level},\n "summary": {json.dumps(head)},\n "configs": [\n  {rows}\n ]}}\n',
        encoding="ascii",
    )
    print(json.dumps(head))
    return 0


if __name__ == "__main__":
    sys.exit(main())

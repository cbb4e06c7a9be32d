"""One fresh benchmark process: set up, solve one workload's cells, report.

    python3 benchmarks/worker.py --workload W --seed S --trace 0|1 [--spans P]

``run.py`` starts this once per repetition so that every measurement pays
the cold costs the CLI and the tests pay. Set-up is ``import twogrid`` plus
``make_problem`` for every cell; the case time is the wall time of the
``run_case`` calls. Everything else (correctness checks, residual
recomputation, node counts) runs outside the timed regions. The last line
of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINS = HERE / "pins.json"

# One thread in every numeric library, and one string-hash seed, so that
# dict layouts (and with them timings) do not change between processes.
WORKER_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
WORKER_ENV["PYTHONHASHSEED"] = "0"

RESIDUAL_TOL = 1e-12   # the contract of twogrid.linsolve.solve
PIN_ERR_RTOL = 1e-3    # seed 0: errors reproduce the pins to 3 digits
# Other seeds move each parameter by at most 0.5 %, which moves the errors by
# a few percent; an error more than twice the seed-0 pin is a defect.
ACCURACY_SLACK = 2.0


def import_twogrid():
    """Import twogrid from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import twogrid
    if Path(twogrid.__file__).resolve().parent != SRC / "twogrid":
        raise ImportError(f"twogrid imported from {twogrid.__file__}, "
                          f"not from {SRC}")
    return twogrid


def measure(res) -> dict:
    """Size, accuracy and solver facts of one ``run_case(detail=True)``."""
    import numpy as np
    from twogrid.grid import TAG_NAMES

    A = res.system.matrix.tocsc()
    b = res.system.rhs
    u = res.solution
    longdouble = u.dtype == np.longdouble
    if longdouble:
        r = A.astype(np.longdouble) @ u - b.astype(np.longdouble)
        res_norm = float(np.linalg.norm(np.asarray(r, dtype=np.float64)))
    else:
        res_norm = float(np.linalg.norm(A @ u - b))
    bnorm = float(np.linalg.norm(b))
    counts = np.bincount(np.asarray(res.grid.tags), minlength=len(TAG_NAMES))
    return {
        "n": int(A.shape[0]), "nnz": int(res.system.matrix.nnz),
        "err_coarse": res.report.err_coarse, "err_fine": res.report.err_fine,
        "sign_ok": bool(res.report.m_matrix["sign_ok"]),
        "longdouble": bool(longdouble),
        "residual_rel": res_norm / (bnorm if bnorm > 0.0 else 1.0),
        "nodes": {name: int(counts[tag]) for tag, name in TAG_NAMES.items()},
    }


def check(rec: dict, pin: dict, seed: int) -> list:
    """Reasons a solved cell is wrong; empty when it is right."""
    bad = []
    errs = (rec["err_coarse"], rec["err_fine"])
    if not all(math.isfinite(e) for e in errs):
        bad.append("non-finite error")
    if not rec["residual_rel"] <= RESIDUAL_TOL:
        bad.append(f"residual {rec['residual_rel']:.3e} > {RESIDUAL_TOL:g}")
    if rec["sign_ok"] != pin["sign_ok"]:
        bad.append(f"sign_ok {rec['sign_ok']} != pinned {pin['sign_ok']}")
    for key in ("err_coarse", "err_fine"):
        if seed == 0:
            if not abs(rec[key] - pin[key]) <= PIN_ERR_RTOL * pin[key]:
                bad.append(f"{key} {rec[key]!r} != pinned {pin[key]!r}")
        elif not rec[key] <= ACCURACY_SLACK * pin[key]:
            bad.append(f"{key} {rec[key]!r} > {ACCURACY_SLACK:g} x "
                       f"pinned {pin[key]!r}")
    if seed == 0:
        for key in ("n", "nnz"):
            if rec[key] != pin[key]:
                bad.append(f"{key} {rec[key]} != pinned {pin[key]}")
    return bad


def solve_cells(inputs, make_problem, run_case, tracer=None):
    """Set up and solve every cell; returns ``(setup_s, case_s, records)``.

    ``setup_s`` covers ``make_problem`` only; the caller adds the import.
    """
    t0 = time.perf_counter()
    problems = [make_problem(c["problem"], c["params"] or None)
                for c in inputs]
    setup_s = time.perf_counter() - t0
    case_s = 0.0
    records = []
    for cell, problem in zip(inputs, problems):
        rec = {"label": cell["label"], "params": cell["params"]}
        t0 = time.perf_counter()
        try:
            res = run_case(problem, detail=True, **cell["kwargs"])
        except Exception:   # a failing case is counted, not fatal
            case_s += time.perf_counter() - t0
            rec["raised"] = traceback.format_exc(limit=3)
        else:
            case_s += time.perf_counter() - t0
            rec.update(measure(res))
            del res
            if tracer is not None:
                rec["lu_fill"] = tracer.take_fill()
        records.append(rec)
    return setup_s, case_s, records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    twogrid = import_twogrid()
    import_s = time.perf_counter() - t0

    import numpy
    import scipy
    import sympy
    from twogrid.harness import run_case
    from twogrid.problems import make_problem
    from workloads import workload_inputs
    inputs = workload_inputs(args.workload, args.seed)
    pins = json.loads(PINS.read_text())[args.workload]

    tracer = None
    if args.trace:
        from tracing import ROOT, SETUP, Tracer
        tracer = Tracer()
        make_problem = tracer.wrap(SETUP, make_problem)
        run_case = tracer.wrap(ROOT, run_case)
        with tracer:
            setup_s, case_s, records = solve_cells(
                inputs, make_problem, run_case, tracer)
    else:
        setup_s, case_s, records = solve_cells(inputs, make_problem, run_case)

    for rec in records:
        rec["failures"] = ([rec["raised"].splitlines()[-1]] if "raised" in rec
                           else check(rec, pins[rec["label"]], args.seed))
    out = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": import_s + setup_s, "case_s": case_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "versions": {"twogrid": twogrid.__version__,
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "sympy": sympy.__version__},
        "cells": records,
    }
    if tracer is not None:
        out["layers"] = tracer.layers()
        if args.spans:
            tracer.dump(args.spans, {k: out[k] for k in (
                "workload", "seed", "versions")})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

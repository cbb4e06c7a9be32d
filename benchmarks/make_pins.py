"""Regenerate ``pins.json``: every cell's seed-0 size, errors and M-matrix
sign verdict, as the current source tree produces them.

    python3 benchmarks/make_pins.py

The pins are the correctness reference of the benchmark, so rewrite them
only for a change that is meant to alter them, and say why in its log.
"""
from __future__ import annotations

import json
import os

import worker
from workloads import WORKLOADS, workload_inputs

PINNED = ("n", "nnz", "err_coarse", "err_fine", "sign_ok")


def main() -> None:
    os.environ.update(worker.WORKER_ENV)
    worker.import_twogrid()
    from twogrid.harness import run_case
    from twogrid.problems import make_problem

    pins = {}
    for name in WORKLOADS:
        _, _, records = worker.solve_cells(workload_inputs(name, 0),
                                           make_problem, run_case)
        pins[name] = {rec["label"]: {k: rec[k] for k in PINNED}
                      for rec in records}
    worker.PINS.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()

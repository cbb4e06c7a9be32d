"""twogrid benchmark: time to solution, set-up, memory and accuracy.

    python3 benchmarks/run.py --workload W --seed S --seconds T --trace 0|1

Runs the workload's cells (``workloads.py``) in fresh single-threaded
worker processes, one at a time, until ``--seconds`` have passed (at least
one worker), and checks every solved cell against ``pins.json``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and each cell.

``--trace 0`` reports the end-to-end metrics: medians over the workers of
the ``run_case`` wall time, the set-up time and the peak RSS, and the
geometric means over the cells of the max-norm errors. ``--trace 1``
alternates untraced and traced workers and reports the per-layer metrics
of the traced worker with the median case time (``tracing.py``); its spans
go to ``benchmarks/out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import SELF_TIME
from worker import HERE, SRC, WORKER_ENV
from workloads import WORKLOADS

OUT = HERE / "out"
DEADLINE_S = 170.0      # the whole run ends within 180 s
SUM_RTOL = 1e-9         # self times must add up to the traced case time


class BenchmarkError(RuntimeError):
    pass


def environment(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "seed": seed,
            "worker_env": WORKER_ENV}


def run_worker(workload: str, seed: int, trace: int, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans-{workload}-{seed}.json.gz")]
    try:
        proc = subprocess.run(cmd, env=dict(os.environ, **WORKER_ENV),
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n"
                             f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def errors_of(worker: dict) -> list:
    return [(c["label"], c.get("err_coarse"), c.get("err_fine"))
            for c in worker["cells"]]


def solved(worker: dict) -> list:
    return [c for c in worker["cells"] if "raised" not in c]


def end_to_end(runs: list) -> dict:
    cells = solved(runs[0])
    values = {
        ("case_s", "s"): statistics.median(w["case_s"] for w in runs),
        ("setup_s", "s"): statistics.median(w["setup_s"] for w in runs),
        ("peak_rss_mb", "MB"): statistics.median(
            w["peak_rss_mb"] for w in runs),
        ("err_coarse", "1"): geomean(c["err_coarse"] for c in cells),
        ("err_fine", "1"): geomean(c["err_fine"] for c in cells),
    }
    return {name: {"value": v, "unit": unit}
            for (name, unit), v in values.items()}


PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_per_fitted": "1",
                   "_rel": "1"}


def per_layer(traced: dict, untraced_case_s: float) -> dict:
    layers = dict(traced["layers"])
    cells = solved(traced)
    layers["grid.n"] = sum(c["n"] for c in cells)
    for name in cells[0]["nodes"]:
        layers[f"grid.nodes.{name}"] = sum(c["nodes"][name] for c in cells)
    layers["assembly.nnz"] = sum(c["nnz"] for c in cells)
    layers["linsolve.lu_fill"] = sum(c["lu_fill"] for c in cells)
    layers["linsolve.longdouble"] = sum(c["longdouble"] for c in cells)
    layers["linsolve.residual_rel"] = max(c["residual_rel"] for c in cells)
    fitted = layers["iim.fitted_calls"]
    layers["iim.lp_per_fitted"] = layers["iim.lp_calls"] / fitted if fitted \
        else 0.0
    layers["trace.overhead_s"] = layers["trace.case_s"] - untraced_case_s
    out = {}
    for name, value in sorted(layers.items()):
        unit = next((u for suffix, u in PER_LAYER_UNITS.items()
                     if name.endswith(suffix)), "count")
        out[name] = {"value": value, "unit": unit}
    return out


def self_time_gap(layers: dict) -> float:
    """Traced case time minus the sum of the per-layer self times."""
    metrics = {metric for metric, _ in SELF_TIME.values()}
    return layers["trace.case_s"] - sum(layers[m] for m in metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "twogrid" / "__init__.py").is_file():
        print(f"no twogrid sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    untraced, traced = [], []
    while True:
        for trace, runs in ((0, untraced), (1, traced))[:1 + args.trace]:
            left = DEADLINE_S - (time.perf_counter() - start)
            runs.append(run_worker(args.workload, args.seed, trace, left))
        spent = time.perf_counter() - start
        per_round = spent / len(untraced)
        if spent >= args.seconds or spent + per_round > DEADLINE_S:
            break

    everything = untraced + traced
    failures = [(w["trace"], c["label"], reason) for w in everything
                for c in w["cells"] for reason in c["failures"]]
    failed = sum(1 for w in everything for c in w["cells"] if c["failures"])
    attempted = sum(len(w["cells"]) for w in everything)
    # the same inputs must give bit-identical errors in every worker,
    # traced or not
    reference = errors_of(untraced[0])
    failures += [("any", "determinism", "errors differ between workers")
                 for w in everything[1:] if errors_of(w) != reference]

    if args.trace:
        traced.sort(key=lambda w: w["layers"]["trace.case_s"])
        chosen = traced[(len(traced) - 1) // 2]
        gap = self_time_gap(chosen["layers"])
        if abs(gap) > SUM_RTOL * chosen["layers"]["trace.case_s"]:
            failures.append((1, "trace", f"self times miss case time by "
                                         f"{gap:.3e} s"))
        metrics = per_layer(chosen, statistics.median(
            w["case_s"] for w in untraced))
    else:
        metrics = end_to_end(untraced)

    print(json.dumps({"environment": dict(environment(args.seed),
                                          **untraced[0]["versions"]),
                      "workload": args.workload, "workers": len(everything),
                      "fail_ratio": failed / attempted,
                      "case_s": [w["case_s"] for w in untraced],
                      "setup_s": [w["setup_s"] for w in untraced]}))
    for c in untraced[0]["cells"]:
        print(json.dumps({k: v for k, v in c.items() if k != "raised"}))
    for failure in failures:
        print("FAIL", *failure, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)

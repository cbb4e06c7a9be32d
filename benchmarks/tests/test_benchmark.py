"""Tests of the benchmark itself: output schema, tracing transparency and
seed determinism."""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Cell, workload_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "small_cells",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0])["environment"]
    assert {"nproc", "cpu", "python", "numpy", "scipy", "sympy",
            "seed"} <= set(env)
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_emitted_json_matches_benchmark_spec(trace, section):
    out = _run(trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= len(
        WORKLOADS["small_cells"])
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    for value in (v["value"] for v in out["metrics"].values()):
        assert isinstance(value, (int, float)) and math.isfinite(value)
    if trace == 0:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_spec_names_workloads_that_exist():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


TINY = [
    Cell("piecewise_kappa_1d", 10, 2, 2.0),
    Cell("peskin_circle", 20, 2, 2.0, {"radius": 0.5}),
    Cell("flower", 40, 2, 2.0, {"kappa_minus": 50.0, "kappa_plus": 1.0}),
]


def _solve_tiny(tracer=None):
    worker.import_twogrid()
    from twogrid.harness import run_case
    from twogrid.problems import make_problem
    inputs = [{"label": c.label, "problem": c.problem, "params": c.params,
               "kwargs": c.run_kwargs()} for c in TINY]
    if tracer is None:
        return worker.solve_cells(inputs, make_problem, run_case)[2]
    with tracer:
        return worker.solve_cells(inputs, make_problem,
                                  tracer.wrap(tracing.ROOT, run_case),
                                  tracer)[2]


def test_tracing_leaves_errors_bit_identical_and_adds_up():
    from twogrid import harness, linsolve
    before = (harness.solve, linsolve.spla.splu)
    plain = _solve_tiny()
    tracer = tracing.Tracer()
    traced = _solve_tiny(tracer)
    assert (harness.solve, linsolve.spla.splu) == before
    for a, b in zip(plain, traced):
        assert "raised" not in a and "raised" not in b
        assert (a["err_coarse"], a["err_fine"]) == (b["err_coarse"],
                                                    b["err_fine"])
    layers = tracer.layers()
    self_times = {metric for metric, _ in tracing.SELF_TIME.values()}
    assert math.isclose(sum(layers[m] for m in self_times),
                        layers["trace.case_s"], rel_tol=1e-9)
    assert layers["iim.fitted_calls"] > 0
    assert layers["iim.lp_calls"] >= layers["iim.fitted_calls"]
    assert layers["iim.singular_calls"] > 0
    assert layers["iim.pair_1d_calls"] == 1
    assert layers["linsolve.lu_solves"] >= len(TINY)
    assert all(rec["lu_fill"] > 0 for rec in traced)


def test_seed_fixes_the_generated_parameters():
    for name, cells in WORKLOADS.items():
        assert workload_inputs(name, 7) == workload_inputs(name, 7)
        published = [c.params for c in cells]
        assert [i["params"] for i in workload_inputs(name, 0)] == published
        if any(published):
            assert workload_inputs(name, 7) != workload_inputs(name, 8)
            assert workload_inputs(name, 7) != workload_inputs(name, 0)

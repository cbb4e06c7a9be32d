"""Benchmark workloads: the cells each one solves and their seed-derived inputs.

Seed 0 is the published configuration of every cell. Any other seed scales
the parameters a problem exposes by a small seed-derived factor (the peskin
circle radius, the flower kappa pair, the internal layer width ``eps``);
everything else about a cell (``N``, ``r``, ``lam``, the mesh mode) is fixed,
so the work a cell does barely moves with the seed. Standard library only:
the benchmark's parent process imports this without numpy.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

# Largest relative change a seed makes to each perturbed parameter. The
# radius moves the interface against the lattice, and the max-norm error
# responds irregularly to that (about 10 % over a shift of h_f / 8 at
# N=320, r=8), so the radius moves by at most h_f / 40 there. Errors scale
# smoothly with kappa and eps, which move by at most 0.5 %.
RELATIVE_STEP = {"radius": 2e-5, "kappa_minus": 0.005, "kappa_plus": 0.005,
                 "eps": 0.005}


@dataclass(frozen=True)
class Cell:
    problem: str
    N: int
    r: int
    lam: float
    params: Dict[str, float] = field(default_factory=dict)
    hf_mode: str = "ratio"

    @property
    def label(self) -> str:
        mode = "" if self.hf_mode == "ratio" else f" {self.hf_mode}"
        return f"{self.problem} N={self.N} r={self.r} lam={self.lam:g}{mode}"

    def run_kwargs(self) -> dict:
        return {"N": self.N, "r": self.r, "lam": self.lam,
                "hf_mode": self.hf_mode}


FLOWER_JUMP = Cell("flower", 80, 8, 2.0, {"kappa_minus": 50.0,
                                          "kappa_plus": 1.0})
PESKIN_LARGE = Cell("peskin_circle", 320, 8, 2.0, {"radius": 0.5})
LAYER_SOLVE = Cell("internal_layer", 160, 8, 4.0, {"eps": 0.01})

# the six systems of acceptance criterion 7: every problem at small N
SMALL_CELLS = (
    Cell("piecewise_kappa_1d", 10, 8, 2.0),
    Cell("boundary_layer_1d", 10, 2, 2.0),
    Cell("line_interface_2d", 12, 2, 2.0, hf_mode="h2"),
    Cell("peskin_circle", 40, 4, 2.0, {"radius": 0.5}),
    Cell("flower", 40, 2, 2.0, {"kappa_minus": 1.0, "kappa_plus": 10.0}),
    Cell("internal_layer", 40, 2, 4.0, {"eps": 0.01}),
)

WORKLOADS: Dict[str, tuple] = {
    "flower_jump": (FLOWER_JUMP,),
    "peskin_large": (PESKIN_LARGE,),
    "layer_solve": (LAYER_SOLVE,),
    "small_cells": SMALL_CELLS,
}


def workload_inputs(workload: str, seed: int) -> List[dict]:
    """Per cell: its label, problem name, parameters and ``run_case`` kwargs.

    One generator per workload and seed, drawn in cell order, so a seed
    fixes every input of the workload.
    """
    rng = random.Random(f"{workload}:{seed}")
    inputs = []
    for cell in WORKLOADS[workload]:
        params = dict(cell.params)
        if seed != 0:
            params = {name: value * (1.0 + RELATIVE_STEP[name]
                                     * rng.uniform(-1.0, 1.0))
                      for name, value in sorted(params.items())}
        inputs.append({"label": cell.label, "problem": cell.problem,
                       "params": params, "kwargs": cell.run_kwargs()})
    return inputs

"""Outside-in tracing of twogrid: spans around the calls into each module.

:class:`Tracer` replaces the module attributes that twogrid's callers look
up with wrappers that record a span (name, start, end, parent id) and
return the wrapped call's result unchanged. Nothing under ``src/`` is
edited. The spans stay in memory until the run ends; :meth:`Tracer.layers`
turns them into per-layer self times and call counts, and
:meth:`Tracer.dump` writes them out.

A span's self time is its duration minus the durations of its direct
children. Every span opened inside a ``harness.run_case`` root maps to one
``*_s`` self-time metric of :data:`SELF_TIME`, so those metrics add up to
the traced case time exactly.
"""
from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter

# span name -> (self-time metric, call-count metric or None)
SELF_TIME = {
    "harness.run_case": ("harness.self_s", None),
    "harness.build_grid": ("grid.build_s", None),
    "Grid2DTube.id_of": ("grid.id_of_s", "grid.id_of_calls"),
    "harness.assemble": ("assembly.self_s", None),
    "assembly.iim_discontinuous_stencil_2d": ("iim.fitted_s",
                                              "iim.fitted_calls"),
    "scipy.optimize.linprog": ("iim.lp_s", "iim.lp_calls"),
    "assembly.singular_source_stencil_2d": ("iim.singular_s",
                                            "iim.singular_calls"),
    "assembly.iim_1d_irregular": ("iim.pair_1d_s", "iim.pair_1d_calls"),
    "iim.project_to_interface": ("geometry.project_s",
                                 "geometry.project_calls"),
    "iim.segment_crossing": ("geometry.crossing_s", "geometry.crossing_calls"),
    "stencils.hanging_coeffs": ("stencils.hanging_s", "stencils.hanging_calls"),
    "stencils.derive_hanging_coeffs": ("stencils.hanging_s",
                                       "stencils.derive_calls"),
    "harness.verify_m_matrix": ("linsolve.audit_s", None),
    "harness.solve": ("linsolve.solve_s", None),
    "spla.splu": ("linsolve.lu_s", None),
    "SuperLU.solve": ("linsolve.trisolve_s", "linsolve.lu_solves"),
    "harness.exact_error": ("problems.error_s", None),
}
ROOT = "harness.run_case"
SETUP = "problems.make_problem"


class _CountingLU:
    """SuperLU stand-in whose ``solve`` is a traced call; every other
    attribute is the factorization's own."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Span recorder plus the patch set that feeds it.

    Use as a context manager: entering installs the wrappers, leaving puts
    the original attributes back.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = []
        self._saved = []
        self.factorizations = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        open_ids = self._open
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            span_id = len(span_name)
            span_name.append(name_id)
            span_parent.append(open_ids[-1] if open_ids else -1)
            span_end.append(0.0)
            open_ids.append(span_id)
            span_start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[span_id] = perf_counter()
                open_ids.pop()

        return traced

    def _splu(self, splu):
        traced_splu = self.wrap("spla.splu", splu)

        def factor(*args, **kwargs):
            lu = traced_splu(*args, **kwargs)
            self.factorizations.append(lu)
            return _CountingLU(lu, self.wrap("SuperLU.solve", lu.solve))

        return factor

    # -- patching ----------------------------------------------------------

    def _targets(self):
        import scipy.optimize
        from twogrid import assembly, harness, iim, linsolve, stencils
        from twogrid.grid import Grid2DTube

        targets = [(harness, "harness", a) for a in (
            "build_grid", "assemble", "verify_m_matrix", "solve",
            "exact_error")]
        targets += [(assembly, "assembly", a) for a in (
            "singular_source_stencil_2d", "iim_discontinuous_stencil_2d",
            "iim_1d_irregular")]
        targets += [(stencils, "stencils", a) for a in (
            "hanging_coeffs", "derive_hanging_coeffs")]
        targets += [(iim, "iim", a) for a in (
            "project_to_interface", "segment_crossing")]
        targets += [(Grid2DTube, "Grid2DTube", "id_of"),
                    (scipy.optimize, "scipy.optimize", "linprog"),
                    (linsolve.spla, "spla", "splu")]
        return targets

    def __enter__(self):
        for owner, prefix, attr in self._targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            if prefix == "spla":
                setattr(owner, attr, self._splu(fn))
            else:
                setattr(owner, attr, self.wrap(f"{prefix}.{attr}", fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    # -- results -------------------------------------------------------------

    def take_fill(self) -> int:
        """``L.nnz + U.nnz`` of the factorizations made since the last call,
        releasing them. The factors are materialized one at a time, after
        the traced call has returned."""
        fill = 0
        while self.factorizations:
            lu = self.factorizations.pop()
            fill += lu.L.nnz
            fill += lu.U.nnz
        return fill

    def layers(self) -> dict:
        """Per-layer self times and call counts, plus the traced case time."""
        n = len(self.span_name)
        dur = [self.span_end[k] - self.span_start[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            parent = self.span_parent[k]
            if parent >= 0:
                child[parent] += dur[k]
        out = {metric: 0.0 for metric, _ in SELF_TIME.values()}
        out.update({count: 0 for _, count in SELF_TIME.values() if count})
        out.update({"assembly.assemble_s": 0.0, "problems.make_s": 0.0,
                    "trace.case_s": 0.0, "trace.spans": n})
        for k in range(n):
            name = self.names[self.span_name[k]]
            if name == SETUP:
                out["problems.make_s"] += dur[k]
                continue
            metric, count = SELF_TIME[name]
            out[metric] += dur[k] - child[k]
            if count:
                out[count] += 1
            if name == ROOT:
                out["trace.case_s"] += dur[k]
            elif name == "harness.assemble":
                out["assembly.assemble_s"] += dur[k]
        return out

    def dump(self, path: str, header: dict) -> None:
        """Write every span, with ``header``, as gzipped JSON."""
        doc = dict(header, names=self.names,
                   spans={"name": self.span_name.tolist(),
                          "parent": self.span_parent.tolist(),
                          "start": self.span_start.tolist(),
                          "end": self.span_end.tolist()})
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))

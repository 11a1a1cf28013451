"""Span recorder for the traced run, and the per-layer reduction of its spans.

``Tracer.install`` replaces public sunlie functions with recording wrappers
in every sunlie module that binds them, so that callers inside the package
(``sunlie.cli`` calling ``build_f_table``, ``integrate_bloch`` calling
``precession_matrix``) go through the wrapper too.  ``ConstantTable`` methods
are wrapped on the class.  Nothing under ``src/`` is edited.

A span is a dict:

    id, parent      integers; parent is None for the root span of a pass
    pass            the pass id the span belongs to
    name            "<layer>.<function>", e.g. "dynamics.integrate_bloch"
    start, end      time.perf_counter() seconds
    peak_bytes      tracemalloc peak above the memory in use at start
    attrs           counts taken from the call's arguments or result

Spans stay in memory and ``Tracer.finished_spans`` returns them; the worker
writes them out when its pass ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
import tracemalloc
from typing import Callable

MB = 1024.0 * 1024.0


def _spec_steps(spec) -> int:
    """Fixed RK4 steps an IntegrationSpec asks for (full steps plus a tail step)."""
    n_full = int(math.floor(spec.t_final / spec.dt + 1e-9))
    tail = spec.t_final - n_full * spec.dt > 1e-12 * max(spec.t_final, spec.dt)
    return n_full + int(tail) if spec.method == "rk4" else 0


def _nbytes(obj) -> int:
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    # scipy.sparse compressed matrices
    return sum(int(getattr(obj, part).nbytes) for part in ("data", "indices", "indptr"))


def _oracle_evals(cfg, kind) -> int:
    # The oracle evaluates one trace per canonical triple: strictly ascending
    # for f, weakly ascending for d.
    d = cfg.n_dim * cfg.n_dim - 1
    return math.comb(d, 3) if kind == "f" else math.comb(d + 2, 3)


# (module, function, span name, attrs(bound arguments, result) -> dict)
FUNCTIONS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("sunlie.cli", "main", "cli.main", None),
    ("sunlie.structure_constants", "build_f_table", "structure_constants.build_f_table",
     lambda a, r: {"entries": len(r)}),
    ("sunlie.structure_constants", "build_d_table", "structure_constants.build_d_table",
     lambda a, r: {"entries": len(r)}),
    ("sunlie.generators", "all_generators", "generators.all_generators", None),
    ("sunlie.trace_oracle", "full_oracle_table", "trace_oracle.full_oracle_table",
     lambda a, r: {"evals": _oracle_evals(a["cfg"], a["kind"])}),
    ("sunlie.adjoint", "adjoint_stack", "adjoint.adjoint_stack",
     lambda a, r: {"nbytes": _nbytes(r)}),
    ("sunlie.adjoint", "verify_adjoint_commutators", "adjoint.verify_adjoint_commutators",
     lambda a, r: {"pairs": r.pairs_checked, "max_deviation": r.max_deviation}),
    ("sunlie.dynamics", "decompose_hamiltonian", "dynamics.decompose_hamiltonian", None),
    ("sunlie.dynamics", "precession_matrix", "dynamics.precession_matrix",
     lambda a, r: {"nbytes": _nbytes(r)}),
    ("sunlie.dynamics", "integrate_bloch", "dynamics.integrate_bloch",
     lambda a, r: {"steps": _spec_steps(a["spec"])}),
    ("sunlie.dynamics", "integrate_tdse", "dynamics.integrate_tdse",
     lambda a, r: {"steps": _spec_steps(a["spec"])}),
    ("sunlie.dynamics", "bloch_from_states", "dynamics.bloch_from_states", None),
    ("sunlie.dynamics", "bloch_tdse_deviation", "dynamics.bloch_tdse_deviation",
     lambda a, r: {"deviation": r}),
)
TABLE_METHODS = ("stats", "triples", "lookup", "as_dict", "contraction_arrays")


class Tracer:
    """Records nested spans around wrapped calls; one instance per pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> dict:
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            parent = self._stack[-1]
            parent["_peak"] = max(parent["_peak"], peak)
        tracemalloc.reset_peak()
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "pass": self.pass_id,
            "name": name,
            "_base": current,
            "_peak": current,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        span["_peak"] = max(span["_peak"], peak)
        span["peak_bytes"] = span["_peak"] - span["_base"]
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent["_peak"] = max(parent["_peak"], span["_peak"])
        tracemalloc.reset_peak()

    def wrap(self, fn: Callable, name: str, attrs: Callable | None = None) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(span)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = attrs(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap FUNCTIONS wherever a loaded sunlie module binds them, and TABLE_METHODS."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "sunlie" or name.startswith("sunlie."))]
        for module_name, attr, span_name, attrs in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(original, span_name, attrs)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, traced)
        table_cls = sys.modules["sunlie.structure_constants"].ConstantTable
        for method in TABLE_METHODS:
            original = getattr(table_cls, method)
            self._undo.append((table_cls, method, original))
            setattr(table_cls, method, self.wrap(original, f"structure_constants.{method}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def finished_spans(self) -> list[dict]:
        """Spans without the recorder's private bookkeeping, ready for JSON."""
        return [{k: v for k, v in s.items() if not k.startswith("_")} for s in self.spans]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _pass_layers(spans: list[dict], reading: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans and gate readings."""
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum((s["end"] - s["start"] for s in named(name)), 0.0)

    def self_total(name):
        return sum((own[s["id"]] for s in named(name)), 0.0)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    def peak_mb(*names):
        return max((s["peak_bytes"] for n in names for s in named(n)), default=0) / MB

    def per(numerator, count, scale):
        return numerator / count * scale if count else 0.0

    lookups = named("structure_constants.lookup")
    bloch_steps = attr_sum("dynamics.integrate_bloch", "steps")
    tdse_steps = attr_sum("dynamics.integrate_tdse", "steps")
    evals = attr_sum("trace_oracle.full_oracle_table", "evals")
    pairs = attr_sum("adjoint.verify_adjoint_commutators", "pairs")
    adjoint_spans = named("adjoint.verify_adjoint_commutators")
    builders = ("structure_constants.build_f_table", "structure_constants.build_d_table")
    return {
        "structure_constants.build_f_s": total(builders[0]),
        "structure_constants.build_d_s": total(builders[1]),
        "structure_constants.stats_s": total("structure_constants.stats"),
        "structure_constants.triples_s": total("structure_constants.triples"),
        "structure_constants.contraction_arrays_s": total("structure_constants.contraction_arrays"),
        "structure_constants.lookup_us": per(sum(s["end"] - s["start"] for s in lookups),
                                             len(lookups), 1e6),
        "structure_constants.lookup_calls": len(lookups),
        "structure_constants.as_dict_s": total("structure_constants.as_dict"),
        "structure_constants.build_peak_mb": peak_mb(*builders),
        "structure_constants.triples_count": sum(attr_sum(b, "entries") for b in builders),
        "cli.self_s": self_total("cli.main"),
        "cli.output_bytes": reading.get("output_bytes", 0),
        "generators.all_generators_s": total("generators.all_generators"),
        "dynamics.decompose_s": total("dynamics.decompose_hamiltonian"),
        "dynamics.decompose_peak_mb": peak_mb("dynamics.decompose_hamiltonian"),
        "dynamics.precession_matrix_s": total("dynamics.precession_matrix"),
        "dynamics.omega_bytes": max((s["attrs"]["nbytes"] for s in
                                     named("dynamics.precession_matrix")), default=0),
        "dynamics.integrate_bloch_s": total("dynamics.integrate_bloch"),
        "dynamics.bloch_step_us": per(self_total("dynamics.integrate_bloch"), bloch_steps, 1e6),
        "dynamics.integrate_tdse_s": total("dynamics.integrate_tdse"),
        "dynamics.tdse_step_us": per(self_total("dynamics.integrate_tdse"), tdse_steps, 1e6),
        "dynamics.bloch_from_states_s": total("dynamics.bloch_from_states"),
        "dynamics.rk4_steps": bloch_steps + tdse_steps,
        "dynamics.max_tdse_deviation": reading.get("max_tdse_deviation", 0.0),
        "dynamics.casimir_drift": reading.get("casimir_drift", 0.0),
        "trace_oracle.full_table_s": total("trace_oracle.full_oracle_table"),
        "trace_oracle.eval_us": per(self_total("trace_oracle.full_oracle_table"), evals, 1e6),
        "trace_oracle.trace_evals": evals,
        "adjoint.verify_commutators_s": total("adjoint.verify_adjoint_commutators"),
        "adjoint.pair_ms": per(self_total("adjoint.verify_adjoint_commutators"), pairs, 1e3),
        "adjoint.stack_bytes": max((s["attrs"]["nbytes"] for s in
                                    named("adjoint.adjoint_stack")), default=0),
        "adjoint.verify_peak_mb": peak_mb("adjoint.verify_adjoint_commutators"),
        "adjoint.pairs_checked": pairs,
        "adjoint.max_deviation": max((s["attrs"]["max_deviation"] for s in adjoint_spans),
                                     default=0.0),
    }


# Accuracy readings take the worst pass; everything else the median pass.
# Exact counts repeat exactly, so their median is the count.
_WORST = {"dynamics.max_tdse_deviation", "dynamics.casimir_drift", "adjoint.max_deviation"}


def layer_metrics(timed: list[tuple[list[dict], dict]],
                  memory: list[tuple[list[dict], dict]]) -> dict[str, float]:
    """Per-layer metrics, each pass given as (spans, gate readings).

    Times and counts come from the ``timed`` passes, which record spans
    only; ``*_peak_mb`` comes from the ``memory`` passes, which also run
    under tracemalloc and are too slow to time.
    """
    timed_layers = [_pass_layers(s, r) for s, r in timed]
    memory_layers = [_pass_layers(s, r) for s, r in memory]
    out = {}
    for name in timed_layers[0]:
        if name.endswith("_peak_mb"):
            out[name] = max(p[name] for p in memory_layers)
        else:
            values = [p[name] for p in timed_layers]
            out[name] = max(values) if name in _WORST else statistics.median_low(values)
    return out

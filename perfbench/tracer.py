"""Traced run: spans around the public entry points of each cohomoring module.

The wrapper sits outside the package.  Constructors are wrapped at the class;
a module-level function is replaced in every `cohomoring.*` module that holds
the same function object, because `from .x import f` copies the binding.
Spans (name, start, end, parent, counters) are kept in memory; per-layer calls,
inclusive time and self time are computed from the span tree afterwards.  A
layer whose function no longer exists is reported as absent, never as zero.

Untraced passes never import this module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

# (args, kwargs, result) -> counters of one call
Counts = Callable[[tuple, dict, object], Dict[str, int]]
# (args, kwargs, parent) -> whether the call belongs to the layer's variant;
# parent is (name, args, kwargs) of the enclosing span, or None
Variant = Callable[[tuple, dict, Optional[tuple]], bool]


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _report_counts(args, kwargs, report) -> Dict[str, int]:
    return {"checks": len(report.checks),
            "skipped": sum(c.status == "skipped" for c in report.checks)}


def _z1_counts(args, kwargs, found) -> Dict[str, int]:
    source = _arg(args, kwargs, 0, "source")
    module = _arg(args, kwargs, 1, "module")
    return {"candidates": module.order ** len(source.generators), "found": len(found)}


def _is_h2_middle(args, kwargs, parent) -> bool:
    """H^2(G,N) computed inside verify_five_term for the middle group G."""
    if parent is None or parent[0] != "verify.verify_five_term":
        return False
    _, pargs, pkwargs = parent
    return _arg(args, kwargs, 0, "q_group") is _arg(pargs, pkwargs, 0, "ext").g_group


def _kernel_mod_counts(args, kwargs, result) -> Dict[str, int]:
    shape = getattr(_arg(args, kwargs, 0, "eqs"), "shape", (0, 0))
    return {"cells": int(shape[0]) * int(shape[1])}


def _ring_counts(args, kwargs, result) -> Dict[str, int]:
    return {"elements": args[0].order}


_TIME_KINDS = (("calls", "count"), ("s", "s"), ("self_s", "s"))


@dataclass(frozen=True)
class Layer:
    """One traced entry point and the end-to-end metric it should move."""

    module: str
    name: str  # function, class (its constructor) or Class.method
    moves: str
    counters: Tuple[str, ...] = ()
    counts: Optional[Counts] = None
    # (suffix, test): calls passing the test are also reported as <key>_<suffix>
    variant: Optional[Tuple[str, Variant]] = None
    # (name, numerator counter, denominator counter): useful work over attempts
    ratio: Optional[Tuple[str, str, str]] = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"

    def units(self) -> Dict[str, str]:
        units = {f"{self.key}.{kind}": unit for kind, unit in _TIME_KINDS}
        units.update({f"{self.key}.{c}": "count" for c in self.counters})
        if self.variant is not None:
            units.update({f"{self.key}_{self.variant[0]}.{kind}": unit
                          for kind, unit in _TIME_KINDS})
        if self.ratio is not None:
            units[f"{self.key}.{self.ratio[0]}"] = "ratio"
        return units


_VERIFIER_MOVES = "wall_norm_s on catalog_sweep"
_VERIFIERS = ("verify_five_term", "verify_aut_five_term", "verify_centralizer_sequence",
              "verify_aut_centralizer_sequence", "verify_crossed_hom_sequence",
              "verify_qr_sequence")

LAYERS: Tuple[Layer, ...] = (
    Layer("groups", "FiniteGroup",
          "wall_norm_s on ring432 and dihedral_24; per-call overhead on catalog_sweep"),
    Layer("groups", "FiniteGroup._check_associativity",
          "wall_norm_s on ring432 and dihedral_24 (the cubic group sweep)"),
    Layer("groups", "enumerate_homs", "wall_norm_s on ring432 and dihedral_24"),
    Layer("groups", "enumerate_actions", "wall_norm_s on ring432 and dihedral_24"),
    Layer("rings", "FiniteRing",
          "wall_norm_s on ring432 and dihedral_24; about nothing on catalog_sweep",
          ("elements",), _ring_counts),
    Layer("rings", "FiniteRing._validate",
          "wall_norm_s on ring432 and dihedral_24 (the cubic ring sweep)"),
    Layer("rings", "semidirect_ring", "wall_norm_s on ring432 and dihedral_24"),
    Layer("rings", "quotient_ring", "wall_norm_s on ring432 and dihedral_24"),
    Layer("rings", "quasi_regular_indices", "wall_norm_s on ring432 and dihedral_24"),
    Layer("cocycles", "enumerate_z1",
          "wall_norm_s on dihedral_24; peak_rss_mb if the searches are batched",
          ("candidates", "found"), _z1_counts, ratio=("yield", "found", "candidates")),
    Layer("cocycles", "cocycle_ring",
          "wall_norm_s on dihedral_24; peak_rss_mb if the searches are batched"),
    Layer("endo_rings", "fiber_endo_ring", "wall_norm_s on dihedral_24 and catalog_sweep"),
    Layer("endo_rings", "kernel_fixing_endos", "wall_norm_s on dihedral_24 and catalog_sweep"),
    Layer("endo_rings", "action_preserving_quotient_endos",
          "wall_norm_s on dihedral_24 and catalog_sweep"),
    Layer("cohomology2", "compute_h2",
          "wall_norm_s and checks_done on catalog_sweep; nothing on ring432",
          variant=("middle", _is_h2_middle)),
    Layer("linalg", "kernel_mod", "wall_norm_s on catalog_sweep",
          ("cells",), _kernel_mod_counts),
    Layer("linalg", "quotient_snf", "wall_norm_s on catalog_sweep"),
    Layer("extension", "build_extension", "wall_norm_s and setup_s on catalog_sweep"),
    Layer("extension", "centralizer_extension", "wall_norm_s and setup_s on catalog_sweep"),
    *(Layer("verify", v, _VERIFIER_MOVES, ("checks", "skipped"), _report_counts)
      for v in _VERIFIERS),
    Layer("catalog", "sweep", "root of catalog_sweep"),
    Layer("examples", "dihedral_report", "root of dihedral_24"),
    Layer("examples", "ring432_report", "root of ring432"),
    Layer("cli", "main", "root of every workload"),
)

OVERHEAD = "trace.overhead_s"  # traced wall time minus the untraced median


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units.update(layer.units())
    units[OVERHEAD] = "s"
    return units


class Tracer:
    """Installs the span wrappers; `remove` restores every original object."""

    def __init__(self, layers: Tuple[Layer, ...] = LAYERS):
        self.layers = layers
        # span: [name, start, end, parent index, counts, variant key or None]
        self.spans: List[list] = []
        self.absent: List[str] = []
        self._stack: List[tuple] = []  # (span index, args, kwargs) of open spans
        self._patches: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def install(self) -> None:
        for layer in self.layers:
            try:
                module = importlib.import_module(f"cohomoring.{layer.module}")
            except ImportError:
                self.absent.append(layer.key)
                continue
            owner_name, _, method = layer.name.partition(".")
            owner = getattr(module, owner_name, None)
            if isinstance(owner, type):
                attr = method or "__init__"
                original = owner.__dict__.get(attr)
                if original is None:
                    self.absent.append(layer.key)
                    continue
                self._patch(owner, attr, original, self._wrap(layer, original))
            elif callable(owner) and not method:
                wrapped = self._wrap(layer, owner)
                for name, mod in list(sys.modules.items()):
                    if name == "cohomoring" or name.startswith("cohomoring."):
                        for attr, value in list(vars(mod).items()):
                            if value is owner:
                                self._patch(mod, attr, owner, wrapped)
            else:
                self.absent.append(layer.key)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def _wrap(self, layer: Layer, fn):
        name = layer.key
        counts = layer.counts
        variant = layer.variant
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, clock(), 0.0, parent[0] if parent else -1, None, None]
            if variant is not None:
                pinfo = None if parent is None else (spans[parent[0]][0], parent[1], parent[2])
                if variant[1](args, kwargs, pinfo):
                    span[5] = f"{name}_{variant[0]}"
            stack.append((len(spans), args, kwargs))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return traced

    def metrics(self) -> Dict[str, float]:
        """Per-layer calls, inclusive and self seconds, and counters.

        Self time is a span's duration minus that of its direct children.
        Inclusive time counts only the outermost span of a recursive layer.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {
            metric: 0 for layer in self.layers if layer.key not in self.absent
            for metric in layer.units()}
        for i, (name, start, end, parent, counts, variant) in enumerate(spans):
            keys = [name] if variant is None else [name, variant]
            dur = end - start
            outermost = True
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    outermost = False
                    break
                p = spans[p][3]
            for key in keys:
                out[f"{key}.calls"] += 1
                out[f"{key}.self_s"] += dur - child_time[i]
                if outermost:
                    out[f"{key}.s"] += dur
            for counter, value in (counts or {}).items():
                out[f"{name}.{counter}"] += value
        for layer in self.layers:
            if layer.ratio is not None and layer.key not in self.absent:
                ratio, num, den = (f"{layer.key}.{k}" for k in layer.ratio)
                out[ratio] = out[num] / out[den] if out[den] else 0.0
        return out


"""Span tracing installed from outside the package.

A :class:`Tracer` records one span per call of a wrapped function: name,
start, end, parent span and operation id.  Spans stay in compact arrays in
memory and are written once, when the run ends.  Wrappers are installed by
:func:`install`, which patches every ``groupvar`` module namespace that binds
the wrapped object (``from .x import name`` copies a name into each importing
module) and the defining class for methods.
"""

from __future__ import annotations

import fnmatch
import functools
import sys
from array import array
from time import perf_counter

# Span name -> (module under ``groupvar``, attribute).  An attribute is a
# module function, ``Class.method``, or a glob over the module's own functions.
SPANS = (
    ("cli.main", "cli", "main"),
    ("harmonic.solve_unreduced", "harmonic", "solve_unreduced"),
    ("harmonic.newton_polish", "harmonic", "_newton_polish"),
    ("harmonic.interior_gradients", "harmonic", "_interior_gradients"),
    ("harmonic.dirichlet_energy", "harmonic", "dirichlet_energy"),
    ("harmonic.blend_initializer", "harmonic", "_blend_initializer"),
    ("liegroup.exp", "liegroup", "exp"),
    ("liegroup.GroupElement", "liegroup", "GroupElement.__init__"),
    ("liegroup.log_near_identity", "liegroup", "log_near_identity"),
    ("liegroup.project_to_group", "liegroup", "project_to_group"),
    ("core.jet_at", "core", "jet_at"),
    ("core.ConstraintMap.cartan_form", "core", "ConstraintMap.cartan_form"),
    ("reduction.PlaquetteConstraint.cartan_form", "reduction",
     "PlaquetteConstraint.cartan_form"),
    ("core.variational_split", "core", "variational_split"),
    ("core.noether_boundary_sum", "core", "noether_boundary_sum"),
    ("core.jacobi_residual", "core", "jacobi_residual"),
    ("core.multisymplectic_defect", "core", "multisymplectic_defect"),
    ("core.regularity_report", "core", "regularity_report"),
    ("core.admissibility_report", "core", "admissibility_report"),
    ("core.action", "core", "action"),
    ("sampling.generate", "sampling", "random_*"),
    ("complexes.classify_vertices", "complexes", "classify_vertices"),
    ("complexes.full_faceset", "complexes", "TriangulatedGrid.full_faceset"),
    ("reduction.euler_poincare_residual", "reduction", "euler_poincare_residual"),
    ("reduction.reduce_field", "reduction", "reduce_field"),
    ("reduction.recover_multipliers", "reduction", "recover_multipliers"),
    ("reduction.reconstruction_report", "reduction", "reconstruction_report"),
    ("reduction.multiplier_system_residual", "reduction",
     "multiplier_system_residual"),
    ("reduction.multiplier_elimination_check", "reduction",
     "multiplier_elimination_check"),
    ("serialization.save", "serialization", "save_*|write_*"),
    ("serialization.load", "serialization", "load_*"),
)


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.op = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def call(self, name_id: int, fn, args, kwargs):
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.starts[idx] = t0
            self.ends[idx] = t1

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name_id, fn, args, kwargs)
        return wrapper

    def span_names(self) -> list[str]:
        return [self.names[k] for k in self.name_ids]


def _targets(module, attr: str):
    """(owner, attribute name, object) triples that ``attr`` denotes, or []."""
    if "." in attr:
        cls_name, meth = attr.split(".", 1)
        cls = getattr(module, cls_name, None)
        if cls is None or meth not in vars(cls):
            return []
        return [(cls, meth, vars(cls)[meth])]
    if any(c in attr for c in "*|"):
        patterns = attr.split("|")
        return [(module, name, obj) for name, obj in sorted(vars(module).items())
                if callable(obj) and getattr(obj, "__module__", None) == module.__name__
                and any(fnmatch.fnmatchcase(name, p) for p in patterns)]
    obj = getattr(module, attr, None)
    return [] if obj is None else [(module, attr, obj)]


def install(tracer: Tracer, spans=SPANS):
    """Wrap every span target; return (restore list, missing span names).

    A module function is replaced in every loaded ``groupvar`` module that
    binds the same object.  A span whose target no longer exists is missing:
    it is listed, never reported as zero.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "groupvar" or name.startswith("groupvar."))]
    restore = []
    missing = []
    for span, mod_name, attr in spans:
        module = sys.modules.get(f"groupvar.{mod_name}")
        found = _targets(module, attr) if module is not None else []
        if not found:
            missing.append(span)
            continue
        for owner, name, obj in found:
            wrapper = tracer.wrap(span, obj)
            if isinstance(owner, type):
                restore.append((owner, name, obj))
                setattr(owner, name, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is obj:
                        restore.append((mod, key, obj))
                        setattr(mod, key, wrapper)
    return restore, missing


def uninstall(restore) -> None:
    for owner, name, obj in reversed(restore):
        setattr(owner, name, obj)


def layer_stats(names, starts, ends, parents) -> dict[str, dict]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    Spans must be listed in start order, each after its parent (``-1`` for a
    root).  Self time is a span's duration minus the durations of its direct
    children; inclusive time counts only spans with no ancestor of the same
    name, so recursion is not counted twice.
    """
    count = len(names)
    durations = [ends[k] - starts[k] for k in range(count)]
    child_time = [0.0] * count
    for k in range(count):
        if parents[k] >= 0:
            child_time[parents[k]] += durations[k]
    stats: dict[str, dict] = {}
    stack: list[int] = []
    open_names: dict[str, int] = {}
    for k in range(count):
        while stack and stack[-1] != parents[k]:
            open_names[names[stack.pop()]] -= 1
        name = names[k]
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += durations[k] - child_time[k]
        if not open_names.get(name):
            entry["s"] += durations[k]
        stack.append(k)
        open_names[name] = open_names.get(name, 0) + 1
    return stats

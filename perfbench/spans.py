"""Spans recorded from outside the solver, by wrapping its public functions.

Every public function defined in one of the solver's layer modules is wrapped
under each name a caller looks it up by: ``driver.solve_poisson`` and
``poisson.solve_poisson`` are two bindings of one function, and each gets its
own wrapper, so a call through either records exactly one span.  Module
objects held as attributes (``driver.ht`` is the ``htucker`` module) are never
wrapped themselves; their functions are wrapped once, in their own namespace.

A span is ``[name, start_ns, end_ns, parent, run_id]`` where ``name`` is
``<defining module>.<function>`` and ``parent`` is the index of the enclosing
span (or -1).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time

# the solver's layers, in the order the harness reports them
LAYERS = ("driver", "poisson", "upwind", "lowrank", "projection", "macro",
          "htucker", "io")

_MARK = "__perfbench_span__"


class Tracer:
    """Records nested spans for the functions it wraps; undone by ``restore``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._probes: dict[str, list] = {}

    def probe(self, name: str, fn) -> None:
        """Record ``fn(args, kwargs, result)`` for every call of span ``name``."""
        self._probes[name] = [fn, []]

    def probe_values(self, name: str) -> list:
        return self._probes[name][1] if name in self._probes else []

    def _wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        probe = self._probes.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe[1].append(probe[0](args, kwargs, result))
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def wrap_module(self, module) -> int:
        """Wrap every public function of a layer module bound in ``module``.

        Returns the number of names wrapped.  A name already wrapped is left
        alone, so wrapping a namespace twice records each call once.
        """
        count = 0
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or getattr(fn, _MARK, False):
                continue
            owner = fn.__module__ or ""
            layer = owner.rsplit(".", 1)[-1]
            if not owner.startswith("lrvlasov.") or layer not in LAYERS:
                continue
            self._undo.append((module, attr, fn))
            setattr(module, attr, self._wrapper(f"{layer}.{fn.__name__}", fn))
            count += 1
        return count

    def restore(self) -> None:
        """Put back every original function, newest wrapper first."""
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)


def is_wrapped(fn) -> bool:
    return getattr(fn, _MARK, False)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans

def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover.

    Children of one parent run one after another in a single thread, but the
    union of their intervals (clipped to the parent) is taken anyway so an
    overlapping or overhanging child is never subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, reach = 0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def outermost(spans) -> list[bool]:
    """True where no enclosing span has the same name (no double counting)."""
    flags = []
    for span in spans:
        p = span[3]
        while p >= 0 and spans[p][0] != span[0]:
            p = spans[p][3]
        flags.append(p < 0)
    return flags


def summarize(spans) -> dict:
    """Per-name counts and inclusive ns, per-layer self ns and entry calls."""
    selfs = self_times(spans)
    top = outermost(spans)
    by_name: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    for i, span in enumerate(spans):
        name, layer = span[0], layer_of(span[0])
        entry = by_name.setdefault(name, {"calls": 0, "ns": 0, "durations": []})
        entry["calls"] += 1
        entry["durations"].append(span[2] - span[1])
        if top[i]:
            entry["ns"] += span[2] - span[1]
        lay = layers.setdefault(layer, {"self_ns": 0, "entries": 0})
        lay["self_ns"] += selfs[i]
        parent = span[3]
        if parent < 0 or layer_of(spans[parent][0]) != layer:
            lay["entries"] += 1
    return {"names": by_name, "layers": layers}

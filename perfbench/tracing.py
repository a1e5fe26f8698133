"""Spans and counters installed around qnmkit's public functions.

Wrappers replace the module attributes that callers look up, so nothing in
qnmkit changes.  A span records (name, start, end, parent span, operation
id); spans stay in memory until the run ends.  Functions called millions of
times per operation only get a call counter.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# binding site (module whose attribute is looked up) -> wrapped names
SPANS = {
    "qnmkit.cli": ("build_operator", "solve_resonances", "oracle_refine",
                   "resolvent_apply", "resonance_expand", "inverse_mellin",
                   "fit_decay", "integrate_flow", "classify_radial"),
    "qnmkit.mellin": ("resolvent_apply", "solve_resonances", "inverse_mellin"),
    "qnmkit.resonances": ("build_operator",),
    "qnmkit.dynamics": ("integrate_flow",),
}
COUNTS = {
    "qnmkit.resonances": ("oracle_shooting", "mu_tilde"),
    "qnmkit.dynamics": ("kds_classical_symbol",),
}


def layer_name(fn) -> str:
    """`<module>.<function>` of the module that defines `fn`."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans = []           # (name, start, end, parent index or -1, op id)
        self.counts = Counter()   # name -> calls
        self.errors = Counter()   # (name, exception class) -> raised
        self.extra = defaultdict(float)   # "<name>.<stat>" -> sum
        self.op_id = None
        self._stack = []
        self._undo = []

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.errors[name, type(exc).__name__] += 1
            raise
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op_id)
        self._record(name, result)
        return result

    def _record(self, name, result):
        if name == "resonances.solve_resonances":
            self.extra[name + ".entries"] += len(result.entries)
            self.extra[name + ".converged"] += len(result.converged(1e-6))
        elif name == "dynamics.integrate_flow":
            steps, rejected, _ = result.integrator_stats
            self.extra[name + ".steps"] += steps
            self.extra[name + ".rejected"] += rejected

    def _span_wrapper(self, fn):
        name = layer_name(fn)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)
        return wrapped

    def _count_wrapper(self, fn):
        name = layer_name(fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def install(self):
        for table, make in ((SPANS, self._span_wrapper),
                            (COUNTS, self._count_wrapper)):
            for modname, names in table.items():
                mod = importlib.import_module(modname)
                for attr in names:
                    orig = getattr(mod, attr)
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, make(orig))

    def uninstall(self):
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)


def wrapper_costs(calls: int = 20000) -> tuple:
    """(seconds a span wrapper adds per call, seconds a counter adds per call).

    Timed on a function that does nothing, best of 3.  Multiplied by the
    numbers of spans and counted calls, this is the tracing overhead.
    """
    def noop():
        return None

    def per_call(fn):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - t0)
        return best / calls

    tr = Tracer()
    base = per_call(noop)
    return (per_call(tr._span_wrapper(noop)) - base,
            per_call(tr._count_wrapper(noop)) - base)


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, (_, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((t0, t1))
    out = []
    for i, (_, t0, t1, _, _) in enumerate(spans):
        covered, edge = 0.0, t0
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, edge), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        out.append((t1 - t0) - covered)
    return out


def layer_totals(spans) -> dict:
    """name -> (calls, summed self time)."""
    totals = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]][0] += 1
        totals[span[0]][1] += own
    return {k: tuple(v) for k, v in totals.items()}

"""Span tracer that instruments hybridnas from outside.

Spans are recorded around calls into each module's public functions by
rebinding the module-level names that callers look up (for example
``hybridnas.controller.loss``) and by backend subclasses that wrap their
methods.  Nothing under ``src/`` changes.  Every span keeps (name, start,
end, parent, search id) in memory; self time is a span's duration minus the
time covered by its child spans, accumulated per name as calls finish.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    rows: int = 0
    self_times: list = field(default_factory=list)   # kept for swarm.generation only


class Tracer:
    """Records nested spans and aggregates self time per span name."""

    KEEP_SELF_TIMES = ("swarm.generation",)

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.search = array("i")
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.search_id = -1
        # stack of [span index, start, child time]
        self._stack: list[list] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.search.append(self.search_id)
        self.end.append(0.0)
        frame = [idx, time.perf_counter(), 0.0]
        self.start.append(frame[1])
        self._stack.append(frame)

    def _close(self, name: str, rows: int) -> None:
        t1 = time.perf_counter()
        idx, t0, child = self._stack.pop()
        self.end[idx] = t1
        dur = t1 - t0
        if self._stack:
            self._stack[-1][2] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.self_s += dur - child
        st.rows += rows
        if name in self.KEEP_SELF_TIMES:
            st.self_times.append(dur - child)

    def wrap(self, name: str, fn, rows_arg: int | None = None):
        """Return ``fn`` wrapped in a span; ``rows_arg`` names the positional
        argument whose first dimension counts rows of work."""
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, 0 if rows_arg is None else len(args[rows_arg]))
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close(name, 0)

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st.self_s if st else 0.0

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0

    def save(self, path: str) -> None:
        """Write every recorded span to an ``.npz`` file."""
        import numpy as np
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), search=np.asarray(self.search))


@contextmanager
def patched(bindings):
    """Rebind ``(module, attribute, value)`` triples; restore on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in bindings]
    try:
        for mod, attr, value in bindings:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def instrument(tracer: Tracer):
    """Bindings that route every call on the search path through ``tracer``.

    Returns the list for :func:`patched`.  Names are rebound in the module
    that looks them up, so each call site is covered exactly once.
    """
    from hybridnas import controller, supernet, swarm, tabular

    t = tracer

    def counted_query(fn):
        def query(*args, **kwargs):
            t.count("tabular.lookups")
            return fn(*args, **kwargs)
        return query

    def scanning_diversity(fn):
        traced = t.wrap("fitness.swarm_diversity", fn)

        def swarm_diversity(x, history):
            t.count("fitness.archive_rows_scanned", len(history))
            return traced(x, history)
        return swarm_diversity

    def filling_history(fn):
        traced = t.wrap("fitness.update_history", fn)

        def update_history(history, swarm_):
            out = traced(history, swarm_)
            t.counters["fitness.archive_fill.last"] = len(history) / history.capacity
            return out
        return update_history

    def traced_generation(fn):
        traced = t.wrap("swarm.generation", fn)

        def evolve_generation(swarm_, fitness_fn, *args, **kwargs):
            return traced(swarm_, t.wrap("controller.fitness_fn", fitness_fn),
                          *args, **kwargs)
        return evolve_generation

    def counted_second(fn):
        def update_second_best(x_m, *args, **kwargs):
            pos, vel = fn(x_m, *args, **kwargs)
            if not (pos == x_m).all():
                t.count("swarm.particle_updates")
            return pos, vel
        return update_second_best

    def counted_loser(fn):
        def update_loser(*args, **kwargs):
            t.count("swarm.particle_updates")
            return fn(*args, **kwargs)
        return update_loser

    op_div = "fitness.op_diversity"
    return [
        (controller, "loss", t.wrap("supernet.loss", supernet.loss, rows_arg=2)),
        (controller, "discretize", t.wrap("supernet.discretize", supernet.discretize)),
        (tabular, "discretize", t.wrap("supernet.discretize", supernet.discretize)),
        (controller, "validation_accuracy",
         t.wrap("supernet.validation_accuracy", supernet.validation_accuracy)),
        (supernet, "loss_and_grads",
         t.wrap("supernet.loss_and_grads", supernet.loss_and_grads, rows_arg=2)),
        (controller, "swarm_diversity", scanning_diversity(controller.swarm_diversity)),
        (controller, "entropy_diversity", t.wrap(op_div, controller.entropy_diversity)),
        (controller, "op_frequencies", t.wrap(op_div, controller.op_frequencies)),
        (controller, "update_history", filling_history(controller.update_history)),
        (controller, "evolve_generation", traced_generation(controller.evolve_generation)),
        (controller, "init_population",
         t.wrap("swarm.init_population", controller.init_population)),
        (swarm, "update_second_best", counted_second(swarm.update_second_best)),
        (swarm, "update_loser", counted_loser(swarm.update_loser)),
        (controller, "evaluate_position",
         t.wrap("tabular.evaluate_position", controller.evaluate_position)),
        (controller, "query", counted_query(controller.query)),
        (tabular, "query", counted_query(tabular.query)),
    ]


def traced_backend(base_cls, tracer: Tracer):
    """Subclass of a backend whose stage methods open controller spans."""
    t = tracer

    class Traced(base_cls):
        def position_loss(self, position, eval_batch):
            with t.span("controller.position_loss"):
                return super().position_loss(position, eval_batch)

        def train_weight_epoch(self, alpha, eta_w, batch_size, rng):
            with t.span("controller.train_weight_epoch"):
                return super().train_weight_epoch(alpha, eta_w, batch_size, rng)

        def stability_epoch(self, alpha, cfg, rng):
            with t.span("controller.stability_epoch"):
                return super().stability_epoch(alpha, cfg, rng)

    Traced.__name__ = f"Traced{base_cls.__name__}"
    return Traced

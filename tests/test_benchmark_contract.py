"""The names the benchmark's tracer wraps must exist in the library.

``perfbench/tracer.py`` rebinds module-level names and subclasses the
backends from outside ``src/``.  Renaming or deleting one of them, or
changing a signature its wrappers forward, breaks ``perfbench/run.py
--trace 1`` without failing any other test, so these tests enter the
tracer's bindings and run searches through them.  ``run.py`` itself is not
imported, because it sets environment variables at import.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hybridnas.controller import (SearchSettings, Stage, StageConfig,
                                  SupernetBackend, TabularBackend, run_search)
from hybridnas.runtime import RandomStream
from hybridnas.supernet import ArchLayout, SupernetState, SyntheticDataset
from hybridnas.swarm import SwarmConfig
from hybridnas.tabular import generate_space

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYOUT = ArchLayout(1, ("zero", "skip", "linear"))
SETTINGS = SearchSettings(
    stage=StageConfig(warmup_epochs=1, stability_threshold=0.99,
                      max_total_epochs=3, batch_size=16),
    swarm=SwarmConfig(pop_size=6, generations_per_epoch=2))


def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer, workloads


def tabular_backend(cls):
    return cls(generate_space(LAYOUT, seed=1), LAYOUT)


def backward_calls(result, n_train=60):
    """loss_and_grads calls of a supernet search: one per training batch in
    each warm-up and exploration epoch, and a weight plus an architecture
    step per batch in each stability epoch."""
    counts = {stage.value: 0 for stage in Stage}
    for r in result.records:
        counts[r.stage] += 1
    b = SETTINGS.stage.batch_size
    return ((counts["warmup"] + counts["exploration"]) * math.ceil(n_train / b)
            + counts["stability"] * 2 * max(1, n_train // b))


def supernet_backend(cls):
    root = RandomStream(0)
    data = SyntheticDataset.spirals(root.substream("data").generator,
                                    n_train=60, n_val=30)
    state = SupernetState.init(LAYOUT, root.substream("init").generator,
                               feature_dim=4)
    return cls(LAYOUT, data, state)


def test_tracer_bindings_resolve():
    tracer, _ = perfbench_modules()   # workloads imports the names it uses
    from hybridnas import controller

    with tracer.patched(tracer.instrument(tracer.Tracer())):
        pass
    for backend in (controller.SupernetBackend, controller.TabularBackend):
        for name in ("position_loss", "train_weight_epoch", "stability_epoch"):
            assert callable(getattr(backend, name, None)), (backend.__name__, name)


@pytest.mark.parametrize("base_cls, make, fitness_span", [
    (TabularBackend, tabular_backend, "tabular.evaluate_position"),
    (SupernetBackend, supernet_backend, "supernet.loss"),
], ids=["tabular", "supernet"])
def test_traced_search_matches_untraced(base_cls, make, fitness_span):
    # A search run through the tracer's wrappers gives the same output, and
    # the wrapped names see the expected number of calls: G generations per
    # exploration epoch, and P fitness calls per generation plus P for the
    # epoch's base fitness.
    tracer, workloads = perfbench_modules()
    plain = run_search(SETTINGS, make(base_cls), seed=0)
    t = tracer.Tracer()
    with tracer.patched(tracer.instrument(t)):
        traced = run_search(SETTINGS, make(tracer.traced_backend(base_cls, t)),
                            seed=0)
    assert workloads.serialize(traced) == workloads.serialize(plain)
    explore = sum(r.stage == Stage.EXPLORATION.value for r in traced.records)
    g, p = SETTINGS.swarm.generations_per_epoch, SETTINGS.swarm.pop_size
    assert explore == 2
    assert t.calls("swarm.generation") == explore * g
    assert t.calls(fitness_span) == explore * (g + 1) * p
    if base_cls is SupernetBackend:
        assert t.calls("supernet.loss_and_grads") == backward_calls(traced)


def test_traced_stability_counts_every_backward_call():
    # grad_weights and grad_alpha both reach the traced loss_and_grads.
    tracer, _ = perfbench_modules()
    settings = replace(SETTINGS, stage=replace(
        SETTINGS.stage, stability_threshold=0.05, max_total_epochs=4))
    t = tracer.Tracer()
    with tracer.patched(tracer.instrument(t)):
        result = run_search(settings, supernet_backend(
            tracer.traced_backend(SupernetBackend, t)), seed=0)
    assert [r.stage for r in result.records] == [
        "warmup", "exploration", "stability", "stability"]
    assert t.calls("supernet.loss_and_grads") == backward_calls(result) == 20


def test_supernet_backend_builds_and_scores():
    # The benchmark builds a supernet backend through ``SupernetState.init``
    # and scores held-out data with ``validation_accuracy`` at a search's
    # final ``alpha``.
    _, workloads = perfbench_modules()
    from hybridnas.supernet import validation_accuracy

    workload = workloads.WORKLOADS["supernet-default"]
    backend = workloads.build_supernet_backend(workload, 0)
    result = run_search(SETTINGS, backend, seed=0)
    acc = validation_accuracy(backend.state, result.alpha,
                              *workloads.heldout_split(0))
    assert math.isfinite(acc) and 0.0 <= acc <= 1.0

"""The names the benchmark's tracer wraps must exist in the library.

``perfbench/tracer.py`` rebinds module-level names and subclasses the
backends from outside ``src/``.  Renaming or deleting one of them breaks
``perfbench/run.py --trace 1`` without failing any other test, so this test
enters and exits the tracer's bindings.  ``run.py`` itself is not imported,
because it sets environment variables at import.
"""

import math
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_bindings_resolve():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
        import workloads  # noqa: F401  (imports the names the workloads use)
    finally:
        sys.path.remove(str(PERFBENCH))
    from hybridnas import controller

    with tracer.patched(tracer.instrument(tracer.Tracer())):
        pass
    for backend in (controller.SupernetBackend, controller.TabularBackend):
        for name in ("position_loss", "train_weight_epoch", "stability_epoch"):
            assert callable(getattr(backend, name, None)), (backend.__name__, name)


def test_supernet_backend_builds_and_scores():
    # The benchmark builds a supernet backend through ``SupernetState.init``
    # and scores held-out data with ``validation_accuracy``.
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    from hybridnas.supernet import ArchParams, validation_accuracy

    workload = workloads.WORKLOADS["supernet-default"]
    backend = workloads.build_supernet_backend(workload, 0)
    acc = validation_accuracy(backend.state, ArchParams.zeros(workload.layout),
                              *workloads.heldout_split(0))
    assert math.isfinite(acc) and 0.0 <= acc <= 1.0

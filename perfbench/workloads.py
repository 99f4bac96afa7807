"""Workload definitions, seeded inputs and output checks.

Every input of a run is derived from the workload seed: the list of search
seeds, the held-out spirals of each supernet search and the tabular space
file.  The program under test receives only these generated inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from hybridnas.controller import (SearchSettings, Stage, StageConfig,
                                  SupernetBackend, Termination)
from hybridnas.runtime import RandomStream
from hybridnas.supernet import ArchLayout, SupernetState, SyntheticDataset
from hybridnas.tabular import TabularSpace, generate_space

STAGE_ORDER = [Stage.WARMUP.value, Stage.EXPLORATION.value, Stage.STABILITY.value]
MAX_SEARCHES = 512
SPACES = 8     # tabular spaces per run; search i uses space i % SPACES


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str                 # "supernet" or "tabular"
    layout: ArchLayout
    stage: StageConfig

    def settings(self) -> SearchSettings:
        return SearchSettings(stage=self.stage)


# Every workload does a fixed amount of work per search: each search runs
# to max_total_epochs with fixed stage lengths.  When run length follows the
# trajectory, as at paper defaults (5-20 exploration epochs), a run's
# numbers depend more on which seeds it drew than on the code's speed.
WORKLOADS = {
    w.name: w for w in (
        # Paper-default settings and data.  Validation accuracy on the
        # default spirals stays below 0.91, so the 0.999 switch is never
        # reached: 5 warm-up and 12 exploration epochs, the median length of
        # a paper-default exploration stage.
        Workload("supernet-default", "supernet", ArchLayout(),
                 StageConfig(stability_threshold=0.999, max_total_epochs=17)),
        # One exploration epoch (validation accuracy passes 0.4 after it),
        # then 54 stability epochs: v_t stays above the 1e-3 stop bound at
        # this architecture learning rate, so stability runs to the cap.
        Workload("supernet-finetune", "supernet", ArchLayout(),
                 StageConfig(stability_threshold=0.4, stability_arch_lr=1e-2,
                             max_total_epochs=60)),
        # 3**10 = 59,049 genotypes, D = 30.  Generated spaces top out at 0.95
        # validation accuracy, so 0.99 is never reached: 5 warm-up and 35
        # exploration epochs, and the 200-entry archive is full after 25.
        Workload("tabular-budget", "tabular",
                 ArchLayout(2, ("zero", "skip", "linear")),
                 StageConfig(stability_threshold=0.99, max_total_epochs=40)),
    )
}


def workload_stream(workload: Workload, seed: int) -> RandomStream:
    return RandomStream(seed).substream("perfbench").substream(workload.name)


def search_seeds(workload: Workload, seed: int) -> list[int]:
    rng = workload_stream(workload, seed).substream("search-seeds").generator
    return [int(s) for s in rng.integers(0, 2 ** 31, MAX_SEARCHES)]


def make_space(workload: Workload, seed: int, k: int) -> TabularSpace:
    """The k-th tabular space of a run."""
    rng = workload_stream(workload, seed).substream(f"space-{k}").generator
    return generate_space(workload.layout, int(rng.integers(0, 2 ** 31)),
                          name=f"{workload.name}-{seed}-{k}")


def heldout_split(search_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh spirals from the training distribution that selection never sees."""
    rng = RandomStream(search_seed).substream("perfbench-heldout").generator
    d = SyntheticDataset.spirals(rng, n_train=600, n_val=300)
    return np.concatenate([d.train_x, d.val_x]), np.concatenate([d.train_y, d.val_y])


def build_supernet_backend(workload: Workload, search_seed: int,
                           backend_cls=SupernetBackend):
    """Set-up a user pays for a supernet search: dataset plus weight init."""
    root = RandomStream(search_seed)
    dataset = SyntheticDataset.spirals(root.substream("data").generator)
    state = SupernetState.init(workload.layout, root.substream("init").generator)
    return backend_cls(workload.layout, dataset, state)


def input_digest(workload: Workload, seed: int, space_paths: list[str],
                 n_searches: int = 8) -> str:
    """sha256 over every generated input of the first ``n_searches``."""
    h = hashlib.sha256()
    seeds = search_seeds(workload, seed)
    h.update(np.asarray(seeds, dtype=np.int64).tobytes())
    if workload.backend == "supernet":
        for s in seeds[:n_searches]:
            for arr in heldout_split(s):
                h.update(arr.tobytes())
    for path in space_paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def serialize(result) -> bytes:
    """Records (wall_ms zeroed) and genotype as bytes, for identity checks."""
    lines = []
    for r in result.records:
        vals = [getattr(r, f) for f in r.FIELDS]
        vals[r.FIELDS.index("wall_ms")] = 0
        lines.append(",".join(repr(v) for v in vals))
    lines.append(result.genotype.key())
    lines.append(result.termination.value)
    return "\n".join(lines).encode()


def check_search(workload: Workload, result, space: TabularSpace | None = None,
                 oracle_acc: float | None = None) -> list[str]:
    """Every way the search output can be wrong; empty when it is correct."""
    problems = []
    recs = result.records
    cfg = workload.stage
    if not recs:
        return ["no epoch records"]
    if [r.epoch for r in recs] != list(range(1, len(recs) + 1)):
        problems.append("epochs not numbered 1..n")
    if len(recs) > cfg.max_total_epochs:
        problems.append(f"{len(recs)} epochs exceed the cap {cfg.max_total_epochs}")
    try:
        order = [STAGE_ORDER.index(r.stage) for r in recs]
    except ValueError:
        problems.append("unknown stage in records")
    else:
        if order != sorted(order):
            problems.append("stages out of order")
    for r in recs:
        for f in r.FIELDS:
            v = getattr(r, f)
            if isinstance(v, float) and not math.isfinite(v):
                problems.append(f"epoch {r.epoch}: {f} is not finite")
    g = result.genotype
    e = workload.layout.edges_per_cell
    if len(g.normal) != e or len(g.reduce) != e:
        problems.append(f"genotype has {len(g.normal)}+{len(g.reduce)} edges, layout {e}+{e}")
    elif not all(0 <= i < workload.layout.num_ops for i in g.normal + g.reduce):
        problems.append("genotype op index out of range")
    if space is not None:
        m = space.table.get(g.key())
        if m is None:
            problems.append(f"genotype {g.key()} not in the space")
        elif m.valid_acc > oracle_acc:
            problems.append(f"valid_acc {m.valid_acc} above the oracle's {oracle_acc}")
    if result.termination is not Termination.MAX_EPOCHS or len(recs) != cfg.max_total_epochs:
        problems.append(f"ended {result.termination.value} after {len(recs)} epochs, "
                        f"expected max_epochs after {cfg.max_total_epochs}")
    return problems


def epoch_counts(result) -> dict[str, int]:
    return {s: sum(r.stage == s for r in result.records) for s in STAGE_ORDER}

"""Three-stage search controller.

Warm-up trains supernet weights with architecture scores frozen at zero.
Exploration alternates swarm generations (combined fitness) with one weight
epoch at the softly-updated architecture; the swarm persists across epochs.
Stability fine-tunes the architecture by gradient at a tiny learning rate
and stops early once the windowed mean change falls under a concentration
bound and/or an absolute threshold.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .fitness import (FitnessWeights, HistoryArchive, base_fitness,
                      combined_fitness, entropy_diversity, swarm_diversity,
                      update_history)
from .runtime import RandomStream
from .supernet import (ArchLayout, Genotype, SupernetState, SyntheticDataset,
                       decode, discretize, embed, grad_alpha, grad_weights,
                       loss, op_frequencies, sgd_step_weights,
                       validation_accuracy)
from .swarm import SwarmConfig, evolve_generation, init_population
from .tabular import (QueryBudget, TabularSpace, check_layout,
                      evaluate_position, query)


class Stage(str, Enum):
    WARMUP = "warmup"
    EXPLORATION = "exploration"
    STABILITY = "stability"


class StopMode(str, Enum):
    HOEFFDING = "hoeffding"
    ABSOLUTE = "absolute"
    STRICT = "strict"


class Termination(str, Enum):
    EARLY_STOP = "early_stop"
    MAX_EPOCHS = "max_epochs"


@dataclass
class StageConfig:
    warmup_epochs: int = 5
    batch_size: int = 64
    eta_w: float = 0.025
    exploration_eta_alpha: float = 0.3
    stability_threshold: float = 0.82
    stability_arch_lr: float = 1e-5
    min_stability_epochs: int = 5
    window_n: int = 5
    confidence_delta: float = 0.05
    abs_alpha_threshold: float = 1e-3
    stop_mode: StopMode = StopMode.STRICT
    max_total_epochs: int = 100

    def __post_init__(self):
        self.stop_mode = StopMode(self.stop_mode)  # a str would match no mode
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        for name in ("batch_size", "eta_w", "min_stability_epochs", "window_n",
                     "max_total_epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.exploration_eta_alpha <= 1.0:
            raise ValueError("exploration_eta_alpha must lie in [0, 1]")
        if not 0.0 < self.stability_threshold < 1.0:
            raise ValueError("stability_threshold must lie in (0, 1)")
        if self.stability_arch_lr < 0:
            raise ValueError("stability_arch_lr must be >= 0")
        if not 0.0 < self.confidence_delta < 1.0:
            raise ValueError("confidence_delta must lie in (0, 1)")
        if self.abs_alpha_threshold <= 0:
            raise ValueError("abs_alpha_threshold must be positive")


def hoeffding_epsilon(dim: int, delta: float, n: int) -> float:
    """Concentration bound on the windowed mean parameter change."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.sqrt(dim * math.log(2.0 / delta) / (2.0 * n))


def should_stop(window, epsilon: float, abs_threshold: float,
                mode: StopMode) -> bool:
    """Compare the window mean against the mode-selected bound."""
    window = list(window)
    if not window:
        raise ValueError("convergence window is empty")
    mean = sum(window) / len(window)
    if mode is StopMode.HOEFFDING:
        bound = epsilon
    elif mode is StopMode.ABSOLUTE:
        bound = abs_threshold
    else:
        bound = min(epsilon, abs_threshold)
    return mean < bound


def select_best(base_values: np.ndarray) -> int:
    """Index of the particle with minimal base fitness; ties go low."""
    base_values = np.asarray(base_values, dtype=float)
    if not np.all(np.isfinite(base_values)):
        raise ValueError("base fitness values must be finite")
    return int(np.argmin(base_values))


def soft_update_alpha(alpha: np.ndarray, x_star: np.ndarray,
                      eta_alpha: float, layout: ArchLayout) -> np.ndarray:
    """alpha + eta * (decode(x*) - alpha), elementwise."""
    return alpha + eta_alpha * (decode(x_star, layout) - alpha)


@dataclass
class EpochRecord:
    epoch: int
    stage: str
    best_base_fitness: float | None
    best_combined_fitness: float | None
    validation_accuracy: float | None
    v_t: float | None
    epsilon: float | None
    queries_used: int
    wall_ms: int


EpochRecord.FIELDS = tuple(f.name for f in fields(EpochRecord))


@dataclass
class SearchResult:
    genotype: Genotype
    alpha: np.ndarray
    records: list[EpochRecord]
    termination: Termination


class SupernetBackend:
    """Differentiable backend: fitness comes from validation loss of the
    shared-weight supernet at the decoded architecture.  ``loss_max`` is the
    cross-entropy of a uniform prediction.  An eval batch carries its
    embedding, so every particle scored on it shares the alpha-free part of
    the forward pass; the weights change only in ``train_weight_epoch``."""

    def __init__(self, layout: ArchLayout, dataset: SyntheticDataset,
                 state: SupernetState):
        self.layout = layout
        self.dataset = dataset
        self.state = state
        self.queries_used = 0
        self.loss_max = math.log(state.num_classes)

    def make_eval_batch(self, batch_size: int, rng: np.random.Generator):
        n = self.dataset.val_x.shape[0]
        idx = rng.choice(n, size=min(batch_size, n), replace=False)
        bx = self.dataset.val_x[idx]
        return bx, self.dataset.val_y[idx], embed(self.state, bx)

    def position_loss(self, position: np.ndarray, eval_batch) -> tuple[float, Genotype]:
        alpha = decode(position, self.layout)
        bx, by, emb = eval_batch
        return loss(self.state, alpha, bx, by, embedding=emb), discretize(alpha)

    def train_weight_epoch(self, alpha: np.ndarray, eta_w: float,
                           batch_size: int, rng: np.random.Generator) -> None:
        x, y = self.dataset.train_x, self.dataset.train_y
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], batch_size):
            idx = order[start:start + batch_size]
            grads = grad_weights(self.state, alpha, x[idx], y[idx])
            sgd_step_weights(self.state, grads, eta_w)

    def stability_epoch(self, alpha: np.ndarray, cfg: StageConfig,
                        rng: np.random.Generator) -> np.ndarray:
        """Alternate weight steps on training batches with architecture
        steps on validation batches."""
        tx, ty = self.dataset.train_x, self.dataset.train_y
        vx, vy = self.dataset.val_x, self.dataset.val_y
        t_order = rng.permutation(tx.shape[0])
        v_order = rng.permutation(vx.shape[0])
        n_steps = max(1, tx.shape[0] // cfg.batch_size)
        for s in range(n_steps):
            ti = t_order[s * cfg.batch_size:(s + 1) * cfg.batch_size]
            grads = grad_weights(self.state, alpha, tx[ti], ty[ti])
            sgd_step_weights(self.state, grads, cfg.eta_w)
            start = (s * cfg.batch_size) % vx.shape[0]
            vi = v_order[start:start + cfg.batch_size]
            ag = grad_alpha(self.state, alpha, vx[vi], vy[vi])
            alpha = alpha - cfg.stability_arch_lr * ag
        return alpha

    def val_accuracy(self, alpha: np.ndarray) -> float:
        return validation_accuracy(self.state, alpha,
                                   self.dataset.val_x, self.dataset.val_y)


class TabularBackend:
    """Lookup backend: fitness is 1 - tabulated validation accuracy of the
    argmax genotype, so ``loss_max`` is 1.  There are no weights, so weight
    and gradient steps are no-ops."""

    loss_max = 1.0

    def __init__(self, space: TabularSpace, layout: ArchLayout,
                 queries_max: int = 10 ** 9):
        check_layout(space, layout)
        self.space = space
        self.layout = layout
        self.budget = QueryBudget(queries_max=queries_max)

    @property
    def queries_used(self) -> int:
        return self.budget.queries_used

    def make_eval_batch(self, batch_size: int, rng: np.random.Generator):
        return None

    def position_loss(self, position: np.ndarray, eval_batch) -> tuple[float, Genotype]:
        return evaluate_position(self.space, position, self.layout, self.budget)

    def train_weight_epoch(self, alpha, eta_w, batch_size, rng) -> None:
        pass

    def stability_epoch(self, alpha: np.ndarray, cfg: StageConfig, rng) -> np.ndarray:
        return alpha

    def val_accuracy(self, alpha: np.ndarray) -> float:
        return query(self.space, discretize(alpha), self.budget).valid_acc


def op_diversity_memo(layout: ArchLayout):
    """A function ``genotype -> entropy_diversity(op_frequencies(genotype,
    layout))`` that computes each value once.  Op frequencies depend only on
    how often each op is picked, so the memo is keyed by the sorted op
    indices and holds at most one entry per op-count vector.  It saves work
    because a search's particles keep landing on op multisets seen before:
    the population converges, and few multisets exist (1,001 for 10 edges
    and 5 ops)."""
    memo: dict[tuple[int, ...], float] = {}

    def op_diversity(genotype: Genotype) -> float:
        key = tuple(sorted(genotype.normal + genotype.reduce))
        value = memo.get(key)
        if value is None:
            value = memo[key] = entropy_diversity(op_frequencies(genotype, layout))
        return value
    return op_diversity


@dataclass
class SearchSettings:
    stage: StageConfig = field(default_factory=StageConfig)
    swarm: SwarmConfig = field(default_factory=SwarmConfig)
    weights: FitnessWeights = field(default_factory=FitnessWeights)
    history_capacity: int = 200

    def __post_init__(self):
        if self.history_capacity < 1:
            raise ValueError(f"history_capacity must be >= 1, got "
                             f"{self.history_capacity}")


def run_search(config: SearchSettings, backend, seed: int,
               timing: bool = False, on_record=None) -> SearchResult:
    """Execute warm-up, exploration and stability in order, together at
    most ``max_total_epochs`` epochs.

    Fully reproducible from the seed; wall-clock is recorded only when
    ``timing`` is set so default logs are byte-stable across runs.
    ``on_record``, if given, is called with each EpochRecord as soon as its
    epoch ends, so a log survives a search that raises later.
    """
    cfg = config.stage
    cap = cfg.max_total_epochs
    layout = backend.layout
    dim = layout.dimension
    loss_max = backend.loss_max

    root = RandomStream(seed)
    swarm_rng = root.substream("swarm").generator
    batch_rng = root.substream("batches").generator
    data_rng = root.substream("stability").generator

    alpha = np.zeros((2, layout.edges_per_cell, layout.num_ops))
    records: list[EpochRecord] = []

    def clock():
        return time.perf_counter() if timing else 0.0

    def record(stage: Stage, t0: float, best_base=None, best_comb=None,
               v_t=None, epsilon=None) -> None:
        # val_accuracy first: the tabular backend charges it as a query
        acc = backend.val_accuracy(alpha)
        records.append(EpochRecord(
            epoch=len(records) + 1, stage=stage.value,
            best_base_fitness=best_base, best_combined_fitness=best_comb,
            validation_accuracy=acc, v_t=v_t, epsilon=epsilon,
            queries_used=backend.queries_used,
            wall_ms=int(round((clock() - t0) * 1000))))
        if on_record is not None:
            on_record(records[-1])

    for _ in range(min(cfg.warmup_epochs, cap)):
        t0 = clock()
        backend.train_weight_epoch(alpha, cfg.eta_w, cfg.batch_size, data_rng)
        record(Stage.WARMUP, t0)

    stable = False
    if len(records) < cap:
        swarm = init_population(dim, config.swarm, swarm_rng)
        # keep the warm-up signal: current alpha enters as one particle
        bound = config.swarm.swarm_bound
        swarm.positions[0] = np.clip(alpha.ravel(), -bound, bound)
        history = HistoryArchive(dim, config.history_capacity)
        op_diversity = op_diversity_memo(layout)
    while not stable and len(records) < cap:
        t0 = clock()
        for _ in range(config.swarm.generations_per_epoch):
            eval_batch = backend.make_eval_batch(cfg.batch_size, batch_rng)

            def combined_fn(position):
                loss_val, genotype = backend.position_loss(position, eval_batch)
                b = base_fitness(loss_val, loss_max)
                sd = swarm_diversity(position, history)
                od = op_diversity(genotype)
                return combined_fitness(b, sd, od, config.weights)

            evolve_generation(swarm, combined_fn, config.swarm, swarm_rng)
            update_history(history, swarm)

        base_vals = [
            base_fitness(backend.position_loss(x, eval_batch)[0], loss_max)
            for x in swarm.positions]
        star = select_best(base_vals)
        alpha = soft_update_alpha(alpha, swarm.positions[star],
                                  cfg.exploration_eta_alpha, layout)
        backend.train_weight_epoch(alpha, cfg.eta_w, cfg.batch_size, data_rng)
        stable = backend.val_accuracy(alpha) > cfg.stability_threshold
        record(Stage.EXPLORATION, t0, best_base=float(min(base_vals)),
               best_comb=float(swarm.fitness.min()))

    termination = Termination.MAX_EPOCHS
    epsilon = hoeffding_epsilon(dim, cfg.confidence_delta, cfg.window_n)
    window: deque[float] = deque(maxlen=cfg.window_n)
    done = 0
    while stable and len(records) < cap:
        t0 = clock()
        prev = alpha.copy()
        alpha = backend.stability_epoch(alpha, cfg, data_rng)
        v_t = float(np.linalg.norm(alpha - prev))
        window.append(v_t)
        done += 1
        record(Stage.STABILITY, t0, v_t=v_t, epsilon=epsilon)
        if (done >= cfg.min_stability_epochs
                and len(window) == cfg.window_n
                and should_stop(window, epsilon, cfg.abs_alpha_threshold,
                                cfg.stop_mode)):
            termination = Termination.EARLY_STOP
            break

    return SearchResult(genotype=discretize(alpha), alpha=alpha,
                        records=records, termination=termination)

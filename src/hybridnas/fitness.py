"""Fitness components for the exploration stage.

Base fitness is a normalized validation loss.  Two diversity bonuses are
subtracted from it: distance to a history archive of previously good
positions (parameter-space diversity) and the entropy of operation choices
in the decoded genotype (operation diversity).  The swarm minimizes the
combined value, so subtracting the bonuses rewards diversity.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass
class FitnessWeights:
    lambda_swarm: float = 0.3
    lambda_op: float = 0.2

    def __post_init__(self):
        if not (math.isfinite(self.lambda_swarm) and self.lambda_swarm >= 0):
            raise ValueError(f"lambda_swarm must be finite and >= 0, got {self.lambda_swarm}")
        if not (math.isfinite(self.lambda_op) and self.lambda_op >= 0):
            raise ValueError(f"lambda_op must be finite and >= 0, got {self.lambda_op}")


@dataclass
class LossBounds:
    l_min: float
    l_max: float

    def __post_init__(self):
        if not self.l_min < self.l_max:
            raise ValueError(f"need l_min < l_max, got ({self.l_min}, {self.l_max})")


class HistoryArchive:
    """Ring buffer of past positions, used as the reference set for
    parameter-space diversity."""

    def __init__(self, dimension: int, capacity: int = 200):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.dimension = dimension
        self.capacity = capacity
        self.entries: deque[np.ndarray] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, position: np.ndarray) -> None:
        position = np.asarray(position, dtype=float)
        if position.shape != (self.dimension,):
            raise ValueError(f"archive entry has dimension {position.shape[0]}, "
                             f"expected {self.dimension}")
        self.entries.append(position.copy())


def base_fitness(loss: float, bounds: LossBounds) -> float:
    """Normalize a loss into [0, 1]; values outside the bounds clamp."""
    if not math.isfinite(loss):
        raise ValueError(f"loss must be finite, got {loss}")
    t = (loss - bounds.l_min) / (bounds.l_max - bounds.l_min)
    return min(1.0, max(0.0, t))


def swarm_diversity(x: np.ndarray, history: HistoryArchive) -> float:
    """tanh of the scaled distance to the nearest archive entry.

    An empty archive means everything is maximally novel (1.0).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (history.dimension,):
        raise ValueError(f"position has dimension {x.shape[0]}, "
                         f"expected {history.dimension}")
    if not history.entries:
        return 1.0
    d_min = min(float(np.linalg.norm(x - h)) for h in history.entries)
    return math.tanh(d_min / math.sqrt(history.dimension))


def entropy_diversity(frequencies: np.ndarray) -> float:
    """Normalized Shannon entropy of operation selection frequencies."""
    p = np.asarray(frequencies, dtype=float)
    if p.shape[0] <= 1:
        return 0.0
    nz = p[p > 0]
    h = -float(np.sum(nz * np.log(nz)))
    return h / math.log(p.shape[0])


def combined_fitness(base: float, swarm_div: float, op_div: float,
                     weights: FitnessWeights) -> float:
    return base - weights.lambda_swarm * swarm_div - weights.lambda_op * op_div


def update_history(history: HistoryArchive, swarm) -> HistoryArchive:
    """Append the position of the swarm's current best (lowest fitness)
    particle.  Oldest entries are evicted beyond capacity.

    After a generation, a moved particle still holds its pre-move fitness,
    which is no better than its triplet winner's (ties: the winner has the
    lower index), so the first minimum is always an unmoved particle.
    """
    if any(p.fitness is None for p in swarm.particles):
        raise ValueError("swarm has no evaluated particles")
    best = min(swarm.particles, key=lambda p: p.fitness)
    history.add(best.position)
    return history

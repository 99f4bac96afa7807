"""Fitness components for the exploration stage.

Base fitness is a validation loss over the backend's ``loss_max``, clamped
to [0, 1].  Two diversity bonuses are subtracted from it: distance to a
history archive of previously good positions (parameter-space diversity)
and the entropy of operation choices in the decoded genotype (operation
diversity).  The swarm minimizes the combined value, so subtracting the
bonuses rewards diversity.
"""

from __future__ import annotations

import math
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


class HistoryArchive:
    """Ring buffer of past positions, used as the reference set for
    parameter-space diversity.  The rows live in one preallocated
    ``(capacity, dimension)`` array; ``add`` overwrites the oldest row once
    the buffer is full.  ``norms[i]`` caches ``rows[i].dot(rows[i])`` and
    ``norm_max`` the largest filled one for ``swarm_diversity``'s screen, so
    ``add`` is the only writer of ``rows``."""

    def __init__(self, dimension: int, capacity: int = 200):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.dimension = dimension
        self.capacity = capacity
        self.rows = np.empty((capacity, dimension))
        self.norms = np.empty(capacity)
        self.norm_max = -math.inf
        self.added = 0

    def __len__(self) -> int:
        return min(self.added, self.capacity)

    @property
    def entries(self) -> np.ndarray:
        """The filled rows, oldest first (a copy)."""
        return np.roll(self.rows[:len(self)], -self.added, axis=0)

    def add(self, position: np.ndarray) -> None:
        """Raises ValueError, leaving the archive as it was, if the row has a
        non-finite coordinate or ``|row|^2`` is 1e300 or more (which every
        later ``swarm_diversity`` call would reject)."""
        # Contiguous, so its dot is the stored row's bit for bit.
        x = np.ascontiguousarray(_position(position, self.dimension))
        norm = float(x.dot(x))
        if not norm < _SCALE_MAX:
            _reject(x, "archive row", "|row|^2", norm)
        i = self.added % self.capacity
        self.rows[i] = x
        self.norms[i] = norm
        self.added += 1
        # In full, not incrementally: the evicted row may have held the maximum.
        self.norm_max = float(self.norms[:len(self)].max())


_SCALE_MAX = 1e300   # swarm_diversity's bound on |x|^2 + max |r|^2


def _reject(x: np.ndarray, what: str, scale_name: str, scale: float):
    bad = np.flatnonzero(~np.isfinite(x))
    if len(bad):
        raise ValueError(f"{what} coordinate {bad[0]} is {x[bad[0]]}, not finite")
    raise ValueError(f"{what} is too large: {scale_name} = {scale:g}, "
                     f"not below {_SCALE_MAX:g}")


def _position(x, dimension: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dimension,):
        raise ValueError(f"position has shape {x.shape}, expected ({dimension},) "
                         f"for dimension {dimension}")
    return x


def base_fitness(loss: float, loss_max: float) -> float:
    """Normalize a loss into [0, 1] as ``loss / loss_max``, clamped."""
    if not math.isfinite(loss):
        raise ValueError(f"loss must be finite, got {loss}")
    return min(1.0, max(0.0, loss / loss_max))


def swarm_diversity(x: np.ndarray, history: HistoryArchive) -> float:
    """tanh of the scaled distance to the nearest archive entry.

    An empty archive means everything is maximally novel (1.0).  Raises
    ValueError if x has a non-finite coordinate, or if
    ``|x|^2 + max |r|^2`` is 1e300 or more.
    """
    x = _position(x, history.dimension)
    # norm_max is -inf while the archive is empty, so a finite x passes.
    scale = float(x.dot(x)) + history.norm_max
    if not scale < _SCALE_MAX:
        _reject(x, "position", "|x|^2 + max |r|^2", scale)
    n = len(history)
    if not n:
        return 1.0
    rows, norms = history.rows[:n], history.norms[:n]
    # |x - r|^2 = |x|^2 + s_r with s_r = |r|^2 - 2 r.x, so one
    # matrix-vector product ranks every row (x + x is exact).  With
    # gamma ~ (D+2) eps, s_r is off by at most about gamma (|r|^2 + 2|r||x|)
    # and the exact step's own ddot by about gamma |x - r|^2, so the
    # nearest row's s_r exceeds the smallest by less than
    # 10 gamma (|x|^2 + max |r|^2).  The margin is about 1e6 times that,
    # and its floor covers underflow.  Below the scale bound nothing
    # overflows, so s is finite.
    s = norms - rows @ (x + x)
    margin = 1e-10 * (history.dimension + 4) * scale + 1e-300
    i = s.argmin()
    near = (s <= s[i] + margin).nonzero()[0]
    if len(near) == 1:   # the usual case: only row i is in the margin
        d = x - rows[i]
        return _tanh_distance(float(d.dot(d)), history.dimension)
    return _tanh_distance(min(float(d.dot(d)) for d in x - rows[near]),
                          history.dimension)


def _tanh_distance(sq: float, dimension: int) -> float:
    # sqrt(d.dot(d)) is np.linalg.norm of a contiguous 1-D float vector, and
    # sqrt is monotone, so taking it after the min gives norm's minimum bit
    # for bit.
    return math.tanh(math.sqrt(sq) / math.sqrt(dimension))


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
    if np.isnan(swarm.fitness).any():
        raise ValueError("swarm has no evaluated particles")
    history.add(swarm.positions[np.argmin(swarm.fitness)])
    return history

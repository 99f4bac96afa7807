"""Triplet-competition swarm optimizer.

Each generation the particles are grouped into random triplets.  The winner
of a triplet is preserved verbatim, the second-best is updated with
probability 0.5 toward the winner and the swarm centroid, and the loser is
always updated toward the winner and the recorded global best.  Within a
generation the moved rows are independent (winners never move; the centroid
and global best are snapshots), so the random draws are made triplet by
triplet and then one array step, ``learn``, moves every updated particle.
The classic pairwise baseline (``bench.run_pairwise_cso``) ranks random
pairs by the same rule, ``rank_groups``, and moves its losers with the same
``learn`` step, with the swarm centroid in place of the global best.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

# Sentinel used when a fitness function returns NaN/inf: large but finite so
# ranking still works while the particle sorts last.
_WORST_FITNESS = 1e300


@dataclass
class SwarmConfig:
    pop_size: int = 60
    phi: float = 0.15
    generations_per_epoch: int = 8
    # Positions live in the cube [-swarm_bound, swarm_bound]^D.
    swarm_bound: float = 3.0

    def __post_init__(self):
        if self.pop_size < 3:
            raise ValueError(f"pop_size must be >= 3, got {self.pop_size}")
        if not 0.0 <= self.phi <= 1.0:
            raise ValueError(f"phi must lie in [0, 1], got {self.phi}")
        if self.generations_per_epoch < 1:
            raise ValueError("generations_per_epoch must be positive")
        # Positions lie in the cube, so swarm_diversity's scale
        # |x|^2 + max |r|^2 <= 2 D bound^2 stays below its 1e300 limit for
        # any D below 5e99.
        if not 0.0 < self.swarm_bound <= 1e100:
            raise ValueError(f"swarm_bound must be positive and at most 1e100, "
                             f"got {self.swarm_bound}")


@dataclass
class Swarm:
    """The population, one row per particle."""

    positions: np.ndarray     # (P, D)
    velocities: np.ndarray    # (P, D)
    # Value at the most recent evaluation, NaN before the first.  A particle
    # moved after evaluation keeps it until the next generation re-evaluates.
    fitness: np.ndarray       # (P,)
    best_position: np.ndarray | None = None
    best_fitness: float = math.inf

    @property
    def size(self) -> int:
        return self.positions.shape[0]


def init_population(dim: int, config: SwarmConfig,
                    rng: np.random.Generator) -> Swarm:
    """Uniform random positions in the swarm's cube, zero velocities."""
    b = config.swarm_bound
    positions = rng.uniform(-b, b, size=(config.pop_size, dim))
    return Swarm(positions, np.zeros_like(positions),
                 np.full(config.pop_size, np.nan))


def rank_groups(groups: np.ndarray, fitness: np.ndarray) -> np.ndarray:
    """Sort each row of particle indices by ascending fitness, ties toward
    the lower particle index: column 0 holds the winner, the last column
    the loser."""
    order = np.lexsort((groups, fitness[groups]))
    return np.take_along_axis(groups, order, axis=1)


def clamp_to_bounds(position: np.ndarray, velocity: np.ndarray,
                    bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Clip the position into [-bound, bound]; zero velocity on clipped
    coordinates."""
    clipped = np.clip(position, -bound, bound)
    moved = clipped != position
    velocity = np.where(moved, 0.0, velocity)
    return clipped, velocity


def _check_lengths(*vectors: np.ndarray) -> None:
    d = vectors[0].shape[0]
    for v in vectors[1:]:
        if v.shape[0] != d:
            raise ValueError(f"vector length mismatch: {v.shape[0]} != {d}")


def learn(x: np.ndarray, v: np.ndarray, x_w: np.ndarray, x_ref: np.ndarray,
          r: np.ndarray, phi: float, bound: float
          ) -> tuple[np.ndarray, np.ndarray]:
    """Move rows toward their triplet winners and reference points.

    ``x``, ``v`` and ``x_w`` are ``(k, D)`` rows (or one ``(D,)`` row),
    ``x_ref`` is broadcast against them, and ``r`` holds each row's
    uniform draws r1, r2, r3 as shape ``(k, 3, D)`` (or ``(3, D)``).  The
    arithmetic is elementwise, so every row is bitwise what it would be if
    moved on its own.
    """
    r1, r2, r3 = r.swapaxes(0, -2)
    v_new = r1 * v + r2 * (x_w - x) + phi * r3 * (x_ref - x)
    return clamp_to_bounds(x + v_new, v_new, bound)


def update_second_best(x_m: np.ndarray, v_m: np.ndarray, x_w: np.ndarray,
                       x_mean: np.ndarray, phi: float, bound: float,
                       rng: np.random.Generator
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Second-best update: 50% chance of staying put, else learn from the
    triplet winner and the swarm centroid."""
    _check_lengths(x_m, v_m, x_w, x_mean)
    if rng.random() >= 0.5:
        return x_m.copy(), v_m.copy()
    return learn(x_m, v_m, x_w, x_mean, rng.random((3, x_m.shape[0])),
                 phi, bound)


def update_loser(x_l: np.ndarray, v_l: np.ndarray, x_w: np.ndarray,
                 x_best: np.ndarray, phi: float, bound: float,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Mandatory loser update toward the triplet winner and global best."""
    _check_lengths(x_l, v_l, x_w, x_best)
    return learn(x_l, v_l, x_w, x_best, rng.random((3, x_l.shape[0])),
                 phi, bound)


def sanitize_fitness(values) -> np.ndarray:
    """Fitness values as a float array, each non-finite one logged in
    particle order and replaced by a large finite value that ranks last."""
    fitness = np.array(values, dtype=float)
    for i in np.flatnonzero(~np.isfinite(fitness)):
        log.error("non-finite fitness %r for particle %d; ranking as worst",
                  values[i], i)
        fitness[i] = _WORST_FITNESS
    return fitness


def evolve_generation(swarm: Swarm, fitness_fn, config: SwarmConfig,
                      rng: np.random.Generator) -> dict:
    """One generation: evaluate, rank triplets, update second-bests/losers.

    The centroid and global best are snapshots taken after evaluation and
    before any update; winners and leftovers are carried verbatim.  The
    random draws are made triplet by triplet in ranked order (the
    second-best's coin, its r1, r2, r3 if the coin is below 0.5, then the
    loser's r1, r2, r3), and one ``learn`` call then moves every updated
    particle.  Evaluation draws nothing, so it could be parallelized
    without perturbing the trajectory.  Returns the particle indices of
    each role: "winners", "seconds", "losers", "leftovers", and "moved",
    the particles updated, in draw order.
    """
    swarm.fitness[:] = sanitize_fitness([fitness_fn(x)
                                         for x in swarm.positions])

    best = int(np.argmin(swarm.fitness))
    if swarm.fitness[best] < swarm.best_fitness:
        swarm.best_position = swarm.positions[best].copy()
        swarm.best_fitness = float(swarm.fitness[best])

    # Reference points: row 0 the centroid, row 1 the global best.
    refs = np.array((swarm.positions.mean(axis=0), swarm.best_position))

    perm = rng.permutation(swarm.size)
    n_grouped = 3 * (swarm.size // 3)
    ranked = rank_groups(perm[:n_grouped].reshape(-1, 3), swarm.fitness)
    dim = swarm.positions.shape[1]
    moves, draws = [], []   # (particle, its winner, its reference row)
    for w, m, l in ranked.tolist():
        if rng.random() < 0.5:
            moves.append((m, w, 0))
            draws.append(rng.random((3, dim)))
        moves.append((l, w, 1))
        draws.append(rng.random((3, dim)))
    moved, toward, ref = np.array(moves).T
    swarm.positions[moved], swarm.velocities[moved] = learn(
        swarm.positions[moved], swarm.velocities[moved],
        swarm.positions[toward], refs[ref], np.array(draws),
        config.phi, config.swarm_bound)
    winners, seconds, losers = ranked.T.tolist()
    return {"winners": winners, "seconds": seconds, "losers": losers,
            "leftovers": perm[n_grouped:].tolist(), "moved": moved.tolist()}

"""Triplet-competition swarm optimizer.

Particles are grouped into random triplets each generation.  The winner of a
triplet is preserved verbatim, the second-best is updated with probability
0.5 toward the winner and the swarm centroid, and the loser is always
updated toward the winner and the recorded global best.  The classic
pairwise baseline (``bench.run_pairwise_cso``) is ``update_loser`` with the
swarm centroid in place of the global best.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

# Sentinel used when a fitness function returns NaN/inf: large but finite so
# ranking still works while the particle sorts last.
_WORST_FITNESS = 1e300


@dataclass
class Bounds:
    """Box bounds of the search space."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper bounds differ in shape")
        bad = np.nonzero(~(self.lower < self.upper))[0]
        if bad.size:
            raise ValueError(f"invalid bounds on dimension {bad[0]}: "
                             f"lower={self.lower[bad[0]]} >= upper={self.upper[bad[0]]}")

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    @classmethod
    def cube(cls, dim: int, low: float, high: float) -> "Bounds":
        return cls(np.full(dim, low), np.full(dim, high))


@dataclass
class SwarmConfig:
    pop_size: int = 60
    phi: float = 0.15
    generations_per_epoch: int = 8

    def __post_init__(self):
        if self.pop_size < 3:
            raise ValueError(f"pop_size must be >= 3, got {self.pop_size}")
        if not 0.0 <= self.phi <= 1.0:
            raise ValueError(f"phi must lie in [0, 1], got {self.phi}")
        if self.generations_per_epoch < 1:
            raise ValueError("generations_per_epoch must be positive")


@dataclass
class Particle:
    position: np.ndarray
    velocity: np.ndarray
    # Value at the most recent evaluation, None before the first.  A particle
    # moved after evaluation keeps it until the next generation re-evaluates.
    fitness: float | None = None

    def copy(self) -> "Particle":
        return Particle(self.position.copy(), self.velocity.copy(), self.fitness)


@dataclass
class Swarm:
    particles: list[Particle]
    global_best: Particle | None = None
    generation_counter: int = 0
    # Roles assigned in the most recent generation, for instrumentation:
    # dict with keys "winners", "seconds", "losers", "leftovers".
    last_roles: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.particles)

    def positions(self) -> np.ndarray:
        return np.stack([p.position for p in self.particles])


def init_population(bounds: Bounds, config: SwarmConfig,
                    rng: np.random.Generator) -> Swarm:
    """Uniform random positions within bounds, zero velocities."""
    d = bounds.dimension
    particles = []
    for _ in range(config.pop_size):
        pos = rng.uniform(bounds.lower, bounds.upper, size=d)
        particles.append(Particle(pos, np.zeros(d)))
    return Swarm(particles)


def partition_triplets(swarm: Swarm, rng: np.random.Generator
                       ) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Shuffle particle indices and split into triplets plus leftovers.

    Leftover particles (pop_size mod 3) pass to the next generation
    unchanged, mirroring the winner treatment.
    """
    perm = rng.permutation(swarm.size)
    n_trip = swarm.size // 3
    triplets = [tuple(int(i) for i in perm[3 * k:3 * k + 3]) for k in range(n_trip)]
    leftovers = [int(i) for i in perm[3 * n_trip:]]
    return triplets, leftovers


def rank_triplet(indices: tuple[int, int, int],
                 fitness_values: tuple[float, float, float]
                 ) -> tuple[int, int, int]:
    """Order a triplet as (winner, second_best, loser) by ascending fitness.

    Ties break toward the lower particle index.
    """
    for v in fitness_values:
        if not np.isfinite(v):
            raise ValueError(f"non-finite fitness in triplet: {fitness_values}")
    order = sorted(range(3), key=lambda k: (fitness_values[k], indices[k]))
    return indices[order[0]], indices[order[1]], indices[order[2]]


def clamp_to_bounds(position: np.ndarray, velocity: np.ndarray,
                    bounds: Bounds) -> tuple[np.ndarray, np.ndarray]:
    """Clip the position into the box; zero velocity on clipped coordinates."""
    clipped = np.clip(position, bounds.lower, bounds.upper)
    moved = clipped != position
    velocity = np.where(moved, 0.0, velocity)
    return clipped, velocity


def _check_lengths(*vectors: np.ndarray) -> int:
    d = vectors[0].shape[0]
    for v in vectors[1:]:
        if v.shape[0] != d:
            raise ValueError(f"vector length mismatch: {v.shape[0]} != {d}")
    return d


def update_second_best(x_m: np.ndarray, v_m: np.ndarray, x_w: np.ndarray,
                       x_mean: np.ndarray, phi: float, bounds: Bounds,
                       rng: np.random.Generator
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Second-best update: 50% chance of staying put, else learn from the
    triplet winner and the swarm centroid."""
    d = _check_lengths(x_m, v_m, x_w, x_mean)
    if rng.random() >= 0.5:
        return x_m.copy(), v_m.copy()
    r1, r2, r3 = rng.random(d), rng.random(d), rng.random(d)
    v_new = r1 * v_m + r2 * (x_w - x_m) + phi * r3 * (x_mean - x_m)
    return clamp_to_bounds(x_m + v_new, v_new, bounds)


def update_loser(x_l: np.ndarray, v_l: np.ndarray, x_w: np.ndarray,
                 x_best: np.ndarray, phi: float, bounds: Bounds,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Mandatory loser update toward the triplet winner and global best."""
    d = _check_lengths(x_l, v_l, x_w, x_best)
    r1, r2, r3 = rng.random(d), rng.random(d), rng.random(d)
    v_new = r1 * v_l + r2 * (x_w - x_l) + phi * r3 * (x_best - x_l)
    return clamp_to_bounds(x_l + v_new, v_new, bounds)


def _sanitize(value: float, index: int) -> float:
    if not np.isfinite(value):
        log.error("non-finite fitness %r for particle %d; ranking as worst",
                  value, index)
        return _WORST_FITNESS
    return float(value)


def evolve_generation(swarm: Swarm, fitness_fn, config: SwarmConfig,
                      bounds: Bounds, rng: np.random.Generator) -> Swarm:
    """One generation: evaluate, rank triplets, update second-bests/losers.

    The centroid and global best are snapshots taken after evaluation and
    before any update; winners and leftovers are carried verbatim.  All
    random draws happen in a fixed serial order, so evaluation could be
    parallelized without perturbing the trajectory.
    """
    for i, p in enumerate(swarm.particles):
        p.fitness = _sanitize(fitness_fn(p.position), i)

    for p in swarm.particles:
        if swarm.global_best is None or p.fitness < swarm.global_best.fitness:
            swarm.global_best = p.copy()

    x_mean = swarm.positions().mean(axis=0)
    x_best = swarm.global_best.position

    triplets, leftovers = partition_triplets(swarm, rng)
    roles = {"winners": [], "seconds": [], "losers": [], "leftovers": leftovers}
    for trip in triplets:
        fits = tuple(swarm.particles[i].fitness for i in trip)
        w, m, l = rank_triplet(trip, fits)
        roles["winners"].append(w)
        roles["seconds"].append(m)
        roles["losers"].append(l)

        pm = swarm.particles[m]
        pm.position, pm.velocity = update_second_best(
            pm.position, pm.velocity, swarm.particles[w].position,
            x_mean, config.phi, bounds, rng)

        pl = swarm.particles[l]
        pl.position, pl.velocity = update_loser(
            pl.position, pl.velocity, swarm.particles[w].position,
            x_best, config.phi, bounds, rng)

    swarm.last_roles = roles
    swarm.generation_counter += 1
    return swarm

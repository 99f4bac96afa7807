"""Black-box benchmark harness.

Compares the triplet swarm against the classic pairwise baseline and
uniform random search on standard test functions at equal evaluation
budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .swarm import (Bounds, SwarmConfig, evolve_generation, init_population,
                    update_loser)


def sphere(x: np.ndarray) -> float:
    return float(np.dot(x, x))


def rastrigin(x: np.ndarray) -> float:
    return float(10 * x.size + np.sum(x * x - 10 * np.cos(2 * math.pi * x)))


TEST_FUNCTIONS = {"sphere": sphere, "rastrigin": rastrigin}


@dataclass
class BenchResult:
    strategy: str
    best: float
    evaluations: int


def run_triplet_swarm(fn, bounds: Bounds, budget: int, seed: int,
                      config: SwarmConfig | None = None) -> BenchResult:
    """Triplet-competition swarm; one full-population evaluation per
    generation, so generations = budget // pop_size."""
    config = config or SwarmConfig()
    rng = np.random.default_rng(seed)
    swarm = init_population(bounds, config, rng)
    generations = budget // config.pop_size
    for _ in range(generations):
        evolve_generation(swarm, fn, config, bounds, rng)
    return BenchResult("icso", float(swarm.global_best.fitness),
                       generations * config.pop_size)


def run_pairwise_cso(fn, bounds: Bounds, budget: int, seed: int,
                     config: SwarmConfig | None = None) -> BenchResult:
    """Classic competitive swarm: random pairs, winner kept, loser updated
    toward the winner and the swarm centroid."""
    config = config or SwarmConfig()
    rng = np.random.default_rng(seed)
    swarm = init_population(bounds, config, rng)
    generations = budget // config.pop_size
    best = math.inf
    for _ in range(generations):
        for p in swarm.particles:
            p.fitness = fn(p.position)
            best = min(best, p.fitness)
        x_mean = swarm.positions().mean(axis=0)
        perm = rng.permutation(swarm.size)
        for k in range(swarm.size // 2):
            a, b = int(perm[2 * k]), int(perm[2 * k + 1])
            if swarm.particles[b].fitness < swarm.particles[a].fitness:
                a, b = b, a
            loser = swarm.particles[b]
            loser.position, loser.velocity = update_loser(
                loser.position, loser.velocity, swarm.particles[a].position,
                x_mean, config.phi, bounds, rng)
    return BenchResult("cso", best, generations * config.pop_size)


def run_random_search(fn, bounds: Bounds, budget: int, seed: int) -> BenchResult:
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(budget):
        x = rng.uniform(bounds.lower, bounds.upper)
        best = min(best, fn(x))
    return BenchResult("random", best, budget)


def compare_strategies(fn_name: str, dim: int, budget: int, seeds: list[int],
                       low: float = -3.0, high: float = 3.0,
                       config: SwarmConfig | None = None
                       ) -> dict[str, list[float]]:
    """Best-of-run per seed for each strategy, at equal budget."""
    fn = TEST_FUNCTIONS[fn_name]
    bounds = Bounds.cube(dim, low, high)
    results: dict[str, list[float]] = {"icso": [], "cso": [], "random": []}
    for seed in seeds:
        results["icso"].append(run_triplet_swarm(fn, bounds, budget, seed, config).best)
        results["cso"].append(run_pairwise_cso(fn, bounds, budget, seed, config).best)
        results["random"].append(run_random_search(fn, bounds, budget, seed).best)
    return results

"""Black-box benchmark harness.

Compares the triplet swarm against the classic pairwise baseline and
uniform random search on standard test functions at equal evaluation
budgets.
"""

from __future__ import annotations

import math

import numpy as np

from .swarm import (SwarmConfig, evolve_generation, init_population, learn,
                    rank_groups, sanitize_fitness)


def sphere(x: np.ndarray) -> float:
    return float(np.dot(x, x))


def rastrigin(x: np.ndarray) -> float:
    return float(10 * x.size + np.sum(x * x - 10 * np.cos(2 * math.pi * x)))


TEST_FUNCTIONS = {"sphere": sphere, "rastrigin": rastrigin}


def run_triplet_swarm(fn, dim: int, budget: int, seed: int,
                      config: SwarmConfig | None = None) -> float:
    """Triplet-competition swarm; one full-population evaluation per
    generation, so generations = budget // pop_size."""
    config = config or SwarmConfig()
    rng = np.random.default_rng(seed)
    swarm = init_population(dim, config, rng)
    generations = budget // config.pop_size
    for _ in range(generations):
        evolve_generation(swarm, fn, config, rng)
    return swarm.best_fitness


def run_pairwise_cso(fn, dim: int, budget: int, seed: int,
                     config: SwarmConfig | None = None) -> float:
    """Classic competitive swarm: random pairs, winner kept, loser updated
    toward the winner and the swarm centroid.  Each loser's r1, r2, r3 are
    drawn in pair order, and one ``learn`` call moves all the losers."""
    config = config or SwarmConfig()
    rng = np.random.default_rng(seed)
    swarm = init_population(dim, config, rng)
    generations = budget // config.pop_size
    best = math.inf
    for _ in range(generations):
        swarm.fitness[:] = sanitize_fitness([fn(x) for x in swarm.positions])
        best = min(best, float(swarm.fitness.min()))
        x_mean = swarm.positions.mean(axis=0)
        perm = rng.permutation(swarm.size)
        pairs = perm[:2 * (swarm.size // 2)].reshape(-1, 2)
        winners, losers = rank_groups(pairs, swarm.fitness).T
        r = rng.random((len(losers), 3, dim))
        swarm.positions[losers], swarm.velocities[losers] = learn(
            swarm.positions[losers], swarm.velocities[losers],
            swarm.positions[winners], x_mean, r, config.phi,
            config.swarm_bound)
    return best


def run_random_search(fn, dim: int, budget: int, seed: int,
                      bound: float) -> float:
    """Uniform samples from the cube [-bound, bound]^dim."""
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(budget):
        x = rng.uniform(-bound, bound, dim)
        best = min(best, fn(x))
    return best


def compare_strategies(fn_name: str, dim: int, budget: int, seeds: list[int],
                       config: SwarmConfig | None = None
                       ) -> dict[str, list[float]]:
    """Best-of-run per seed for each strategy, at equal budget, all in the
    cube [-config.swarm_bound, config.swarm_bound]^dim."""
    fn = TEST_FUNCTIONS[fn_name]
    config = config or SwarmConfig()
    results: dict[str, list[float]] = {"icso": [], "cso": [], "random": []}
    for seed in seeds:
        results["icso"].append(run_triplet_swarm(fn, dim, budget, seed, config))
        results["cso"].append(run_pairwise_cso(fn, dim, budget, seed, config))
        results["random"].append(run_random_search(fn, dim, budget, seed,
                                                   config.swarm_bound))
    return results

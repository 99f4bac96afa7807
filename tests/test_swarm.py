"""Unit and property tests for the triplet-competition swarm."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridnas.swarm import (Bounds, SwarmConfig, clamp_to_bounds,
                             evolve_generation, init_population,
                             partition_triplets, rank_triplet, update_loser,
                             update_second_best)


class ForcedRng:
    """Deterministic stand-in for a Generator: scalar draws return ``coin``,
    vector draws return a constant array."""

    def __init__(self, coin=0.0, r=1.0):
        self.coin = coin
        self.r = r

    def random(self, size=None):
        if size is None:
            return self.coin
        return np.full(size, self.r)


WIDE = Bounds.cube(1, -10.0, 10.0)


# ---------------------------------------------------------------- bounds

def test_bounds_cube_shapes():
    b = Bounds.cube(4, -3.0, 3.0)
    assert b.dimension == 4
    assert np.all(b.lower == -3.0) and np.all(b.upper == 3.0)


def test_bounds_invalid_names_dimension():
    with pytest.raises(ValueError, match="dimension 1"):
        Bounds(np.array([0.0, 2.0]), np.array([1.0, 2.0]))


def test_config_validation():
    with pytest.raises(ValueError, match="pop_size"):
        SwarmConfig(pop_size=2)
    with pytest.raises(ValueError, match="phi"):
        SwarmConfig(phi=1.5)


# ---------------------------------------------------------------- partitioning

def test_pop60_gives_20_triplets_no_leftovers():
    swarm = init_population(Bounds.cube(3, -1, 1), SwarmConfig(pop_size=60),
                            np.random.default_rng(0))
    triplets, leftovers = partition_triplets(swarm, np.random.default_rng(1))
    assert len(triplets) == 20
    assert leftovers == []
    seen = sorted(i for t in triplets for i in t)
    assert seen == list(range(60))


def test_pop3_single_triplet_covers_all():
    swarm = init_population(Bounds.cube(2, -1, 1), SwarmConfig(pop_size=3),
                            np.random.default_rng(0))
    triplets, leftovers = partition_triplets(swarm, np.random.default_rng(7))
    assert len(triplets) == 1 and leftovers == []
    assert sorted(triplets[0]) == [0, 1, 2]


def test_leftovers_pop_not_divisible():
    swarm = init_population(Bounds.cube(2, -1, 1), SwarmConfig(pop_size=5),
                            np.random.default_rng(0))
    triplets, leftovers = partition_triplets(swarm, np.random.default_rng(7))
    assert len(triplets) == 1 and len(leftovers) == 2


# ---------------------------------------------------------------- ranking

def test_rank_triplet_orders_by_fitness():
    assert rank_triplet((4, 7, 9), (0.5, 0.1, 0.3)) == (7, 9, 4)


def test_rank_triplet_ties_go_low_index():
    assert rank_triplet((9, 2, 5), (1.0, 1.0, 1.0)) == (2, 5, 9)


def test_rank_triplet_nan_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        rank_triplet((0, 1, 2), (0.1, float("nan"), 0.3))


@given(st.permutations([0, 1, 2]),
       st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3, unique=True))
def test_rank_triplet_is_sorted_permutation(order, fits):
    idx = (10 + order[0], 10 + order[1], 10 + order[2])
    w, m, l = rank_triplet(idx, tuple(fits))
    assert sorted((w, m, l)) == sorted(idx)
    by = {i: f for i, f in zip(idx, fits)}
    assert by[w] <= by[m] <= by[l]


# ---------------------------------------------------------------- clamping

def test_clamp_inside_unchanged():
    pos, vel = clamp_to_bounds(np.array([0.5]), np.array([2.0]), WIDE)
    assert pos[0] == 0.5 and vel[0] == 2.0


def test_clamp_on_boundary_keeps_velocity():
    b = Bounds.cube(1, -1.0, 1.0)
    pos, vel = clamp_to_bounds(np.array([1.0]), np.array([3.0]), b)
    assert pos[0] == 1.0 and vel[0] == 3.0


def test_clamp_outside_clips_and_zeros_velocity():
    b = Bounds.cube(2, -1.0, 1.0)
    pos, vel = clamp_to_bounds(np.array([2.0, 0.0]), np.array([5.0, 5.0]), b)
    assert pos.tolist() == [1.0, 0.0]
    assert vel.tolist() == [0.0, 5.0]


@given(st.lists(st.floats(-100, 100), min_size=3, max_size=3),
       st.lists(st.floats(-100, 100), min_size=3, max_size=3))
def test_clamp_always_within_bounds(p, v):
    b = Bounds.cube(3, -2.0, 2.0)
    pos, _ = clamp_to_bounds(np.array(p), np.array(v), b)
    assert np.all(pos >= b.lower) and np.all(pos <= b.upper)


# ---------------------------------------------------------------- updates

def test_second_best_forced_update_value():
    # x_m=0, x_w=1, x_mean=1, v=0, phi=0.15, all randoms forced to 1:
    # v' = 1*(1-0) + 0.15*1*(1-0) = 1.15, x' = 1.15
    pos, vel = update_second_best(np.zeros(1), np.zeros(1), np.ones(1),
                                  np.ones(1), 0.15, WIDE, ForcedRng(coin=0.0))
    assert vel[0] == pytest.approx(1.15, abs=1e-15)
    assert pos[0] == pytest.approx(1.15, abs=1e-15)


def test_second_best_skips_with_probability_half():
    x = np.array([0.3])
    v = np.array([0.7])
    pos, vel = update_second_best(x, v, np.ones(1), np.ones(1), 0.15, WIDE,
                                  ForcedRng(coin=0.9))
    assert pos[0] == 0.3 and vel[0] == 0.7
    assert pos is not x and vel is not v  # fresh copies, no aliasing


def test_loser_forced_update_value():
    # x_l=0, x_w=2, x_best=4, v=0, phi=0.15, randoms 1: v' = 2 + 0.6 = 2.6
    pos, vel = update_loser(np.zeros(1), np.zeros(1), np.full(1, 2.0),
                            np.full(1, 4.0), 0.15, WIDE, ForcedRng())
    assert vel[0] == pytest.approx(2.6, abs=1e-15)
    assert pos[0] == pytest.approx(2.6, abs=1e-15)


def test_loser_noop_when_all_points_coincide():
    x = np.full(3, 0.5)
    pos, vel = update_loser(x, np.zeros(3), x.copy(), x.copy(), 0.15,
                            Bounds.cube(3, -1, 1), ForcedRng())
    assert np.array_equal(pos, x) and np.all(vel == 0.0)


def test_update_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        update_loser(np.zeros(2), np.zeros(2), np.zeros(3), np.zeros(2),
                     0.15, Bounds.cube(2, -1, 1), ForcedRng())


# ---------------------------------------------------------------- evolution

def sphere(x):
    return float(np.dot(x, x))


def test_constant_fitness_keeps_winners_unchanged():
    cfg = SwarmConfig(pop_size=9)
    b = Bounds.cube(4, -3, 3)
    rng = np.random.default_rng(5)
    swarm = init_population(b, cfg, rng)
    before = [p.position.copy() for p in swarm.particles]
    evolve_generation(swarm, lambda x: 1.0, cfg, b, rng)
    for trip_w in swarm.last_roles["winners"]:
        assert np.array_equal(swarm.particles[trip_w].position, before[trip_w])
    # tie rule: winner is the lowest index in each triplet
    for w, m, l in zip(swarm.last_roles["winners"], swarm.last_roles["seconds"],
                       swarm.last_roles["losers"]):
        assert w == min(w, m, l)


def test_nonfinite_fitness_ranks_worst_and_logs(caplog):
    cfg = SwarmConfig(pop_size=3)
    b = Bounds.cube(2, -3, 3)
    rng = np.random.default_rng(0)
    swarm = init_population(b, cfg, rng)

    def fn(x):
        return math.nan if x is swarm.particles[0].position else sphere(x)

    with caplog.at_level("ERROR"):
        evolve_generation(swarm, fn, cfg, b, rng)
    assert any("non-finite" in r.message for r in caplog.records)
    assert np.isfinite(swarm.global_best.fitness)


def test_global_best_monotone_and_counter():
    cfg = SwarmConfig(pop_size=12)
    b = Bounds.cube(6, -3, 3)
    rng = np.random.default_rng(11)
    swarm = init_population(b, cfg, rng)
    last = math.inf
    for _ in range(20):
        evolve_generation(swarm, sphere, cfg, b, rng)
        assert swarm.global_best.fitness <= last
        last = swarm.global_best.fitness
    assert swarm.generation_counter == 20


def test_positions_stay_in_bounds_across_generations():
    cfg = SwarmConfig(pop_size=10)
    b = Bounds.cube(5, -2, 2)
    rng = np.random.default_rng(2)
    swarm = init_population(b, cfg, rng)
    for _ in range(15):
        evolve_generation(swarm, sphere, cfg, b, rng)
        pos = swarm.positions()
        assert np.all(pos >= b.lower) and np.all(pos <= b.upper)


def test_eight_generations_improve_on_sphere_most_seeds():
    cfg = SwarmConfig(pop_size=60)
    b = Bounds.cube(10, -3, 3)
    improved = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        swarm = init_population(b, cfg, rng)
        gen0 = min(sphere(p.position) for p in swarm.particles)
        for _ in range(8):
            evolve_generation(swarm, sphere, cfg, b, rng)
        if swarm.global_best.fitness < gen0:
            improved += 1
    assert improved >= 9


def test_evolution_deterministic_for_fixed_seed():
    cfg = SwarmConfig(pop_size=9)
    b = Bounds.cube(3, -3, 3)

    def run():
        rng = np.random.default_rng(42)
        swarm = init_population(b, cfg, rng)
        for _ in range(5):
            evolve_generation(swarm, sphere, cfg, b, rng)
        return swarm.positions(), swarm.global_best.fitness

    p1, f1 = run()
    p2, f2 = run()
    assert np.array_equal(p1, p2) and f1 == f2


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=20), st.integers(0, 1000))
def test_partition_is_always_a_partition(pop, seed):
    swarm = init_population(Bounds.cube(2, -1, 1), SwarmConfig(pop_size=pop),
                            np.random.default_rng(0))
    triplets, leftovers = partition_triplets(swarm, np.random.default_rng(seed))
    flat = [i for t in triplets for i in t] + leftovers
    assert sorted(flat) == list(range(pop))
    assert len(leftovers) == pop % 3

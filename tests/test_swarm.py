"""Unit and property tests for the triplet-competition swarm."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridnas.bench import run_pairwise_cso
from hybridnas.swarm import (_WORST_FITNESS, SwarmConfig, clamp_to_bounds,
                             evolve_generation, init_population, rank_groups,
                             sanitize_fitness, update_loser,
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


WIDE = 10.0


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError, match="pop_size"):
        SwarmConfig(pop_size=2)
    with pytest.raises(ValueError, match="phi"):
        SwarmConfig(phi=1.5)
    for bound in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="swarm_bound"):
            SwarmConfig(swarm_bound=bound)


# ---------------------------------------------------------------- partitioning

def roles_of_one_generation(pop, seed=1):
    cfg = SwarmConfig(pop_size=pop, swarm_bound=1.0)
    swarm = init_population(2, cfg, np.random.default_rng(0))
    return evolve_generation(swarm, lambda x: float(np.dot(x, x)), cfg,
                             np.random.default_rng(seed))


def test_pop60_gives_20_triplets_no_leftovers():
    roles = roles_of_one_generation(60)
    assert len(roles["winners"]) == 20
    assert roles["leftovers"] == []
    seen = sorted(roles["winners"] + roles["seconds"] + roles["losers"])
    assert seen == list(range(60))


def test_pop3_single_triplet_covers_all():
    roles = roles_of_one_generation(3, seed=7)
    assert roles["leftovers"] == []
    assert sorted(roles["winners"] + roles["seconds"] + roles["losers"]) == [0, 1, 2]


def test_leftovers_pop_not_divisible():
    roles = roles_of_one_generation(5, seed=7)
    assert len(roles["winners"]) == 1 and len(roles["leftovers"]) == 2


# ---------------------------------------------------------------- ranking

def test_rank_groups_orders_by_fitness():
    fitness = np.zeros(10)
    fitness[[4, 7, 9]] = [0.5, 0.1, 0.3]
    assert rank_groups(np.array([[4, 7, 9]]), fitness).tolist() == [[7, 9, 4]]


def test_rank_groups_ties_go_low_index():
    ranked = rank_groups(np.array([[9, 2, 5]]), np.ones(10))
    assert ranked.tolist() == [[2, 5, 9]]
    pairs = np.array([[3, 1], [0, 2], [5, 4]])
    assert rank_groups(pairs, np.ones(6)).tolist() == [[1, 3], [0, 2], [4, 5]]


@given(st.permutations(range(6)), st.sampled_from([2, 3]),
       st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6, unique=True))
def test_rank_groups_is_sorted_permutation(order, k, fits):
    fitness = np.array(fits)
    groups = np.array(order).reshape(-1, k)
    ranked = rank_groups(groups, fitness)
    assert np.array_equal(np.sort(ranked, axis=1), np.sort(groups, axis=1))
    assert np.all(np.diff(fitness[ranked], axis=1) >= 0)


def test_pairwise_cso_ties_move_higher_index():
    # On a constant function every pair ties: the lower index wins, so only
    # the higher-index particle of each pair moves.
    cfg = SwarmConfig(pop_size=8)
    rng = np.random.default_rng(4)
    start = init_population(3, cfg, rng).positions
    # The run draws its first pairs right after the initial positions.
    pairs = rng.permutation(cfg.pop_size).reshape(-1, 2)
    evaluated = []

    def constant(x):
        evaluated.append(x.copy())
        return 1.0

    run_pairwise_cso(constant, 3, 2 * cfg.pop_size, 4, cfg)
    moved = np.nonzero(np.any(np.array(evaluated[cfg.pop_size:]) != start, axis=1))[0]
    assert moved.tolist() == sorted(pairs.max(axis=1).tolist())


def test_pairwise_cso_survives_nonfinite_fitness(caplog):
    # Every sixth evaluation is NaN.  Like the triplet swarm, the baseline
    # logs it and ranks it last, so the best value found stays finite.
    calls = []

    def flaky_sphere(x):
        calls.append(1)
        return math.nan if len(calls) % 6 == 0 else sphere(x)

    with caplog.at_level("ERROR"):
        best = run_pairwise_cso(flaky_sphere, 3, 600, 0, SwarmConfig(pop_size=6))
    assert any("non-finite" in r.message for r in caplog.records)
    assert best < 1e-3


# ---------------------------------------------------------------- clamping

def test_clamp_inside_unchanged():
    pos, vel = clamp_to_bounds(np.array([0.5]), np.array([2.0]), WIDE)
    assert pos[0] == 0.5 and vel[0] == 2.0


def test_clamp_on_boundary_keeps_velocity():
    pos, vel = clamp_to_bounds(np.array([1.0]), np.array([3.0]), 1.0)
    assert pos[0] == 1.0 and vel[0] == 3.0


def test_clamp_outside_clips_and_zeros_velocity():
    pos, vel = clamp_to_bounds(np.array([2.0, 0.0]), np.array([5.0, 5.0]), 1.0)
    assert pos.tolist() == [1.0, 0.0]
    assert vel.tolist() == [0.0, 5.0]


@given(st.lists(st.floats(-100, 100), min_size=3, max_size=3),
       st.lists(st.floats(-100, 100), min_size=3, max_size=3))
def test_clamp_always_within_bounds(p, v):
    pos, _ = clamp_to_bounds(np.array(p), np.array(v), 2.0)
    assert np.all(np.abs(pos) <= 2.0)


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
    pos, vel = update_loser(x, np.zeros(3), x.copy(), x.copy(), 0.15, 1.0,
                            ForcedRng())
    assert np.array_equal(pos, x) and np.all(vel == 0.0)


def test_update_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        update_loser(np.zeros(2), np.zeros(2), np.zeros(3), np.zeros(2),
                     0.15, 1.0, ForcedRng())


# ---------------------------------------------------------------- evolution

def sphere(x):
    return float(np.dot(x, x))


def test_constant_fitness_keeps_winners_unchanged():
    cfg = SwarmConfig(pop_size=9)
    rng = np.random.default_rng(5)
    swarm = init_population(4, cfg, rng)
    before = swarm.positions.copy()
    roles = evolve_generation(swarm, lambda x: 1.0, cfg, rng)
    for trip_w in roles["winners"]:
        assert np.array_equal(swarm.positions[trip_w], before[trip_w])
    # tie rule: winner is the lowest index in each triplet
    for w, m, l in zip(roles["winners"], roles["seconds"], roles["losers"]):
        assert w == min(w, m, l)


def test_nonfinite_fitness_ranks_worst_and_logs(caplog):
    cfg = SwarmConfig(pop_size=3)
    rng = np.random.default_rng(0)
    swarm = init_population(2, cfg, rng)
    first = swarm.positions[0].copy()

    def fn(x):
        return math.nan if np.array_equal(x, first) else sphere(x)

    with caplog.at_level("ERROR"):
        evolve_generation(swarm, fn, cfg, rng)
    assert any("non-finite" in r.message for r in caplog.records)
    assert np.isfinite(swarm.best_fitness)


def test_best_fitness_monotone():
    cfg = SwarmConfig(pop_size=12)
    rng = np.random.default_rng(11)
    swarm = init_population(6, cfg, rng)
    last = math.inf
    for _ in range(20):
        evolve_generation(swarm, sphere, cfg, rng)
        assert swarm.best_fitness <= last
        last = swarm.best_fitness


def test_positions_stay_in_bounds_across_generations():
    cfg = SwarmConfig(pop_size=10, swarm_bound=2.0)
    rng = np.random.default_rng(2)
    swarm = init_population(5, cfg, rng)
    for _ in range(15):
        evolve_generation(swarm, sphere, cfg, rng)
        pos = swarm.positions
        assert np.all(np.abs(pos) <= cfg.swarm_bound)


def test_eight_generations_improve_on_sphere_most_seeds():
    cfg = SwarmConfig(pop_size=60)
    improved = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        swarm = init_population(10, cfg, rng)
        gen0 = min(sphere(x) for x in swarm.positions)
        for _ in range(8):
            evolve_generation(swarm, sphere, cfg, rng)
        if swarm.best_fitness < gen0:
            improved += 1
    assert improved >= 9


def test_evolution_deterministic_for_fixed_seed():
    cfg = SwarmConfig(pop_size=9)

    def run():
        rng = np.random.default_rng(42)
        swarm = init_population(3, cfg, rng)
        for _ in range(5):
            evolve_generation(swarm, sphere, cfg, rng)
        return swarm.positions, swarm.best_fitness

    p1, f1 = run()
    p2, f2 = run()
    assert np.array_equal(p1, p2) and f1 == f2


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=20), st.integers(0, 1000))
def test_partition_is_always_a_partition(pop, seed):
    roles = roles_of_one_generation(pop, seed)
    flat = roles["winners"] + roles["seconds"] + roles["losers"] + roles["leftovers"]
    assert sorted(flat) == list(range(pop))
    assert len(roles["leftovers"]) == pop % 3


# ---------------------------------------------------------------- block step

def per_row_generation(swarm, fitness_fn, config, rng):
    """Reference: the generation loop that moved one particle at a time,
    drawing r1, r2, r3 as three vectors per move."""
    b = config.swarm_bound

    def learn_row(x, v, x_w, x_ref):
        d = x.shape[0]
        r1, r2, r3 = rng.random(d), rng.random(d), rng.random(d)
        v_new = r1 * v + r2 * (x_w - x) + config.phi * r3 * (x_ref - x)
        x_new = x + v_new
        clipped = np.clip(x_new, -b, b)
        return clipped, np.where(clipped != x_new, 0.0, v_new)

    values = []
    for i, x in enumerate(swarm.positions):
        value = fitness_fn(x)
        if not np.isfinite(value):
            logging.getLogger("reference").error(
                "non-finite fitness %r for particle %d; ranking as worst",
                value, i)
            value = 1e300
        values.append(float(value))
    swarm.fitness[:] = values

    best = int(np.argmin(swarm.fitness))
    if swarm.fitness[best] < swarm.best_fitness:
        swarm.best_position = swarm.positions[best].copy()
        swarm.best_fitness = float(swarm.fitness[best])
    x_mean = swarm.positions.mean(axis=0)
    x_best = swarm.best_position

    perm = rng.permutation(swarm.size)
    n_grouped = 3 * (swarm.size // 3)
    ranked = rank_groups(perm[:n_grouped].reshape(-1, 3), swarm.fitness)
    pos, vel = swarm.positions, swarm.velocities
    moved = []
    for w, m, l in ranked.tolist():
        if rng.random() < 0.5:
            pos[m], vel[m] = learn_row(pos[m], vel[m], pos[w], x_mean)
            moved.append(m)
        pos[l], vel[l] = learn_row(pos[l], vel[l], pos[w], x_best)
        moved.append(l)
    winners, seconds, losers = ranked.T.tolist()
    return {"winners": winners, "seconds": seconds, "losers": losers,
            "leftovers": perm[n_grouped:].tolist(), "moved": moved}


def shifted_sphere_with_one_nan(nan_call):
    # The minimum at 0.5 lies outside a cube of bound below 0.5, so the
    # swarm presses against its faces and clamping fires.
    calls = []

    def fn(x):
        calls.append(1)
        return math.nan if len(calls) == nan_call else sphere(x - 0.5)
    return fn


@pytest.mark.parametrize("bound", [3.0, 0.05])
@pytest.mark.parametrize("pop", [3, 10, 60])
@pytest.mark.parametrize("dim", [1, 30, 50])
def test_block_step_matches_per_row_reference(dim, pop, bound, caplog):
    # Same seed, same swarm: the block step must reproduce the per-row loop
    # bit for bit, including the generator's state after every generation.
    # The second generation's second particle evaluates to NaN.
    cfg = SwarmConfig(pop_size=pop, swarm_bound=bound)
    sides = []
    for step in (evolve_generation, per_row_generation):
        rng = np.random.default_rng(1000 * dim + pop)
        sides.append((step, init_population(dim, cfg, rng), rng,
                      shifted_sphere_with_one_nan(pop + 2)))
    (_, a, rng_a, _), (_, b, rng_b, _) = sides
    clamped = False
    for _ in range(16):
        out = []
        for step, swarm, rng, fn in sides:
            caplog.clear()
            with caplog.at_level("ERROR"):
                roles = step(swarm, fn, cfg, rng)
            out.append((roles, [r.getMessage() for r in caplog.records]))
        assert out[0] == out[1]
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.velocities.tobytes() == b.velocities.tobytes()
        assert a.fitness.tobytes() == b.fitness.tobytes()
        assert a.best_position.tobytes() == b.best_position.tobytes()
        assert a.best_fitness == b.best_fitness
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        clamped |= bool(np.any(np.abs(a.positions) == bound))
    assert clamped or bound > 0.5


class CoinLog:
    """A Generator stand-in that records every scalar draw (the coins)."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.coins = []

    def permutation(self, n):
        return self.rng.permutation(n)

    def random(self, size=None):
        out = self.rng.random(size)
        if size is None:
            self.coins.append(out)
        return out


@pytest.mark.parametrize("pop", [3, 10, 60])
def test_moved_is_losers_and_fired_seconds(pop):
    cfg = SwarmConfig(pop_size=pop)
    swarm = init_population(5, cfg, np.random.default_rng(0))
    fired = kept = 0
    for seed in range(6):
        rng = CoinLog(seed)
        x0, v0 = swarm.positions.copy(), swarm.velocities.copy()
        roles = evolve_generation(swarm, sphere, cfg, rng)
        assert len(rng.coins) == len(roles["losers"])
        expected = []
        for m, l, coin in zip(roles["seconds"], roles["losers"], rng.coins):
            expected += [m, l] if coin < 0.5 else [l]
            fired, kept = fired + (coin < 0.5), kept + (coin >= 0.5)
        assert roles["moved"] == expected
        still = np.setdiff1d(np.arange(pop), roles["moved"])
        assert swarm.positions[still].tobytes() == x0[still].tobytes()
        assert swarm.velocities[still].tobytes() == v0[still].tobytes()
    assert fired and kept


def test_sanitize_fitness_keeps_finite_and_ranks_nonfinite_worst(caplog):
    values = [0.5, math.nan, -0.0, math.inf, 5e-324, -math.inf,
              np.float32(0.1), -1e308]
    with caplog.at_level("ERROR"):
        fitness = sanitize_fitness(values)
    assert fitness.dtype == np.float64
    finite = [0, 2, 4, 6, 7]
    assert (fitness[finite].tobytes()
            == np.array([float(values[i]) for i in finite]).tobytes())
    assert fitness[[1, 3, 5]].tolist() == [_WORST_FITNESS] * 3
    assert fitness.argmax() == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"non-finite fitness {v} for particle {i}; ranking as worst"
        for i, v in ((1, "nan"), (3, "inf"), (5, "-inf"))]

"""Unit and property tests for fitness components and the history archive."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridnas.fitness import (FitnessWeights, HistoryArchive, base_fitness,
                               combined_fitness, entropy_diversity,
                               swarm_diversity, update_history)
from hybridnas.supernet import ArchLayout, decode, discretize, op_frequencies
from hybridnas.swarm import SwarmConfig, init_population


# ---------------------------------------------------------------- base

def test_base_at_bounds():
    assert base_fitness(2.5, 2.5) == 1.0
    assert base_fitness(0.0, 2.5) == 0.0
    assert base_fitness(1.25, 2.5) == 0.5


def test_base_clamps_outside():
    assert base_fitness(-3.0, 1.0) == 0.0
    assert base_fitness(7.0, 1.0) == 1.0


def test_base_rejects_nonfinite_loss():
    with pytest.raises(ValueError, match="finite"):
        base_fitness(math.inf, 1.0)


@given(st.floats(-100, 100))
def test_base_always_in_unit_interval(loss):
    v = base_fitness(loss, 2.0)
    assert 0.0 <= v <= 1.0


@given(st.floats(-1, 3), st.floats(-1, 3))
def test_base_monotone_in_loss(a, b):
    lo, hi = min(a, b), max(a, b)
    assert base_fitness(lo, 2.0) <= base_fitness(hi, 2.0)


# ---------------------------------------------------------------- swarm diversity

def test_empty_history_is_maximally_novel():
    h = HistoryArchive(dimension=3)
    assert swarm_diversity(np.zeros(3), h) == 1.0


def test_position_in_history_has_zero_diversity():
    h = HistoryArchive(dimension=3)
    x = np.array([1.0, -2.0, 0.5])
    h.add(x)
    assert swarm_diversity(x, h) == 0.0


def test_swarm_diversity_derived_value():
    # D=4, x=(1,1,1,1), nearest (0,0,0,0): tanh(2/2) = tanh(1)
    h = HistoryArchive(dimension=4)
    h.add(np.zeros(4))
    h.add(np.full(4, 10.0))
    got = swarm_diversity(np.ones(4), h)
    assert got == pytest.approx(0.7615941559557649, abs=1e-12)


def test_swarm_diversity_uses_nearest_entry():
    h = HistoryArchive(dimension=2)
    h.add(np.array([5.0, 5.0]))
    h.add(np.array([0.1, 0.0]))
    near = swarm_diversity(np.zeros(2), h)
    assert near == pytest.approx(math.tanh(0.1 / math.sqrt(2)), abs=1e-12)


def test_swarm_diversity_dimension_check():
    h = HistoryArchive(dimension=3)
    h.add(np.zeros(3))
    with pytest.raises(ValueError, match="dimension"):
        swarm_diversity(np.zeros(4), h)


@pytest.mark.parametrize("bad", [5.0, np.zeros((1, 3))], ids=["scalar", "row"])
def test_position_shape_errors_name_the_shape(bad):
    h = HistoryArchive(dimension=3)
    h.add(np.zeros(3))
    message = re.escape(f"shape {np.shape(bad)}, expected (3,)")
    with pytest.raises(ValueError, match=message):
        swarm_diversity(bad, h)
    with pytest.raises(ValueError, match=message):
        h.add(bad)
    assert len(h) == 1


def test_swarm_diversity_matches_rowwise_reference():
    # Compares with == against the per-row norm over the archive, oldest
    # first, while the archive fills from one row to past its capacity.
    def rowwise(x, entries):
        d_min = min(float(np.linalg.norm(x - e)) for e in entries)
        return math.tanh(d_min / math.sqrt(len(x)))

    bound, capacity = 3.0, 25
    for dim in (3, 30, 50):
        rng = np.random.default_rng(dim)
        h = HistoryArchive(dimension=dim, capacity=capacity)
        for step in range(2 * capacity + 7):
            kind = step % 4
            if kind == 0 or not len(h):
                row = np.clip(rng.normal(0.0, 2.5, dim), -bound, bound)
            elif kind == 1:      # exact duplicate of an archive row
                row = h.entries[rng.integers(len(h))]
            elif kind == 2:      # near-tie with an archive row
                row = h.entries[rng.integers(len(h))] + 1e-12 * rng.standard_normal(dim)
            else:                # every coordinate on the box's faces
                row = bound * rng.choice([-1.0, 1.0], dim)
            h.add(row)
            entries = h.entries
            picked = entries[rng.integers(len(h))]
            queries = [np.clip(rng.normal(0.0, 2.5, dim), -bound, bound),
                       picked,
                       picked + 1e-12 * rng.standard_normal(dim),
                       np.clip(picked + rng.normal(0.0, 5.0, dim), -bound, bound)]
            for x in queries:
                assert swarm_diversity(x, h) == rowwise(x, entries), (dim, step)
        # Permuted copies of one row are equidistant from a constant x, so only
        # rounding tells them apart: the screen must keep every one of them.
        for trial in range(60):
            row = np.clip(rng.normal(0.0, 2.5, dim), -bound, bound)
            h = HistoryArchive(dimension=dim, capacity=capacity)
            for _ in range(capacity):
                h.add(rng.permutation(row))
            x = np.full(dim, rng.uniform(-bound, bound))
            assert swarm_diversity(x, h) == rowwise(x, h.entries), (dim, trial)


def _rowwise(x, entries):
    d_min = min(float(np.linalg.norm(x - e)) for e in entries)
    return math.tanh(d_min / math.sqrt(len(x)))


@pytest.mark.parametrize("offset", [1e3, 1e4])
def test_swarm_diversity_screen_survives_cancellation(offset):
    # Rows and queries share a large offset and differ by 1e-3 down to 1e-7,
    # so |r|^2 - 2 r.x cancels most of its digits; the screen's margin must
    # still keep the nearest row.  Compared with == against the per-row norm.
    capacity = 25
    for dim in (3, 30, 50):
        rng = np.random.default_rng(dim)
        for scale in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
            h = HistoryArchive(dimension=dim, capacity=capacity)
            spread = scale * rng.standard_normal(dim)
            for step in range(capacity + 7):
                kind = step % 3
                if kind == 0 or not len(h):
                    row = offset + scale * rng.standard_normal(dim)
                elif kind == 1:      # exact duplicate of an archive row
                    row = h.entries[rng.integers(len(h))]
                else:                # permuted copy of one shared row
                    row = offset + rng.permutation(spread)
                h.add(row)
            picked = h.entries[rng.integers(len(h))]
            queries = [offset + scale * rng.standard_normal(dim),
                       picked,
                       picked + 0.1 * scale * rng.standard_normal(dim),
                       np.full(dim, offset + scale * rng.standard_normal())]
            for x in queries:
                assert swarm_diversity(x, h) == _rowwise(x, h.entries), (dim, scale)


def test_swarm_diversity_non_finite_and_empty():
    h = HistoryArchive(dimension=4)
    assert swarm_diversity(np.array([0.5, 1.0, -1.0, 2.0]), h) == 1.0
    with pytest.raises(ValueError, match="position coordinate 0 is nan"):
        swarm_diversity(np.full(4, np.nan), h)
    rng = np.random.default_rng(0)
    for _ in range(10):
        h.add(rng.uniform(-3.0, 3.0, 4))
    for bad in (np.nan, np.inf, -np.inf):
        x = np.array([0.5, bad, -1.0, 2.0])
        with pytest.raises(ValueError, match=f"position coordinate 1 is {bad}"):
            swarm_diversity(x, h)
    x = np.array([np.inf, -np.inf, 0.0, 0.0])   # rows @ x would mix inf and -inf
    with pytest.raises(ValueError, match="position coordinate 0 is inf"):
        swarm_diversity(x, h)


def test_history_norms_follow_their_rows():
    capacity = 7
    h = HistoryArchive(dimension=5, capacity=capacity)
    rng = np.random.default_rng(3)
    for _ in range(3 * capacity):
        h.add(rng.normal(0.0, 10.0, 5))
        n = len(h)
        assert all(h.norms[i] == h.rows[i].dot(h.rows[i]) for i in range(n))
    assert len(h) == capacity


def test_history_norm_max_follows_norms():
    # add caches the largest filled norm.  The script evicts the row that
    # held the maximum; a NaN row and an inf row are rejected on the way.
    # swarm_diversity is compared with == against the per-row norm.
    capacity, dim = 4, 5
    rng = np.random.default_rng(7)
    h = HistoryArchive(dimension=dim, capacity=capacity)
    big = np.full(dim, 9.0)
    nan_row = np.array([0.5, np.nan, -1.0, 2.0, 0.0])
    inf_row = np.array([0.5, np.inf, -1.0, 2.0, 0.0])
    script = ([big] + [rng.uniform(-1.0, 1.0, dim) for _ in range(capacity)]
              + [nan_row] + [rng.uniform(-2.0, 2.0, dim) for _ in range(capacity)]
              + [inf_row] + [rng.uniform(-3.0, 3.0, dim) for _ in range(capacity)])
    maxima = []
    for row in script:
        if not np.isfinite(row).all():
            with pytest.raises(ValueError, match="archive row coordinate 1 is"):
                h.add(row)
            continue
        h.add(row)
        n = len(h)
        assert h.norm_max == float(h.norms[:n].max())
        maxima.append(h.norm_max)
        for x in (rng.uniform(-3.0, 3.0, dim), h.rows[rng.integers(n)]):
            assert swarm_diversity(x, h) == _rowwise(x, h.entries)
        with pytest.raises(ValueError, match="too large"):   # scale 5e302
            swarm_diversity(np.full(dim, 1e151), h)
    assert len(maxima) == len(script) - 2
    assert maxima[0] == maxima[capacity - 1] == 9.0 * 9.0 * dim
    assert maxima[capacity] < 9.0 * 9.0 * dim             # big evicted


def test_rejected_add_leaves_archive_unchanged():
    h = HistoryArchive(dimension=3, capacity=3)
    for row, match in (([0.5, np.nan, 0.0], "coordinate 1 is nan"),
                       ([np.inf, 0.0, 0.0], "coordinate 0 is inf"),
                       (np.full(3, 1e151), re.escape("|row|^2 = 3e+302"))):
        with pytest.raises(ValueError, match=match):
            h.add(np.array(row))
        assert (len(h), h.added, h.norm_max) == (0, 0, -math.inf)
    rng = np.random.default_rng(5)
    for _ in range(4):   # full, so the next add would evict a row
        h.add(rng.uniform(-1.0, 1.0, 3))
    before = (h.rows.copy(), h.norms.copy(), h.norm_max, h.added, h.entries)
    for row in ([0.5, np.nan, 0.0], [-np.inf, 0.0, 0.0], np.full(3, 1e151)):
        with pytest.raises(ValueError, match="archive row"):
            h.add(np.array(row))
        after = (h.rows, h.norms, h.norm_max, h.added, h.entries)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_nan_archive_row_rejected_in_either_order():
    # Scored by Python's min in storage order, a NaN row once gave NaN or
    # 0.4621 for the same three rows, depending on the write pointer.
    x = np.full(3, 0.5)
    nan_row, ones, zeros = np.array([np.nan, 0.0, 0.0]), np.ones(3), np.zeros(3)
    scores = []
    for order in ((nan_row, ones, zeros), (ones, zeros, nan_row)):
        h = HistoryArchive(dimension=3, capacity=3)
        for row in order:
            if row is nan_row:
                with pytest.raises(ValueError, match="coordinate 0 is nan"):
                    h.add(row)
            else:
                h.add(row)
        scores.append(swarm_diversity(x, h))
    assert scores[0] == scores[1] == _rowwise(x, [ones, zeros])
    assert scores[0] == pytest.approx(math.tanh(0.5))


@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3))
def test_swarm_diversity_in_unit_interval(x):
    h = HistoryArchive(dimension=3)
    h.add(np.zeros(3))
    v = swarm_diversity(np.array(x), h)
    assert 0.0 <= v <= 1.0   # tanh saturates to 1.0 in floats at large distance


# ---------------------------------------------------------------- op diversity

def test_entropy_single_op_zero():
    assert entropy_diversity(np.array([1.0, 0.0, 0.0])) == 0.0


def test_entropy_two_ops_half_each_of_five():
    got = entropy_diversity(np.array([0.5, 0.5, 0.0, 0.0, 0.0]))
    assert got == pytest.approx(math.log(2) / math.log(5), abs=1e-12)


def test_entropy_uniform_is_one():
    assert entropy_diversity(np.full(5, 0.2)) == pytest.approx(1.0, abs=1e-12)


def test_entropy_degenerate_single_candidate():
    assert entropy_diversity(np.array([1.0])) == 0.0


def test_entropy_relabel_invariance():
    p = np.array([0.5, 0.3, 0.2, 0.0, 0.0])
    q = p[np.array([4, 2, 0, 1, 3])]
    assert entropy_diversity(p) == pytest.approx(entropy_diversity(q), abs=1e-15)


def test_op_diversity_from_position():
    layout = ArchLayout()
    # All scores equal: every edge picks op 0 -> zero entropy.
    genotype = discretize(decode(np.zeros(layout.dimension), layout))
    assert entropy_diversity(op_frequencies(genotype, layout)) == 0.0


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
def test_entropy_in_unit_interval(raw):
    p = np.array(raw)
    p = p / p.sum()
    assert 0.0 <= entropy_diversity(p) <= 1.0 + 1e-12


# ---------------------------------------------------------------- combined

def test_combined_identity():
    assert combined_fitness(0.8, 0.4, 0.25, FitnessWeights(0.3, 0.2)) == \
        pytest.approx(0.8 - 0.3 * 0.4 - 0.2 * 0.25, abs=1e-15)


def test_combined_zero_weights_is_base():
    assert combined_fitness(0.37, 0.9, 0.8, FitnessWeights(0.0, 0.0)) == 0.37


def test_combined_zero_diversities_is_base():
    assert combined_fitness(0.37, 0.0, 0.0, FitnessWeights(0.3, 0.2)) == 0.37


def test_combined_table_weights_cancel():
    # base 0.5, both diversities 1.0, weights (0.3, 0.2) -> 0.0
    assert combined_fitness(0.5, 1.0, 1.0, FitnessWeights(0.3, 0.2)) == \
        pytest.approx(0.0, abs=1e-15)


def test_weights_validation():
    with pytest.raises(ValueError, match="lambda_swarm"):
        FitnessWeights(-0.1, 0.2)
    with pytest.raises(ValueError, match="lambda_op"):
        FitnessWeights(0.3, math.nan)


# ---------------------------------------------------------------- history

def test_history_capacity_eviction():
    h = HistoryArchive(dimension=1, capacity=3)
    for i in range(5):
        h.add(np.array([float(i)]))
    assert len(h) == 3
    assert [e[0] for e in h.entries] == [2.0, 3.0, 4.0]


def test_history_rejects_wrong_dimension():
    h = HistoryArchive(dimension=2)
    with pytest.raises(ValueError, match="dimension"):
        h.add(np.zeros(3))


def test_update_history_appends_best_particle():
    swarm = init_population(2, SwarmConfig(pop_size=3, swarm_bound=1.0),
                            np.random.default_rng(0))
    swarm.fitness[:] = [3.0, 2.0, 1.0]
    h = HistoryArchive(dimension=2)
    update_history(h, swarm)
    assert len(h) == 1
    assert np.array_equal(h.entries[0], swarm.positions[2])


def test_update_history_requires_evaluated_particles():
    swarm = init_population(2, SwarmConfig(pop_size=3, swarm_bound=1.0),
                            np.random.default_rng(0))
    with pytest.raises(ValueError, match="no evaluated"):
        update_history(HistoryArchive(dimension=2), swarm)


def test_update_history_copies_position():
    swarm = init_population(2, SwarmConfig(pop_size=3, swarm_bound=1.0),
                            np.random.default_rng(0))
    swarm.fitness[:] = 0.0
    h = HistoryArchive(dimension=2)
    update_history(h, swarm)
    swarm.positions[0] = 99.0
    assert not np.array_equal(h.entries[0], swarm.positions[0])

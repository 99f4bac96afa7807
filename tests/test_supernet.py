"""Tests for the differentiable supernet, genotypes and gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridnas.gradcheck import (check_gradients, make_gradcheck_problem,
                                 min_kink_distance)
from hybridnas.supernet import (ArchLayout, ArchParams, Genotype,
                                SupernetState, SyntheticDataset, discretize,
                                edge_weights, forward, loss, loss_and_grads,
                                op_frequencies, param_dimension,
                                parameter_free_fraction, sgd_step_weights,
                                validation_accuracy)

LAYOUT = ArchLayout()   # N=2, five default ops, D=50


# ---------------------------------------------------------------- dimensions

def test_param_dimension_paper_value():
    assert param_dimension(4, 8) == 224


def test_param_dimension_default_layout():
    assert param_dimension(2, 5) == 50
    assert LAYOUT.dimension == 50
    assert LAYOUT.edges_per_cell == 5


def test_param_dimension_validation():
    with pytest.raises(ValueError):
        param_dimension(0, 5)
    with pytest.raises(ValueError):
        param_dimension(2, 0)


def test_layout_rejects_unknown_ops():
    with pytest.raises(ValueError, match="unknown candidate ops"):
        ArchLayout(2, ("zero", "skip", "conv3x3"))


def test_edge_list_matches_edge_count():
    edges = LAYOUT.edge_list()
    assert len(edges) == LAYOUT.edges_per_cell
    assert edges == [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


# ---------------------------------------------------------------- encode/decode

def test_encode_length_is_dimension():
    alpha = ArchParams.zeros(LAYOUT)
    assert alpha.encode().shape == (LAYOUT.dimension,)


def test_encode_decode_round_trip():
    rng = np.random.default_rng(0)
    alpha = ArchParams(rng.normal(size=(2, LAYOUT.edges_per_cell, LAYOUT.num_ops)))
    back = ArchParams.decode(alpha.encode(), LAYOUT)
    assert np.array_equal(back.scores[0], alpha.scores[0])
    assert np.array_equal(back.scores[1], alpha.scores[1])


def test_decode_rejects_wrong_length():
    with pytest.raises(ValueError, match="length"):
        ArchParams.decode(np.zeros(LAYOUT.dimension + 1), LAYOUT)


def test_decode_copies_input():
    vec = np.zeros(LAYOUT.dimension)
    alpha = ArchParams.decode(vec, LAYOUT)
    alpha.scores[0, 0, 0] = 5.0
    assert vec[0] == 0.0


# ---------------------------------------------------------------- discretize

def test_discretize_selects_raised_entries():
    alpha = ArchParams.zeros(LAYOUT)
    want_n = [1, 3, 0, 2, 4]
    want_r = [4, 4, 1, 1, 2]
    for e in range(5):
        alpha.scores[0, e, want_n[e]] += 10.0
        alpha.scores[1, e, want_r[e]] += 10.0
    g = discretize(alpha)
    assert list(g.normal) == want_n and list(g.reduce) == want_r


def test_discretize_ties_choose_op_zero():
    g = discretize(ArchParams.zeros(LAYOUT))
    assert g.normal == (0,) * 5 and g.reduce == (0,) * 5


def test_discretize_shift_invariance():
    rng = np.random.default_rng(3)
    alpha = ArchParams(rng.normal(size=(2, LAYOUT.edges_per_cell, LAYOUT.num_ops)))
    shifted = ArchParams(alpha.scores + np.array([7.5, -2.25])[:, None, None])
    assert discretize(alpha) == discretize(shifted)


def test_discretize_rejects_nonfinite():
    alpha = ArchParams.zeros(LAYOUT)
    alpha.scores[1, 0, 0] = math.nan
    with pytest.raises(ValueError, match="finite"):
        discretize(alpha)


# ---------------------------------------------------------------- frequencies

def test_op_frequencies_single_op():
    g = Genotype((2,) * 5, (2,) * 5)
    assert op_frequencies(g, LAYOUT).tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]


@given(st.lists(st.integers(0, 4), min_size=10, max_size=10))
def test_op_frequencies_sum_to_one(sel):
    g = Genotype(tuple(sel[:5]), tuple(sel[5:]))
    assert op_frequencies(g, LAYOUT).sum() == pytest.approx(1.0, abs=1e-12)


def test_parameter_free_fraction():
    g = Genotype((0, 1, 2, 3, 4), (0, 0, 1, 1, 2))
    # zero/skip appear on edges 0,1 of normal and 0,1,2,3 of reduce -> 6/10
    assert parameter_free_fraction(g, LAYOUT) == pytest.approx(0.6)


# ---------------------------------------------------------------- genotype text

def test_genotype_text_round_trip():
    g = Genotype((0, 1, 2, 3, 4), (4, 3, 2, 1, 0))
    text = g.to_text(LAYOUT)
    assert Genotype.from_text(text, LAYOUT) == g
    assert text.endswith("\n") and len(text.strip().splitlines()) == 2


def test_genotype_text_errors():
    with pytest.raises(ValueError, match="2 cell lines"):
        Genotype.from_text("zero,zero,zero,zero,zero\n", LAYOUT)
    with pytest.raises(ValueError, match="unknown op names"):
        Genotype.from_text("zero,zero,zero,zero,conv\n"
                           "zero,zero,zero,zero,zero\n", LAYOUT)
    with pytest.raises(ValueError, match="ops per cell"):
        Genotype.from_text("zero,zero\nzero,zero\n", LAYOUT)


# ---------------------------------------------------------------- softmax

def test_edge_weights_sum_and_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rng.normal(0, 3, 5)
        w = edge_weights(a)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.max(np.abs(edge_weights(a + 123.4) - w)) < 1e-12


def test_edge_weights_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        edge_weights(np.array([0.0, math.inf]))


# ---------------------------------------------------------------- forward/loss

def _zeroed_state():
    state = SupernetState.init(LAYOUT, np.random.default_rng(0))
    for name in SupernetState._ARRAYS:
        getattr(state, name)[...] = 0.0
    return state


def test_loss_closed_form_single_sample():
    # With all weights zero and cls_b = (1,0,0), logits are (1,0,0); the
    # cross-entropy for label 0 is ln(1 + 2 e^{-1}).
    state = _zeroed_state()
    state.cls_b[:] = np.array([1.0, 0.0, 0.0])
    alpha = ArchParams.zeros(LAYOUT)
    got = loss(state, alpha, np.zeros((1, 2)), np.array([0]))
    assert got == pytest.approx(math.log(1 + 2 * math.exp(-1)), abs=1e-12)


def test_uniform_logits_loss_is_log_classes():
    state = _zeroed_state()
    got = loss(state, ArchParams.zeros(LAYOUT), np.zeros((4, 2)),
               np.array([0, 1, 2, 0]))
    assert got == pytest.approx(math.log(3), abs=1e-12)


def test_accuracy_is_one_when_logits_forced_to_true_class():
    state = _zeroed_state()
    state.cls_b[:] = np.array([10.0, 0.0, 0.0])
    acc = validation_accuracy(state, ArchParams.zeros(LAYOUT),
                              np.random.default_rng(0).normal(size=(20, 2)),
                              np.zeros(20, dtype=int))
    assert acc == 1.0


def test_untrained_net_near_chance_level():
    accs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        state = SupernetState.init(LAYOUT, rng)
        data = SyntheticDataset.spirals(rng, n_train=300, n_val=150)
        alpha = ArchParams(rng.normal(0, 0.5, (2, 5, 5)))
        accs.append(validation_accuracy(state, alpha, data.val_x, data.val_y))
    assert abs(float(np.mean(accs)) - 1 / 3) <= 0.15


def test_forward_rejects_wrong_input_width():
    state = _zeroed_state()
    with pytest.raises(ValueError, match="shape"):
        forward(state, ArchParams.zeros(LAYOUT), np.zeros((4, 3)))


def test_loss_rejects_empty_batch():
    state = _zeroed_state()
    with pytest.raises(ValueError, match="non-empty"):
        loss(state, ArchParams.zeros(LAYOUT), np.zeros((0, 2)), np.zeros(0, int))


# ---------------------------------------------------------------- gradients

def test_duplicated_batch_gives_identical_gradients():
    state, alpha, x, y = make_gradcheck_problem(LAYOUT, seed=0, batch=4)
    _, w1, a1 = loss_and_grads(state, alpha, x, y)
    x2 = np.concatenate([x, x])
    y2 = np.concatenate([y, y])
    _, w2, a2 = loss_and_grads(state, alpha, x2, y2)
    for name in SupernetState._ARRAYS:
        assert np.allclose(w1[name], w2[name], atol=1e-12)
    assert np.allclose(a1.encode(), a2.encode(), atol=1e-12)


def test_gradcheck_small_layout():
    layout = ArchLayout(1, ("zero", "skip", "linear", "relu_linear"))
    state, alpha, x, y = make_gradcheck_problem(layout, seed=0, batch=4,
                                                feature_dim=4)
    res = check_gradients(state, alpha, x, y)
    assert res.max_rel_error < 1e-5


def test_gradcheck_problem_avoids_kinks():
    state, alpha, x, y = make_gradcheck_problem(LAYOUT, seed=0, batch=4)
    assert min_kink_distance(state, alpha, x) > 50 * 1e-4


def test_sgd_zero_gradient_is_noop():
    state = SupernetState.init(LAYOUT, np.random.default_rng(0))
    before = state.flat_weights()
    grads = {n: np.zeros_like(getattr(state, n)) for n in SupernetState._ARRAYS}
    sgd_step_weights(state, grads, 0.025)
    assert np.array_equal(state.flat_weights(), before)


def test_sgd_unit_step_on_self_zeroes_weights():
    state = SupernetState.init(LAYOUT, np.random.default_rng(0))
    grads = {n: getattr(state, n).copy() for n in SupernetState._ARRAYS}
    sgd_step_weights(state, grads, 1.0)
    assert np.all(state.flat_weights() == 0.0)


def test_sgd_rejects_shape_mismatch():
    state = SupernetState.init(LAYOUT, np.random.default_rng(0))
    grads = {n: np.zeros_like(getattr(state, n)) for n in SupernetState._ARRAYS}
    grads["cls_b"] = np.zeros(99)
    with pytest.raises(ValueError, match="cls_b"):
        sgd_step_weights(state, grads, 0.025)


def test_flat_weights_round_trip():
    state = SupernetState.init(LAYOUT, np.random.default_rng(4))
    vec = state.flat_weights()
    other = SupernetState.init(LAYOUT, np.random.default_rng(5))
    other.set_flat_weights(vec)
    assert np.array_equal(other.flat_weights(), vec)


# ---------------------------------------------------------------- data

def test_spirals_shapes_and_balance():
    data = SyntheticDataset.spirals(np.random.default_rng(0))
    assert data.train_x.shape == (600, 2) and data.val_x.shape == (300, 2)
    assert np.bincount(data.train_y.astype(int)).tolist() == [200, 200, 200]
    assert np.bincount(data.val_y.astype(int)).tolist() == [100, 100, 100]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_spirals_deterministic(seed):
    a = SyntheticDataset.spirals(np.random.default_rng(seed), 30, 15)
    b = SyntheticDataset.spirals(np.random.default_rng(seed), 30, 15)
    assert np.array_equal(a.train_x, b.train_x)
    assert np.array_equal(a.val_y, b.val_y)

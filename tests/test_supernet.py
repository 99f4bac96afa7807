"""Tests for the differentiable supernet, genotypes and gradients."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridnas.cli import main_cli
from hybridnas.gradcheck import (check_gradients, make_gradcheck_problem,
                                 min_kink_distance)
from hybridnas.supernet import (_ACTIVATIONS, KNOWN_OPS, PARAM_FREE_OPS,
                                ArchLayout, Genotype, SupernetState,
                                SyntheticDataset, decode, discretize,
                                edge_weights, embed, forward, grad_alpha,
                                grad_weights, loss,
                                loss_and_grads, op_frequencies,
                                param_dimension, parameter_free_fraction,
                                sgd_step_weights, validation_accuracy)

LAYOUT = ArchLayout()   # N=2, five default ops, D=50
SHAPE = (2, LAYOUT.edges_per_cell, LAYOUT.num_ops)


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


@pytest.mark.parametrize("num_nodes, ops", [
    (1, ("zero",)), (2, ("tanh_linear", "zero", "linear", "skip")),
    (3, ("skip", "zero")), (4, KNOWN_OPS)])
def test_layout_derived_sizes_are_cached_and_frozen(num_nodes, ops):
    layout = ArchLayout(num_nodes, ops)
    param_ops, mix, k = [], [], 0
    for o, op in enumerate(ops):
        if op == "skip":
            mix.append((o, None))
        elif op not in PARAM_FREE_OPS:
            param_ops.append(o)
            mix.append((o, k))
            k += 1
    edges = sum(i + 2 for i in range(num_nodes))
    expected = {"num_ops": len(ops), "edges_per_cell": edges,
                "dimension": 2 * edges * len(ops), "param_ops": tuple(param_ops),
                "num_param_ops": k, "mix": tuple(mix),
                "activations": tuple(_ACTIVATIONS[ops[o]] for o in param_ops)}
    for _ in range(2):   # computed, then read back from the cache
        assert {name: getattr(layout, name) for name in expected} == expected
    fresh = ArchLayout(num_nodes, ops)
    assert layout == fresh and hash(layout) == hash(fresh)
    for name in ("num_nodes", "candidate_ops", *expected):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(layout, name, 1)


def test_layout_rejects_unknown_ops():
    with pytest.raises(ValueError, match="unknown candidate ops"):
        ArchLayout(2, ("zero", "skip", "conv3x3"))


def test_layout_rejects_duplicate_ops():
    with pytest.raises(ValueError, match=r"duplicate candidate ops: \['linear'\]"):
        ArchLayout(1, ("linear", "linear", "zero"))


# ---------------------------------------------------------------- encode/decode

def test_encode_length_is_dimension():
    assert np.zeros(SHAPE).flatten().shape == (LAYOUT.dimension,)


def test_encode_decode_round_trip():
    rng = np.random.default_rng(0)
    alpha = rng.normal(size=SHAPE)
    back = decode(alpha.flatten(), LAYOUT)
    assert np.array_equal(back[0], alpha[0])
    assert np.array_equal(back[1], alpha[1])


def test_decode_rejects_wrong_length():
    # The message names the whole shape: a (D, 1) position's first axis
    # alone would read "length 50, expected 50", and a 0-d one has none.
    d = LAYOUT.dimension
    for position, shape in ((np.zeros(d + 1), f"({d + 1},)"),
                            (np.float64(0.0), "()"),
                            (np.zeros((d, 1)), f"({d}, 1)"),
                            (np.zeros((2, d)), f"(2, {d})")):
        with pytest.raises(ValueError, match=re.escape(
                f"position has shape {shape}, expected one vector of "
                f"length {d}")):
            decode(position, LAYOUT)


def test_decode_copies_input():
    vec = np.zeros(LAYOUT.dimension)
    alpha = decode(vec, LAYOUT)
    alpha[0, 0, 0] = 5.0
    assert vec[0] == 0.0


# ---------------------------------------------------------------- discretize

def test_discretize_selects_raised_entries():
    alpha = np.zeros(SHAPE)
    want_n = [1, 3, 0, 2, 4]
    want_r = [4, 4, 1, 1, 2]
    for e in range(5):
        alpha[0, e, want_n[e]] += 10.0
        alpha[1, e, want_r[e]] += 10.0
    g = discretize(alpha)
    assert list(g.normal) == want_n and list(g.reduce) == want_r


def test_discretize_ties_choose_op_zero():
    g = discretize(np.zeros(SHAPE))
    assert g.normal == (0,) * 5 and g.reduce == (0,) * 5


def test_discretize_shift_invariance():
    rng = np.random.default_rng(3)
    alpha = rng.normal(size=SHAPE)
    shifted = alpha + np.array([7.5, -2.25])[:, None, None]
    assert discretize(alpha) == discretize(shifted)


def test_discretize_rejects_nonfinite():
    alpha = np.zeros(SHAPE)
    alpha[1, 0, 0] = math.nan
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
    assert g.to_text(LAYOUT) == (
        "zero,skip,linear,relu_linear,tanh_linear\n"
        "tanh_linear,relu_linear,linear,skip,zero\n")


# ---------------------------------------------------------------- softmax

def test_edge_weights_sum_and_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rng.normal(0, 3, 5)
        w = edge_weights(a)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.max(np.abs(edge_weights(a + 123.4) - w)) < 1e-12


def test_edge_weights_all_edges_equal_one_edge_at_a_time():
    # The forward pass takes every edge's softmax in one call; each row must
    # be bitwise the softmax of that edge alone.
    rng = np.random.default_rng(2)
    for o in range(1, 9):
        scores = rng.normal(0, 5, (2, 7, o))
        w = edge_weights(scores)
        for cell in range(2):
            for e in range(7):
                assert np.array_equal(w[cell, e], edge_weights(scores[cell, e]))


def test_edge_weights_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        edge_weights(np.array([0.0, math.inf]))


# ---------------------------------------------------------------- forward/loss

def _zeroed_state():
    state = SupernetState.init(LAYOUT, np.random.default_rng(0))
    state.weights[:] = 0
    return state


def test_loss_closed_form_single_sample():
    # With all weights zero and cls_b = (1,0,0), logits are (1,0,0); the
    # cross-entropy for label 0 is ln(1 + 2 e^{-1}).
    state = _zeroed_state()
    state.cls_b[:] = np.array([1.0, 0.0, 0.0])
    got = loss(state, np.zeros(SHAPE), np.zeros((1, 2)), np.array([0]))
    assert got == pytest.approx(math.log(1 + 2 * math.exp(-1)), abs=1e-12)


def test_uniform_logits_loss_is_log_classes():
    state = _zeroed_state()
    got = loss(state, np.zeros(SHAPE), np.zeros((4, 2)),
               np.array([0, 1, 2, 0]))
    assert got == pytest.approx(math.log(3), abs=1e-12)


def test_accuracy_is_one_when_logits_forced_to_true_class():
    state = _zeroed_state()
    state.cls_b[:] = np.array([10.0, 0.0, 0.0])
    acc = validation_accuracy(state, np.zeros(SHAPE),
                              np.random.default_rng(0).normal(size=(20, 2)),
                              np.zeros(20, dtype=int))
    assert acc == 1.0


def test_untrained_net_near_chance_level():
    accs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        state = SupernetState.init(LAYOUT, rng)
        data = SyntheticDataset.spirals(rng, n_train=300, n_val=150)
        alpha = rng.normal(0, 0.5, (2, 5, 5))
        accs.append(validation_accuracy(state, alpha, data.val_x, data.val_y))
    assert abs(float(np.mean(accs)) - 1 / 3) <= 0.15


def test_forward_rejects_wrong_input_width():
    state = _zeroed_state()
    with pytest.raises(ValueError, match="shape"):
        forward(state, np.zeros(SHAPE), np.zeros((4, 3)))


def test_loss_rejects_empty_batch():
    state = _zeroed_state()
    with pytest.raises(ValueError, match="non-empty"):
        loss(state, np.zeros(SHAPE), np.zeros((0, 2)), np.zeros(0, int))


@pytest.mark.parametrize("y", [[0, 1, 2], [0, 1, -1, 2]],
                         ids=["short", "negative"])
def test_labels_must_match_batch(y):
    # A short y used to score only the first rows, and -1 was read as the
    # last class.
    state = SupernetState.init(LAYOUT, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(4, 2))
    alpha = np.zeros(SHAPE)
    for fn in (loss, loss_and_grads, validation_accuracy):
        with pytest.raises(ValueError, match=r"labels must be 4 integers in \[0, 3\)"):
            fn(state, alpha, x, np.array(y))


# ---------------------------------------------------------------- embedding

EMBED_LAYOUTS = [ArchLayout(), ArchLayout(1), ArchLayout(3),
                 ArchLayout(2, ("zero", "skip")),
                 ArchLayout(2, ("linear", "skip", "tanh_linear"))]


@pytest.mark.parametrize("layout", EMBED_LAYOUTS,
                         ids=["default", "nodes-1", "nodes-3", "param-free",
                              "skip-between-parametric"])
def test_embedding_gives_bitwise_equal_results(layout):
    rng = np.random.default_rng(7)
    state = SupernetState.init(layout, rng)
    for bias in (state.stem_b, state.op_b, state.cls_b):
        bias[...] = rng.normal(0, 0.3, bias.shape)
    x = rng.normal(size=(16, 2))
    y = rng.integers(0, 3, size=16)
    emb = embed(state, x)
    assert len(emb.edges) == 2 * layout.num_nodes
    for _ in range(3):   # one embedding serves many architectures
        alpha = rng.normal(0, 1.0, (2, layout.edges_per_cell, layout.num_ops))
        plain, shared = [], []
        logits = forward(state, alpha, x, plain)
        assert np.array_equal(forward(state, alpha, x, shared, embedding=emb),
                              logits)
        for a, b in zip(plain, shared):
            assert np.array_equal(a.concat, b.concat)
            for ea, eb in zip(a.edges, b.edges):
                assert ea[0] == eb[0]
                for u, v in zip(ea[1:], eb[1:]):
                    assert (u is None and v is None) or np.array_equal(u, v)
        value = loss(state, alpha, x, y, embedding=emb)
        assert value == loss(state, alpha, x, y)
        assert value == loss_and_grads(state, alpha, x, y)[0]


def test_embedding_is_refused_once_stale_or_for_another_batch():
    state = SupernetState.init(LAYOUT, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(4, 2))
    y = np.array([0, 1, 2, 0])
    alpha = np.zeros(SHAPE)
    emb = embed(state, x)
    assert not emb.stem.flags.writeable
    with pytest.raises(ValueError, match="different batch array"):
        loss(state, alpha, x.copy(), y, embedding=emb)
    with pytest.raises(ValueError, match="different batch array"):
        forward(state, alpha, x[::-1], embedding=emb)
    sgd_step_weights(state, grad_weights(state, alpha, x, y), 0.025)
    for call in (lambda: loss(state, alpha, x, y, embedding=emb),
                 lambda: forward(state, alpha, x, embedding=emb)):
        with pytest.raises(ValueError, match="stale: the weights changed"):
            call()
    assert loss(state, alpha, x, y, embedding=embed(state, x)) == \
        loss(state, alpha, x, y)


# ---------------------------------------------------------------- gradients

def test_duplicated_batch_gives_identical_gradients():
    state, alpha, x, y = make_gradcheck_problem(LAYOUT, seed=0, batch=4)
    _, w1, a1 = loss_and_grads(state, alpha, x, y)
    x2 = np.concatenate([x, x])
    y2 = np.concatenate([y, y])
    _, w2, a2 = loss_and_grads(state, alpha, x2, y2)
    assert np.allclose(w1.weights, w2.weights, atol=1e-12)
    assert np.allclose(a1, a2, atol=1e-12)


# sha256 over the bytes of forward, loss and loss_and_grads on MATH_CASES;
# recorded before the backward pass was restructured, so a rewrite that
# moves one float or reorders one sum fails it.
SUPERNET_MATH_SHA256 = (
    "b71955aa0c77f0c40a3f16d7857ba23d4fbf6469dd402820652d8bbbd0041369")


def math_cases():
    """Seeded (state, alpha, x, y) problems: 1-3 nodes, permuted op orders
    (every fourth case all 8 ops), parameter-free-only layouts, batch sizes
    1 to 80."""
    rng = np.random.default_rng(2026)
    op_sets = [("zero",), ("skip", "zero")]
    for case in range(40):
        ops = rng.permutation(KNOWN_OPS)
        op_sets.append(tuple(ops[:8 if case % 4 == 0 else rng.integers(1, 9)]))
    for case, ops in enumerate(op_sets):
        layout = ArchLayout(1 + case % 3, ops)
        batch = (1, 80)[case] if case < 2 else int(rng.integers(1, 81))
        num_classes = int(rng.integers(2, 5))
        state = SupernetState.init(layout, rng, int(rng.choice([3, 16])),
                                   num_classes)
        for bias in (state.stem_b, state.op_b, state.cls_b):
            bias[...] = rng.normal(0, 0.3, bias.shape)
        alpha = rng.normal(0, 1.0, (2, layout.edges_per_cell, layout.num_ops))
        x = rng.normal(size=(batch, 2))
        y = rng.integers(0, num_classes, size=batch)
        yield state, alpha, x, y


def test_supernet_math_is_bitwise_pinned():
    digest = hashlib.sha256()
    for state, alpha, x, y in math_cases():
        value, wgrads, agrad = loss_and_grads(state, alpha, x, y)
        for arr in (forward(state, alpha, x), loss(state, alpha, x, y), value,
                    wgrads.weights, agrad):
            digest.update(np.asarray(arr, dtype=np.float64).tobytes())
        assert np.array_equal(grad_weights(state, alpha, x, y).weights,
                              wgrads.weights)
        assert np.array_equal(grad_alpha(state, alpha, x, y), agrad)
    assert digest.hexdigest() == SUPERNET_MATH_SHA256


def test_gradcheck_small_layout():
    layout = ArchLayout(1, ("zero", "skip", "linear", "relu_linear"))
    state, alpha, x, y = make_gradcheck_problem(layout, seed=0, batch=4,
                                                feature_dim=4)
    res = check_gradients(state, alpha, x, y)
    assert res.max_rel_error < 1e-5


@pytest.mark.parametrize("op", [o for o in KNOWN_OPS if o in _ACTIVATIONS])
def test_gradcheck_each_parametric_op(op):
    # Every op's derivative meets the finite-difference oracle on its own.
    layout = ArchLayout(1, ("zero", "skip", op))
    state, alpha, x, y = make_gradcheck_problem(layout, seed=0, batch=4,
                                                feature_dim=4)
    assert check_gradients(state, alpha, x, y).max_rel_error < 1e-5


def test_gradcheck_catches_wrong_derivative(monkeypatch, capsys):
    # The oracle must be able to fail: give tanh the derivative of identity.
    act, _, kinked = _ACTIVATIONS["tanh_linear"]
    monkeypatch.setitem(_ACTIVATIONS, "tanh_linear",
                        (act, lambda z, a: np.ones_like(z), kinked))
    layout = ArchLayout(1, ("zero", "skip", "linear", "tanh_linear"))
    state, alpha, x, y = make_gradcheck_problem(layout, seed=0, batch=4,
                                                feature_dim=4)
    res = check_gradients(state, alpha, x, y)
    assert res.max_rel_error_weights > 1e-5
    assert res.max_rel_error_alpha > 1e-5
    rc = main_cli(["check-grad", "--num-nodes", "1",
                   "--ops", "zero,skip,linear,tanh_linear",
                   "--feature-dim", "4", "--batch", "4"])
    assert rc == 1
    assert "max relative error" in capsys.readouterr().out


def test_gradcheck_problem_avoids_kinks():
    state, alpha, x, y = make_gradcheck_problem(LAYOUT, seed=0, batch=4)
    assert min_kink_distance(state, alpha, x) > 50 * 1e-4


def test_sgd_zero_gradient_is_noop():
    state = SupernetState.init(LAYOUT, np.random.default_rng(0))
    before = state.weights.copy()
    sgd_step_weights(state, state.like(), 0.025)
    assert np.array_equal(state.weights, before)


def test_sgd_unit_step_on_self_zeroes_weights():
    state = SupernetState.init(LAYOUT, np.random.default_rng(0))
    sgd_step_weights(state, state.copy(), 1.0)
    assert np.all(state.weights == 0.0)


def test_sgd_rejects_shape_mismatch():
    state = SupernetState.init(LAYOUT, np.random.default_rng(0))
    grads = SupernetState(ArchLayout(1), 16, 3, 2)
    with pytest.raises(ValueError, match="shape"):
        sgd_step_weights(state, grads, 0.025)


def test_named_arrays_are_views_of_weights():
    state = SupernetState.init(LAYOUT, np.random.default_rng(4))
    names = ("stem_w", "stem_b", "op_w", "op_b", "proj_w", "cls_w", "cls_b")
    views = [getattr(state, n) for n in names]
    assert sum(v.size for v in views) == state.weights.size
    before = state.weights.copy()
    other = state.copy()
    state.weights[:] = np.arange(state.weights.size)
    assert np.array_equal(np.concatenate([v.ravel() for v in views]),
                          state.weights)
    assert np.array_equal(other.weights, before)
    assert np.array_equal(np.concatenate([getattr(other, n).ravel()
                                          for n in names]), before)


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

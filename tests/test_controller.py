"""Tests for the three-stage controller, early stopping and backends."""

import math

import numpy as np
import pytest

from hybridnas.controller import (SearchSettings, Stage, StageConfig, StopMode,
                                  SupernetBackend, TabularBackend, Termination,
                                  hoeffding_epsilon, run_search, select_best,
                                  should_stop, soft_update_alpha)
from hybridnas.fitness import FitnessWeights
from hybridnas.runtime import RandomStream
from hybridnas.supernet import (ArchLayout, SupernetState, SyntheticDataset,
                                decode, loss)
from hybridnas.swarm import SwarmConfig
from hybridnas.tabular import generate_space

LAYOUT = ArchLayout()
SHAPE = (2, LAYOUT.edges_per_cell, LAYOUT.num_ops)
TAB_LAYOUT = ArchLayout(1, ("zero", "skip", "linear"))


def make_supernet_backend(seed=0, n_train=120, n_val=60):
    data_rng = RandomStream(seed).substream("data").generator
    init_rng = RandomStream(seed).substream("init").generator
    data = SyntheticDataset.spirals(data_rng, n_train=n_train, n_val=n_val)
    state = SupernetState.init(LAYOUT, init_rng)
    return SupernetBackend(LAYOUT, data, state)


def make_tabular_backend(space_seed=7):
    space = generate_space(TAB_LAYOUT, seed=space_seed)
    return TabularBackend(space, TAB_LAYOUT)


# ---------------------------------------------------------------- hoeffding

def test_hoeffding_paper_value():
    want = math.sqrt(224 * math.log(40.0) / 10.0)
    assert hoeffding_epsilon(224, 0.05, 5) == pytest.approx(want, abs=1e-12)
    assert hoeffding_epsilon(224, 0.05, 5) == pytest.approx(9.0901, abs=1e-4)


def test_hoeffding_identity_case():
    # D=2, n=1, delta=2/e: sqrt(2 * ln(e) / 2) = 1 exactly
    assert abs(hoeffding_epsilon(2, 2 / math.e, 1) - 1.0) <= 1e-15


def test_hoeffding_monotonicity():
    assert hoeffding_epsilon(50, 0.05, 10) < hoeffding_epsilon(50, 0.05, 5)
    assert hoeffding_epsilon(50, 0.01, 5) > hoeffding_epsilon(50, 0.05, 5)


def test_hoeffding_validation():
    with pytest.raises(ValueError):
        hoeffding_epsilon(0, 0.05, 5)
    with pytest.raises(ValueError):
        hoeffding_epsilon(5, 1.5, 5)
    with pytest.raises(ValueError):
        hoeffding_epsilon(5, 0.05, 0)


# ---------------------------------------------------------------- stopping

def test_all_zero_window_stops_in_every_mode():
    for mode in StopMode:
        assert should_stop([0.0] * 5, 9.09, 1e-3, mode)


def test_absolute_mode_continues_above_threshold():
    assert not should_stop([5e-3] * 5, 9.09, 1e-3, StopMode.ABSOLUTE)


def test_hoeffding_mode_is_looser_here():
    window = [5e-3] * 5
    assert should_stop(window, 9.09, 1e-3, StopMode.HOEFFDING)
    assert not should_stop(window, 9.09, 1e-3, StopMode.STRICT)


def test_strict_is_min_of_both():
    window = [0.5] * 5
    assert not should_stop(window, 1.0, 1e-3, StopMode.STRICT)
    assert should_stop(window, 1.0, 1e-3, StopMode.HOEFFDING)


def test_empty_window_rejected():
    with pytest.raises(ValueError, match="empty"):
        should_stop([], 1.0, 1e-3, StopMode.STRICT)


# ---------------------------------------------------------------- selection

def test_select_best_picks_minimum():
    assert select_best(np.array([0.3, 0.1, 0.2])) == 1


def test_select_best_ties_go_low():
    assert select_best(np.array([0.2, 0.1, 0.1])) == 1


def test_select_best_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        select_best(np.array([0.1, math.nan]))


# ---------------------------------------------------------------- soft update

def test_soft_update_eta_zero_unchanged():
    alpha = np.zeros(SHAPE)
    x = np.random.default_rng(0).normal(size=LAYOUT.dimension)
    out = soft_update_alpha(alpha, x, 0.0, LAYOUT)
    assert np.array_equal(out, alpha)


def test_soft_update_eta_one_matches_target():
    alpha = np.zeros(SHAPE)
    x = np.random.default_rng(0).normal(size=LAYOUT.dimension)
    out = soft_update_alpha(alpha, x, 1.0, LAYOUT)
    assert np.allclose(out.flatten(), x, atol=1e-15)


def test_soft_update_interpolates():
    alpha = np.zeros(SHAPE)
    x = np.ones(LAYOUT.dimension)
    out = soft_update_alpha(alpha, x, 0.3, LAYOUT)
    assert np.allclose(out, 0.3, atol=1e-15)


# ---------------------------------------------------------------- config

def test_stage_config_validation():
    with pytest.raises(ValueError, match="warmup_epochs"):
        StageConfig(warmup_epochs=-1)
    with pytest.raises(ValueError, match="stability_threshold"):
        StageConfig(stability_threshold=1.0)
    with pytest.raises(ValueError, match="exploration_eta_alpha"):
        StageConfig(exploration_eta_alpha=1.5)


# ---------------------------------------------------------------- stage runs

def tabular_settings(warmup_epochs=2, max_total_epochs=25, **stage):
    return SearchSettings(
        stage=StageConfig(warmup_epochs=warmup_epochs, min_stability_epochs=5,
                          window_n=5, max_total_epochs=max_total_epochs, **stage),
        swarm=SwarmConfig(pop_size=21, generations_per_epoch=4))


def test_warmup_zero_starts_in_exploration():
    result = run_search(tabular_settings(warmup_epochs=0),
                        make_tabular_backend(), seed=0)
    assert result.records[0].stage == Stage.EXPLORATION.value


def test_tabular_run_passes_through_all_stages():
    # In the second case the stop rule fires on the cap epoch: one warm-up,
    # one exploration and five stability epochs under a cap of 7.
    for overrides, n_epochs in (({}, None),
                                ({"warmup_epochs": 1, "stability_threshold": 0.05,
                                  "max_total_epochs": 7}, 7)):
        result = run_search(tabular_settings(**overrides),
                            make_tabular_backend(), seed=0)
        stages = [r.stage for r in result.records]
        assert n_epochs is None or len(stages) == n_epochs
        assert stages[0] == Stage.WARMUP.value
        assert Stage.EXPLORATION.value in stages
        assert Stage.STABILITY.value in stages
        # tabular stability epochs change nothing, so v_t is 0 and the run
        # early-stops after the minimum number of stability epochs
        assert result.termination is Termination.EARLY_STOP
        stab = [r for r in result.records if r.stage == Stage.STABILITY.value]
        assert len(stab) == 5
        assert all(r.v_t == 0.0 for r in stab)
        assert all(r.epsilon is not None for r in stab)


def test_tabular_queries_monotone_and_counted():
    result = run_search(tabular_settings(), make_tabular_backend(), seed=0)
    used = [r.queries_used for r in result.records]
    assert used == sorted(used)
    assert used[-1] > 0


def test_run_search_deterministic():
    a = run_search(tabular_settings(), make_tabular_backend(), seed=3)
    b = run_search(tabular_settings(), make_tabular_backend(), seed=3)
    assert a.genotype == b.genotype
    assert [r.__dict__ for r in a.records] == [r.__dict__ for r in b.records]


def test_on_record_sees_every_record_in_order():
    seen = []
    result = run_search(tabular_settings(), make_tabular_backend(), seed=0,
                        on_record=seen.append)
    assert seen == result.records
    assert {r.stage for r in seen} == {s.value for s in Stage}


def test_epoch_records_well_formed():
    result = run_search(tabular_settings(), make_tabular_backend(), seed=0)
    for i, r in enumerate(result.records, start=1):
        assert r.epoch == i
        assert r.validation_accuracy is not None
        assert r.wall_ms == 0     # timing off by default
        if r.stage == Stage.EXPLORATION.value:
            assert r.best_base_fitness is not None
            assert 0.0 <= r.best_base_fitness <= 1.0
            assert r.best_combined_fitness is not None
            assert math.isfinite(r.best_combined_fitness)


def test_alpha_is_zero_after_pure_warmup():
    # (5, 3): the cap falls inside warm-up.
    for warmup, cap in ((2, 2), (5, 3)):
        settings = tabular_settings(warmup_epochs=warmup, max_total_epochs=cap)
        result = run_search(settings, make_tabular_backend(), seed=0)
        assert [r.stage for r in result.records] == [Stage.WARMUP.value] * cap
        assert np.all(result.alpha == 0.0)
        assert result.termination is Termination.MAX_EPOCHS


def test_warmup_training_loss_decreases_most_seeds():
    wins = 0
    for seed in range(10):
        backend = make_supernet_backend(seed)
        alpha = np.zeros(SHAPE)
        rng = RandomStream(seed).substream("stability").generator
        losses = [loss(backend.state, alpha, backend.dataset.train_x,
                       backend.dataset.train_y)]
        for _ in range(5):
            backend.train_weight_epoch(alpha, 0.025, 64, rng)
            losses.append(loss(backend.state, alpha, backend.dataset.train_x,
                               backend.dataset.train_y))
        if all(b < a for a, b in zip(losses, losses[1:])):
            wins += 1
    assert wins >= 8


def test_stability_epoch_small_change_at_tiny_lr():
    # With arch lr 1e-5 the per-epoch alpha movement sits under the
    # absolute threshold for most seeds.
    cfg = StageConfig()
    small = 0
    for seed in range(10):
        backend = make_supernet_backend(seed)
        rng = RandomStream(seed).substream("stability").generator
        alpha = decode(
            np.random.default_rng(seed).normal(0, 0.3, LAYOUT.dimension), LAYOUT)
        new = backend.stability_epoch(alpha, cfg, rng)
        if float(np.linalg.norm(new - alpha)) < 1e-3:
            small += 1
    assert small >= 8


def test_tabular_backend_rejects_layout_mismatch():
    space = generate_space(TAB_LAYOUT, seed=7)
    with pytest.raises(ValueError, match="edges"):
        TabularBackend(space, ArchLayout(2, ("zero", "skip", "linear")))


def test_backend_loss_max():
    assert make_tabular_backend().loss_max == 1.0
    assert make_supernet_backend().loss_max == pytest.approx(math.log(3))

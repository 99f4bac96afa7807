"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Each test computes its result, prints ``CRITERION n: PASS/FAIL ...`` and
then asserts, so the printed line reflects the real outcome even when the
assertion fires.
"""

import math
import os
import time

import numpy as np

from hybridnas.bench import compare_strategies
from hybridnas.cli import main_cli
from hybridnas.controller import (SearchSettings, Stage, StageConfig,
                                  SupernetBackend, TabularBackend, Termination,
                                  hoeffding_epsilon, run_search)
from hybridnas.fitness import FitnessWeights
from hybridnas.gradcheck import check_gradients, make_gradcheck_problem
from hybridnas.runtime import RandomStream
from hybridnas.supernet import (ArchLayout, SupernetState, SyntheticDataset,
                                edge_weights, param_dimension,
                                parameter_free_fraction)
from hybridnas.swarm import SwarmConfig, evolve_generation, init_population
from hybridnas.tabular import generate_space, ranking

LAYOUT = ArchLayout()


def report(n: int, ok: bool, detail: str) -> bool:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_dimension_formula():
    got = param_dimension(4, 8)
    ok = got == 224
    assert report(1, ok, f"param_dimension(4, 8) = {got}, expected 224")


def test_criterion_2_gradient_oracle():
    t0 = time.perf_counter()
    state, alpha, x, y = make_gradcheck_problem(LAYOUT, seed=0)
    res = check_gradients(state, alpha, x, y, step=1e-4)
    elapsed = time.perf_counter() - t0
    ok = res.max_rel_error < 1e-5 and elapsed < 10.0
    assert report(2, ok, f"max rel error {res.max_rel_error:.3e} over "
                         f"{res.num_weight_coords} weight + "
                         f"{res.num_alpha_coords} alpha coords in {elapsed:.1f}s")


def test_criterion_3_softmax_contract():
    rng = np.random.default_rng(0)
    worst_sum = worst_shift = 0.0
    t0 = time.perf_counter()
    for _ in range(10_000):
        a = rng.normal(0, 3, 5)
        w = edge_weights(a)
        worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
        shift = float(rng.normal(0, 10))
        worst_shift = max(worst_shift, float(np.max(np.abs(edge_weights(a + shift) - w))))
    elapsed = time.perf_counter() - t0
    ok = worst_sum < 1e-12 and worst_shift < 1e-12 and elapsed < 1.0
    assert report(3, ok, f"sum error {worst_sum:.2e}, shift error "
                         f"{worst_shift:.2e} over 10000 edges in {elapsed:.2f}s")


def test_criterion_4_winner_preservation():
    config = SwarmConfig(pop_size=60)
    rng = np.random.default_rng(0)
    swarm = init_population(30, config, rng)
    sphere = lambda x: float(np.dot(x, x))
    preserved = True
    monotone = True
    last_best = math.inf
    t0 = time.perf_counter()
    for _ in range(100):
        before = swarm.positions.copy()
        roles = evolve_generation(swarm, sphere, config, rng)
        for idx in roles["winners"] + roles["leftovers"]:
            if not np.array_equal(swarm.positions[idx], before[idx]):
                preserved = False
        if swarm.best_fitness > last_best:
            monotone = False
        last_best = swarm.best_fitness
    elapsed = time.perf_counter() - t0
    ok = preserved and monotone and elapsed < 5.0
    assert report(4, ok, f"100 generations pop 60: winners bitwise preserved="
                         f"{preserved}, global best monotone={monotone}, "
                         f"{elapsed:.1f}s")


def test_criterion_5_hoeffding_closed_form():
    # Independent high-precision evaluation of sqrt(D ln(2/delta) / (2n)).
    reference = math.sqrt(224.0 * math.log(2.0 / 0.05) / (2.0 * 5.0))
    got = hoeffding_epsilon(224, 0.05, 5)
    identity = hoeffding_epsilon(2, 2.0 / math.e, 1)
    ok = abs(got - reference) < 1e-12 and abs(identity - 1.0) <= 1e-15
    assert report(5, ok, f"epsilon(224, 0.05, 5) = {got!r} "
                         f"(reference {reference!r}), identity case = {identity!r}")


def test_criterion_6_swarm_effectiveness():
    seeds = [int(s) for s in
             RandomStream(0).substream("bench").generator.integers(0, 2 ** 31, 10)]
    t0 = time.perf_counter()
    results = compare_strategies("sphere", 224, 60 * 8 * 15, seeds)
    elapsed = time.perf_counter() - t0
    icso = float(np.median(results["icso"]))
    cso = float(np.median(results["cso"]))
    rand = float(np.median(results["random"]))
    ok = icso <= 0.1 * rand and icso <= 1.0 * cso and elapsed < 60.0
    assert report(6, ok, f"median best: icso={icso:.2f} cso={cso:.2f} "
                         f"random={rand:.2f} (ratios {icso / rand:.3f}, "
                         f"{icso / cso:.3f}) in {elapsed:.1f}s")


def test_criterion_7_tabular_oracle_equivalence():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n_ops in (3, 4, 5):
        ops = ("zero", "skip", "linear", "relu_linear", "tanh_linear")[:n_ops]
        layout = ArchLayout(1, ops)
        space = generate_space(layout, seed=100 + n_ops)
        ranked = ranking(space)
        top = set(ranked[:max(1, int(len(ranked) * 0.01))])
        hits = 0
        for seed in range(10):
            settings = SearchSettings(
                stage=StageConfig(max_total_epochs=25))
            result = run_search(settings, TabularBackend(space, layout), seed)
            if result.genotype.key() in top:
                hits += 1
        ok = ok and hits >= 8
        details.append(f"{space.size} genotypes: {hits}/10 in top 1%")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    assert report(7, ok, "; ".join(details) + f"; {elapsed:.1f}s")


class _WarmupProbe(SupernetBackend):
    """Records the architecture scores seen by every weight-training epoch."""

    def __init__(self, *args):
        super().__init__(*args)
        self.alpha_seen = []

    def train_weight_epoch(self, alpha, eta_w, batch_size, rng):
        self.alpha_seen.append(alpha.encode().copy())
        super().train_weight_epoch(alpha, eta_w, batch_size, rng)


def _default_supernet_backend(seed, probe=False):
    data_rng = RandomStream(seed).substream("data").generator
    init_rng = RandomStream(seed).substream("init").generator
    dataset = SyntheticDataset.spirals(data_rng)
    state = SupernetState.init(LAYOUT, init_rng)
    cls = _WarmupProbe if probe else SupernetBackend
    return cls(LAYOUT, dataset, state)


def test_criterion_8_end_to_end_desk_run():
    settings = SearchSettings()    # all defaults
    backend = _default_supernet_backend(0, probe=True)
    t0 = time.perf_counter()
    result = run_search(settings, backend, seed=0)
    elapsed = time.perf_counter() - t0
    stages = [r.stage for r in result.records]
    seq_ok = (stages[:5] == [Stage.WARMUP.value] * 5
              and Stage.EXPLORATION.value in stages
              and Stage.STABILITY.value in stages)
    frozen = all(np.all(a == 0.0) for a in backend.alpha_seen[:5])
    term_ok = result.termination in (Termination.EARLY_STOP,
                                     Termination.MAX_EPOCHS)
    ok = seq_ok and frozen and term_ok and elapsed < 300.0
    assert report(8, ok, f"stages {sorted(set(stages))}, alpha frozen in "
                         f"warm-up={frozen}, termination="
                         f"{result.termination.value}, final val acc="
                         f"{result.records[-1].validation_accuracy:.3f}, "
                         f"{elapsed:.1f}s")


def test_criterion_9_diversity_ablation():
    # Under-trained regime (no warm-up, harder spirals, short horizon) where
    # parameter-free operations are an attractive shortcut.
    def backend(seed):
        d = RandomStream(seed).substream("data").generator
        i = RandomStream(seed).substream("init").generator
        data = SyntheticDataset.spirals(d, n_train=300, n_val=150,
                                        noise=0.15, turns=1.5)
        return SupernetBackend(LAYOUT, data, SupernetState.init(LAYOUT, i))

    def mean_pf(lam_s, lam_o):
        fracs = []
        for seed in range(10):
            settings = SearchSettings(
                stage=StageConfig(warmup_epochs=0, max_total_epochs=12),
                weights=FitnessWeights(lam_s, lam_o))
            result = run_search(settings, backend(seed), seed)
            fracs.append(parameter_free_fraction(result.genotype, LAYOUT))
        return float(np.mean(fracs))

    no_div = mean_pf(0.0, 0.0)
    with_div = mean_pf(0.3, 0.2)
    ok = no_div >= with_div
    assert report(9, ok, f"mean parameter-free fraction: no diversity="
                         f"{no_div:.3f}, weights (0.3, 0.2)={with_div:.3f}")


def test_criterion_10_reproducibility(tmp_path):
    outputs = []
    for name in ("run1", "run2"):
        out = str(tmp_path / name)
        rc = main_cli(["search", "--seed", "7", "--out", out])
        assert rc == 0
        with open(os.path.join(out, "log.csv"), "rb") as fh:
            log_bytes = fh.read()
        with open(os.path.join(out, "genotype.txt"), "rb") as fh:
            gen_bytes = fh.read()
        outputs.append((log_bytes, gen_bytes))
    ok = outputs[0] == outputs[1]
    assert report(10, ok, f"two `search --seed 7` runs byte-identical={ok} "
                          f"(log {len(outputs[0][0])} bytes, genotype "
                          f"{len(outputs[0][1])} bytes)")

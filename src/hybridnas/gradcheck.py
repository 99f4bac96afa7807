"""Finite-difference verification of the analytic gradients.

Central differences at a configurable step, checked coordinate by
coordinate against the reverse-mode gradients.  This is the independent
oracle: it never calls the analytic backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .supernet import (_ACTIVATIONS, ArchLayout, SupernetState, forward,
                       loss, loss_and_grads)

# Central-difference step; make_gradcheck_problem keeps every kinked
# pre-activation 50 steps away from its kink.
STEP = 1e-4


@dataclass
class GradCheckResult:
    max_rel_error_weights: float
    max_rel_error_alpha: float
    num_weight_coords: int
    num_alpha_coords: int

    @property
    def max_rel_error(self) -> float:
        return max(self.max_rel_error_weights, self.max_rel_error_alpha)


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def _central_diff(eval_at, vec: np.ndarray, step: float) -> np.ndarray:
    """Perturb ``vec`` in place, one coordinate at a time, and difference
    ``eval_at()``; ``vec`` is restored."""
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        orig = vec[i]
        vec[i] = orig + step
        up = eval_at()
        vec[i] = orig - step
        down = eval_at()
        vec[i] = orig
        grad[i] = (up - down) / (2 * step)
    return grad


def min_kink_distance(state: SupernetState, alpha: np.ndarray,
                      x: np.ndarray) -> float:
    """Smallest |pre-activation| over kinked ops (relu, abs) in a forward
    pass.  Central differences are wrong when a perturbation crosses a
    kink, so checks should only run where this distance is comfortably
    larger than the step."""
    traces: list = []
    forward(state, alpha, x, traces)
    layout = state.layout
    kinked = [k for op, k in zip(layout.candidate_ops, layout.param_slots)
              if k is not None and _ACTIVATIONS[op][2]]
    dist = np.inf
    for trace in traces:
        for _, _, _, pre, _ in trace.edges:
            for k in kinked:
                dist = min(dist, float(np.min(np.abs(pre[k]))))
    return dist


def make_gradcheck_problem(layout: ArchLayout, seed: int, batch: int = 8,
                           feature_dim: int = 16):
    """Deterministically build a three-class (state, alpha, x, y) tuple whose
    pre-activations sit away from kinks, scanning seeds from ``seed``."""
    for trial in range(seed, seed + 1000):
        rng = np.random.default_rng(trial)
        state = SupernetState.init(layout, rng, feature_dim=feature_dim)
        alpha = rng.normal(0, 0.5, (2, layout.edges_per_cell, layout.num_ops))
        x = rng.normal(size=(batch, state.in_dim))
        y = rng.integers(0, state.num_classes, size=batch)
        if min_kink_distance(state, alpha, x) > 50 * STEP:
            return state, alpha, x, y
    raise RuntimeError("no kink-safe gradcheck configuration found")


def check_gradients(state: SupernetState, alpha: np.ndarray, x: np.ndarray,
                    y: np.ndarray, step: float = STEP) -> GradCheckResult:
    """Compare every weight and alpha coordinate against central
    finite differences."""
    _, wgrads, agrad = loss_and_grads(state, alpha, x, y)
    probe = state.copy()
    numeric_w = _central_diff(lambda: loss(probe, alpha, x, y),
                              probe.weights, step)
    probe_alpha = alpha.copy()
    numeric_a = _central_diff(lambda: loss(state, probe_alpha, x, y),
                              probe_alpha.reshape(-1), step)
    return GradCheckResult(
        max_rel_error_weights=_rel_error(wgrads.weights, numeric_w),
        max_rel_error_alpha=_rel_error(agrad.ravel(), numeric_a),
        num_weight_coords=wgrads.weights.size,
        num_alpha_coords=agrad.size,
    )

"""Desk-scale differentiable supernet.

A cell is a small DAG: two input nodes (both fed the cell input) and N
intermediate nodes, each summing mixed operations over all predecessors.
Every edge carries a softmax-weighted mixture of candidate operations; the
parameterized candidates are dense transforms with elementwise activations.
Two cells (independent "normal" and "reduce" parameter sets) run in
sequence between a linear stem and a linear classifier.

Gradients for both network weights and architecture scores are computed by
hand-written reverse mode in double precision; `gradcheck` provides the
finite-difference oracle used to verify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Candidate operation registry.  "zero" and "skip" are parameter-free; the
# rest apply a dense transform followed by an elementwise activation.
_ACTIVATIONS = {
    "linear": (lambda z: z, lambda z: np.ones_like(z)),
    "relu_linear": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
    "tanh_linear": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "sigmoid_linear": (
        lambda z: 1.0 / (1.0 + np.exp(-z)),
        lambda z: (s := 1.0 / (1.0 + np.exp(-z))) * (1.0 - s),
    ),
    "abs_linear": (np.abs, np.sign),
    "sin_linear": (np.sin, np.cos),
}

PARAM_FREE_OPS = ("zero", "skip")
KNOWN_OPS = PARAM_FREE_OPS + tuple(_ACTIVATIONS)

DEFAULT_OPS = ("zero", "skip", "linear", "relu_linear", "tanh_linear")


def param_dimension(num_nodes: int, num_ops: int) -> int:
    """Total architecture-parameter dimension: two cells, one score per
    (edge, op), with each intermediate node i connected to its i+2
    predecessors."""
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if num_ops < 1:
        raise ValueError(f"num_ops must be >= 1, got {num_ops}")
    edges = sum(i + 2 for i in range(num_nodes))
    return 2 * edges * num_ops


@dataclass(frozen=True)
class ArchLayout:
    """Topology of the search space."""

    num_nodes: int = 2
    candidate_ops: tuple[str, ...] = DEFAULT_OPS

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        unknown = [o for o in self.candidate_ops if o not in KNOWN_OPS]
        if unknown:
            raise ValueError(f"unknown candidate ops: {unknown}")

    @property
    def num_ops(self) -> int:
        return len(self.candidate_ops)

    @property
    def edges_per_cell(self) -> int:
        return sum(i + 2 for i in range(self.num_nodes))

    @property
    def dimension(self) -> int:
        return param_dimension(self.num_nodes, self.num_ops)

    def edge_list(self) -> list[tuple[int, int]]:
        """(source node, target node) pairs in flattening order: for each
        intermediate node in sequence, predecessors in ascending index.
        Nodes 0 and 1 are the cell inputs; intermediate nodes start at 2."""
        edges = []
        for t in range(self.num_nodes):
            j = t + 2
            for i in range(j):
                edges.append((i, j))
        return edges

    @property
    def param_slots(self) -> tuple[int | None, ...]:
        """Per-op index into the weight tensor, None for parameter-free ops."""
        slots, k = [], 0
        for op in self.candidate_ops:
            if op in PARAM_FREE_OPS:
                slots.append(None)
            else:
                slots.append(k)
                k += 1
        return tuple(slots)

    @property
    def num_param_ops(self) -> int:
        return sum(1 for s in self.param_slots if s is not None)


@dataclass
class ArchParams:
    """Architecture scores of both cells in one array of shape
    (2, edges_per_cell, num_ops): the normal cell first, then the reduce
    cell."""

    scores: np.ndarray

    @classmethod
    def zeros(cls, layout: ArchLayout) -> "ArchParams":
        return cls(np.zeros((2, layout.edges_per_cell, layout.num_ops)))

    def encode(self) -> np.ndarray:
        """Flatten to a position vector: normal cell first, row-major by
        edge then op."""
        return self.scores.flatten()

    @classmethod
    def decode(cls, position: np.ndarray, layout: ArchLayout) -> "ArchParams":
        position = np.asarray(position, dtype=float)
        if position.shape != (layout.dimension,):
            raise ValueError(f"position has length {position.shape[0]}, "
                             f"expected {layout.dimension}")
        return cls(position.reshape(2, layout.edges_per_cell,
                                    layout.num_ops).copy())


@dataclass
class Genotype:
    """One selected operation index per edge, per cell."""

    normal: tuple[int, ...]
    reduce: tuple[int, ...]

    def to_text(self, layout: ArchLayout) -> str:
        """One line per cell, comma-separated op names in edge order."""
        lines = []
        for sel in (self.normal, self.reduce):
            lines.append(",".join(layout.candidate_ops[i] for i in sel))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, layout: ArchLayout) -> "Genotype":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if len(lines) != 2:
            raise ValueError(f"genotype text must have 2 cell lines, got {len(lines)}")
        cells = []
        for ln in lines:
            names = [n.strip() for n in ln.split(",")]
            if len(names) != layout.edges_per_cell:
                raise ValueError(f"expected {layout.edges_per_cell} ops per cell, "
                                 f"got {len(names)}")
            try:
                cells.append(tuple(layout.candidate_ops.index(n) for n in names))
            except ValueError:
                bad = [n for n in names if n not in layout.candidate_ops]
                raise ValueError(f"unknown op names {bad}")
        return cls(cells[0], cells[1])

    def key(self) -> str:
        return genotype_key(self.normal + self.reduce)


def genotype_key(indices: tuple[int, ...]) -> str:
    """Lookup key of a genotype: the op index of every edge, normal cell
    first, joined by '-'."""
    return "-".join(str(i) for i in indices)


def discretize(alpha: ArchParams) -> Genotype:
    """Per-edge argmax over op scores; ties go to the lowest op index."""
    if not np.all(np.isfinite(alpha.scores)):
        raise ValueError("architecture scores must be finite")
    normal, reduce = alpha.scores.argmax(axis=2).tolist()
    return Genotype(tuple(normal), tuple(reduce))


def op_frequencies(genotype: Genotype, layout: ArchLayout) -> np.ndarray:
    """Selection frequency of each operation over all edges of both cells."""
    counts = np.bincount(genotype.normal + genotype.reduce,
                         minlength=layout.num_ops)
    return counts / (2 * layout.edges_per_cell)


def parameter_free_fraction(genotype: Genotype, layout: ArchLayout) -> float:
    """Fraction of edges selecting a parameter-free operation."""
    freqs = op_frequencies(genotype, layout)
    return float(sum(freqs[i] for i, op in enumerate(layout.candidate_ops)
                     if op in PARAM_FREE_OPS))


def edge_weights(alpha_edge: np.ndarray) -> np.ndarray:
    """Stable softmax over one edge's op scores."""
    a = np.asarray(alpha_edge, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("edge scores must be finite")
    z = np.exp(a - a.max())
    return z / z.sum()


@dataclass
class SupernetState:
    """All trainable weights plus the topology."""

    layout: ArchLayout
    feature_dim: int
    num_classes: int
    in_dim: int
    stem_w: np.ndarray
    stem_b: np.ndarray
    op_w: np.ndarray      # (2, edges_per_cell, num_param_ops, F, F)
    op_b: np.ndarray      # (2, edges_per_cell, num_param_ops, F)
    proj_w: np.ndarray    # (2, num_nodes * F, F)
    cls_w: np.ndarray
    cls_b: np.ndarray

    _ARRAYS = ("stem_w", "stem_b", "op_w", "op_b", "proj_w", "cls_w", "cls_b")

    @classmethod
    def init(cls, layout: ArchLayout, rng: np.random.Generator,
             feature_dim: int = 16, num_classes: int = 3,
             in_dim: int = 2) -> "SupernetState":
        f = feature_dim
        k = layout.edges_per_cell
        p = max(layout.num_param_ops, 1)
        return cls(
            layout=layout, feature_dim=f, num_classes=num_classes, in_dim=in_dim,
            stem_w=rng.normal(0, math.sqrt(2.0 / in_dim), (in_dim, f)),
            stem_b=np.zeros(f),
            op_w=rng.normal(0, math.sqrt(2.0 / f), (2, k, p, f, f)),
            op_b=np.zeros((2, k, p, f)),
            proj_w=rng.normal(0, math.sqrt(2.0 / (layout.num_nodes * f)),
                              (2, layout.num_nodes * f, f)),
            cls_w=rng.normal(0, math.sqrt(2.0 / f), (f, num_classes)),
            cls_b=np.zeros(num_classes),
        )

    def copy(self) -> "SupernetState":
        return SupernetState(self.layout, self.feature_dim, self.num_classes,
                             self.in_dim,
                             *(getattr(self, n).copy() for n in self._ARRAYS))

    def flat_weights(self) -> np.ndarray:
        return np.concatenate([getattr(self, n).ravel() for n in self._ARRAYS])

    def set_flat_weights(self, vec: np.ndarray) -> None:
        off = 0
        for n in self._ARRAYS:
            arr = getattr(self, n)
            arr[...] = vec[off:off + arr.size].reshape(arr.shape)
            off += arr.size
        if off != vec.size:
            raise ValueError(f"flat weight vector has length {vec.size}, expected {off}")


def _zero_grads(state: SupernetState) -> dict[str, np.ndarray]:
    return {n: np.zeros_like(getattr(state, n)) for n in SupernetState._ARRAYS}


@dataclass
class CellTrace:
    """What one cell's forward pass keeps for the backward pass."""

    nodes: list[np.ndarray]   # node outputs; nodes 0 and 1 are the cell input
    concat: np.ndarray        # intermediate node outputs side by side
    # per edge, in edge order: (source node, input, op weights, op outputs,
    # pre-activations); outputs and pre-activations are None where absent
    edges: list[tuple]
    out: np.ndarray           # cell output, concat @ proj_w[cell]


def _cell_forward(state: SupernetState, cell: int, alpha_cell: np.ndarray,
                  s: np.ndarray, traces: list[CellTrace] | None):
    layout = state.layout
    slots = layout.param_slots
    nodes = [s, s]
    edge = 0
    edge_trace = []
    for t in range(layout.num_nodes):
        acc = np.zeros_like(s)
        for i in range(t + 2):
            x = nodes[i]
            w = edge_weights(alpha_cell[edge])
            outs, pres = [], []
            mixed = np.zeros_like(x)
            for o, op in enumerate(layout.candidate_ops):
                if op == "zero":
                    outs.append(None)
                    pres.append(None)
                elif op == "skip":
                    outs.append(x)
                    pres.append(None)
                    mixed += w[o] * x
                else:
                    pre = x @ state.op_w[cell, edge, slots[o]] + state.op_b[cell, edge, slots[o]]
                    out = _ACTIVATIONS[op][0](pre)
                    outs.append(out)
                    pres.append(pre)
                    mixed += w[o] * out
            acc = acc + mixed
            if traces is not None:
                edge_trace.append((i, x, w, outs, pres))
            edge += 1
        nodes.append(acc)
    concat = np.concatenate(nodes[2:], axis=1)
    out = concat @ state.proj_w[cell]
    if traces is not None:
        traces.append(CellTrace(nodes, concat, edge_trace, out))
    return out


def _forward(state: SupernetState, alpha: ArchParams, x: np.ndarray,
             traces: list[CellTrace] | None = None) -> np.ndarray:
    """Logits; with ``traces`` given, appends one CellTrace per cell."""
    if x.ndim != 2 or x.shape[1] != state.in_dim:
        raise ValueError(f"batch has shape {x.shape}, expected (*, {state.in_dim})")
    h = x @ state.stem_w + state.stem_b
    for cell in range(2):
        h = _cell_forward(state, cell, alpha.scores[cell], h, traces)
    return h @ state.cls_w + state.cls_b


def forward(state: SupernetState, alpha: ArchParams, x: np.ndarray) -> np.ndarray:
    """Logits for a batch of feature vectors."""
    return _forward(state, alpha, np.asarray(x, dtype=float))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def loss(state: SupernetState, alpha: ArchParams, x: np.ndarray,
         y: np.ndarray) -> float:
    """Mean cross-entropy over the batch."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    logp = _log_softmax(_forward(state, alpha, x))
    return float(-logp[np.arange(y.size), y].mean())


def _cell_backward(state: SupernetState, cell: int, d_out: np.ndarray,
                   trace: CellTrace, wgrads: dict, agrad_cell: np.ndarray
                   ) -> np.ndarray:
    layout = state.layout
    slots = layout.param_slots
    nodes = trace.nodes
    f = state.feature_dim

    wgrads["proj_w"][cell] += trace.concat.T @ d_out
    d_concat = d_out @ state.proj_w[cell].T
    d_nodes = [np.zeros_like(nodes[0]) for _ in nodes]
    for t in range(layout.num_nodes):
        d_nodes[t + 2] = d_concat[:, t * f:(t + 1) * f]

    edge = len(trace.edges) - 1
    for t in reversed(range(layout.num_nodes)):
        d_acc = d_nodes[t + 2]
        for _ in range(t + 2):
            i, x, w, outs, pres = trace.edges[edge]
            # softmax backward: d alpha = w * (g - <w, g>), g_o = <d_acc, out_o>
            g = np.zeros(layout.num_ops)
            d_x = np.zeros_like(x)
            for o, op in enumerate(layout.candidate_ops):
                if op == "zero":
                    continue
                g[o] = float(np.sum(d_acc * outs[o]))
                if op == "skip":
                    d_x += w[o] * d_acc
                else:
                    d_pre = (w[o] * d_acc) * _ACTIVATIONS[op][1](pres[o])
                    wgrads["op_w"][cell, edge, slots[o]] += x.T @ d_pre
                    wgrads["op_b"][cell, edge, slots[o]] += d_pre.sum(axis=0)
                    d_x += d_pre @ state.op_w[cell, edge, slots[o]].T
            agrad_cell[edge] += w * (g - float(w @ g))
            d_nodes[i] += d_x
            edge -= 1
    return d_nodes[0] + d_nodes[1]


def loss_and_grads(state: SupernetState, alpha: ArchParams, x: np.ndarray,
                   y: np.ndarray
                   ) -> tuple[float, dict[str, np.ndarray], ArchParams]:
    """Loss plus exact reverse-mode gradients w.r.t. weights and alpha."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    traces: list[CellTrace] = []
    logits = _forward(state, alpha, x, traces)
    logp = _log_softmax(logits)
    n = y.size
    loss_val = float(-logp[np.arange(n), y].mean())

    wgrads = _zero_grads(state)
    agrad = ArchParams.zeros(state.layout)

    d_logits = np.exp(logp)
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n

    wgrads["cls_w"] += traces[1].out.T @ d_logits
    wgrads["cls_b"] += d_logits.sum(axis=0)
    d_h = d_logits @ state.cls_w.T
    for cell in (1, 0):
        d_h = _cell_backward(state, cell, d_h, traces[cell], wgrads,
                             agrad.scores[cell])
    wgrads["stem_w"] += x.T @ d_h
    wgrads["stem_b"] += d_h.sum(axis=0)
    return loss_val, wgrads, agrad


def grad_weights(state: SupernetState, alpha: ArchParams, x: np.ndarray,
                 y: np.ndarray) -> dict[str, np.ndarray]:
    return loss_and_grads(state, alpha, x, y)[1]


def grad_alpha(state: SupernetState, alpha: ArchParams, x: np.ndarray,
               y: np.ndarray) -> ArchParams:
    return loss_and_grads(state, alpha, x, y)[2]


def sgd_step_weights(state: SupernetState, grads: dict[str, np.ndarray],
                     eta_w: float) -> SupernetState:
    """In-place gradient step on all weight arrays."""
    if eta_w <= 0:
        raise ValueError(f"eta_w must be positive, got {eta_w}")
    for name in SupernetState._ARRAYS:
        arr = getattr(state, name)
        g = grads[name]
        if g.shape != arr.shape:
            raise ValueError(f"gradient shape mismatch for {name}: "
                             f"{g.shape} != {arr.shape}")
        arr -= eta_w * g
    return state


def validation_accuracy(state: SupernetState, alpha: ArchParams,
                        x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.shape[0] == 0:
        raise ValueError("split must be non-empty")
    pred = forward(state, alpha, x).argmax(axis=1)
    return float((pred == y).mean())


@dataclass
class SyntheticDataset:
    """Interleaved-spiral classification data with disjoint balanced splits."""

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray

    @classmethod
    def spirals(cls, rng: np.random.Generator, n_train: int = 600,
                n_val: int = 300, num_classes: int = 3, noise: float = 0.10,
                turns: float = 0.8) -> "SyntheticDataset":
        for name, n in (("n_train", n_train), ("n_val", n_val)):
            if n <= 0 or n % num_classes:
                raise ValueError(f"{name}={n} must be a positive multiple of "
                                 f"num_classes={num_classes}")
        per_tr = n_train // num_classes
        per_va = n_val // num_classes
        tr_x, tr_y, va_x, va_y = [], [], [], []
        for c in range(num_classes):
            n = per_tr + per_va
            t = rng.uniform(0.05, 1.0, n)
            angle = 2 * math.pi * (turns * t + c / num_classes)
            r = t
            pts = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
            pts += noise * rng.normal(size=pts.shape)
            tr_x.append(pts[:per_tr])
            tr_y.append(np.full(per_tr, c))
            va_x.append(pts[per_tr:])
            va_y.append(np.full(per_va, c))
        perm_tr = rng.permutation(n_train)
        perm_va = rng.permutation(n_val)
        return cls(np.concatenate(tr_x)[perm_tr], np.concatenate(tr_y)[perm_tr],
                   np.concatenate(va_x)[perm_va], np.concatenate(va_y)[perm_va])

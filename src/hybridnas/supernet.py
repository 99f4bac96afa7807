"""Desk-scale differentiable supernet.

A cell is a small DAG: two input nodes (both fed the cell input) and N
intermediate nodes, each summing mixed operations over all predecessors.
Every edge carries a softmax-weighted mixture of candidate operations; the
parameterized candidates are dense transforms with elementwise activations.
Two cells (independent "normal" and "reduce" parameter sets) run in
sequence between a linear stem and a linear classifier.  The architecture
scores of both cells are one float array of shape (2, edges, ops), normal
cell first.

Gradients for both network weights and architecture scores are computed by
hand-written reverse mode in double precision; `gradcheck` provides the
finite-difference oracle used to verify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Candidate operation registry.  "zero" and "skip" are parameter-free; the
# rest apply a dense transform followed by an elementwise activation.  Each
# entry is (activation, derivative, kinked).  The derivative takes the
# pre-activation and the activation's output of the same forward pass, so it
# need not evaluate the activation again.  A kinked activation has a point
# where its derivative jumps, which central differences must not straddle.
_ACTIVATIONS = {
    "linear": (lambda z: z, lambda z, a: np.ones_like(z), False),
    "relu_linear": (lambda z: np.maximum(z, 0.0),
                    lambda z, a: (z > 0).astype(float), True),
    "tanh_linear": (np.tanh, lambda z, a: 1.0 - a ** 2, False),
    "sigmoid_linear": (lambda z: 1.0 / (1.0 + np.exp(-z)),
                       lambda z, a: a * (1.0 - a), False),
    "abs_linear": (np.abs, lambda z, a: np.sign(z), True),
    "sin_linear": (np.sin, lambda z, a: np.cos(z), False),
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
    """Topology of the search space.  The derived sizes are computed once
    per instance; they are not fields, so equality and hashing read only
    ``num_nodes`` and ``candidate_ops``."""

    num_nodes: int = 2
    candidate_ops: tuple[str, ...] = DEFAULT_OPS

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if not self.candidate_ops:
            raise ValueError("candidate_ops must name at least one op")
        unknown = [o for o in self.candidate_ops if o not in KNOWN_OPS]
        if unknown:
            raise ValueError(f"unknown candidate ops: {unknown}")
        ops = self.candidate_ops
        dup = sorted({o for o in ops if ops.count(o) > 1})
        if dup:
            raise ValueError(f"duplicate candidate ops: {dup}")

    @cached_property
    def num_ops(self) -> int:
        return len(self.candidate_ops)

    @cached_property
    def edges_per_cell(self) -> int:
        return sum(i + 2 for i in range(self.num_nodes))

    @cached_property
    def dimension(self) -> int:
        return param_dimension(self.num_nodes, self.num_ops)

    @cached_property
    def param_ops(self) -> tuple[int, ...]:
        """Op index of each parametric op, in weight-slot order."""
        return tuple(o for o, op in enumerate(self.candidate_ops)
                     if op not in PARAM_FREE_OPS)

    @cached_property
    def num_param_ops(self) -> int:
        return len(self.param_ops)

    @cached_property
    def activations(self) -> tuple[tuple, ...]:
        """The registry entry (activation, derivative, kinked) of each
        weight slot."""
        return tuple(_ACTIVATIONS[self.candidate_ops[o]]
                     for o in self.param_ops)

    @cached_property
    def mix(self) -> tuple[tuple[int, int | None], ...]:
        """(op, slot) of each op an edge sums, in op order: the slot is
        None for skip, which passes its input through, and zero is left
        out."""
        slot = {o: k for k, o in enumerate(self.param_ops)}
        return tuple((o, slot.get(o)) for o, op in enumerate(self.candidate_ops)
                     if op != "zero")


def decode(position: np.ndarray, layout: ArchLayout) -> np.ndarray:
    """A position vector as a new (2, edges_per_cell, num_ops) score array:
    normal cell first, row-major by edge then op.  ``alpha.flatten()`` is
    the inverse."""
    position = np.asarray(position, dtype=float)
    if position.shape != (layout.dimension,):
        raise ValueError(f"position has shape {position.shape}, expected "
                         f"one vector of length {layout.dimension}")
    return position.reshape(2, layout.edges_per_cell, layout.num_ops).copy()


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

    def key(self) -> str:
        return genotype_key(self.normal + self.reduce)


def genotype_key(indices: tuple[int, ...]) -> str:
    """Lookup key of a genotype: the op index of every edge, normal cell
    first, joined by '-'."""
    return "-".join(str(i) for i in indices)


def discretize(alpha: np.ndarray) -> Genotype:
    """Per-edge argmax over op scores; ties go to the lowest op index."""
    if not np.isfinite(alpha).all():
        raise ValueError("architecture scores must be finite")
    normal, reduce = alpha.argmax(axis=2).tolist()
    return Genotype(tuple(normal), tuple(reduce))


def op_frequencies(genotype: Genotype, layout: ArchLayout) -> np.ndarray:
    """Selection frequency of each operation over all edges of both cells."""
    counts = np.bincount(genotype.normal + genotype.reduce,
                         minlength=layout.num_ops)
    return counts / (2 * layout.edges_per_cell)


def parameter_free_fraction(genotype: Genotype, layout: ArchLayout) -> float:
    """Fraction of edges selecting a parameter-free operation."""
    freqs = op_frequencies(genotype, layout)
    return float(sum(np.delete(freqs, layout.param_ops)))


def edge_weights(scores: np.ndarray) -> np.ndarray:
    """Stable softmax over the op scores (the last axis) of every edge."""
    a = np.asarray(scores, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("edge scores must be finite")
    z = np.exp(a - a.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


class SupernetState:
    """The topology plus every trainable weight in one flat float64 vector,
    ``weights``.  The named arrays stem_w, stem_b, op_w, op_b, proj_w, cls_w
    and cls_b are views into it, in that order; write into them in place,
    never rebind them.  A weight gradient is a state of the same topology."""

    def __init__(self, layout: ArchLayout, feature_dim: int, num_classes: int,
                 in_dim: int):
        """All weights zero."""
        if feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        self.layout = layout
        self.feature_dim = f = feature_dim
        self.num_classes = num_classes
        self.in_dim = in_dim
        k = layout.edges_per_cell
        p = max(layout.num_param_ops, 1)
        shapes = ((in_dim, f), (f,),                   # stem_w, stem_b
                  (2, k, p, f, f), (2, k, p, f),       # op_w, op_b
                  (2, layout.num_nodes * f, f),        # proj_w
                  (f, num_classes), (num_classes,))    # cls_w, cls_b
        sizes = [math.prod(shape) for shape in shapes]
        self.weights = np.zeros(sum(sizes))
        views, off = [], 0
        for shape, size in zip(shapes, sizes):
            views.append(self.weights[off:off + size].reshape(shape))
            off += size
        (self.stem_w, self.stem_b, self.op_w, self.op_b, self.proj_w,
         self.cls_w, self.cls_b) = views

    @classmethod
    def init(cls, layout: ArchLayout, rng: np.random.Generator,
             feature_dim: int = 16, num_classes: int = 3,
             in_dim: int = 2) -> "SupernetState":
        """He-normal weights, drawn in this order; zero biases."""
        state = cls(layout, feature_dim, num_classes, in_dim)
        f = feature_dim
        for view, fan_in in ((state.stem_w, in_dim), (state.op_w, f),
                             (state.proj_w, layout.num_nodes * f),
                             (state.cls_w, f)):
            view[...] = rng.normal(0, math.sqrt(2.0 / fan_in), view.shape)
        return state

    def like(self) -> "SupernetState":
        """A state of the same topology with all weights zero."""
        return SupernetState(self.layout, self.feature_dim, self.num_classes,
                             self.in_dim)

    def copy(self) -> "SupernetState":
        out = self.like()
        out.weights[...] = self.weights
        return out


@dataclass
class CellTrace:
    """What one cell's forward pass keeps for the backward pass."""

    concat: np.ndarray        # intermediate node outputs side by side
    # per edge, in edge order: (source node, input, op weights,
    # pre-activations, outputs); the last two stack the parametric ops in
    # slot order, shape (num_param_ops, n, feature_dim), and are None when
    # the layout has no parametric op
    edges: list[tuple]
    out: np.ndarray           # cell output, concat @ proj_w[cell]


@dataclass(frozen=True, eq=False)
class Embedding:
    """The part of a forward pass over one batch that does not read alpha:
    the stem output and the op transforms of cell 0's input-node edges.
    ``embed`` makes it; ``forward`` and ``loss`` take it for that same
    batch array while the weights equal the copy kept here."""

    x: object                 # the batch array it was made from
    stem: np.ndarray          # x @ stem_w + stem_b
    # (pre-activations, outputs) of each of cell 0's 2 * num_nodes
    # input-node edges, in edge order, as in CellTrace.edges
    edges: tuple[tuple, ...]
    weights: np.ndarray       # a copy of state.weights when it was made


def _edge_transform(state: SupernetState, cell: int, edge: int,
                    x: np.ndarray) -> tuple:
    """(pre-activations, outputs) of all parametric ops on one edge, from
    one stacked matmul; (None, None) when the layout has none."""
    layout = state.layout
    if not layout.num_param_ops:
        return None, None
    pre = x @ state.op_w[cell, edge] + state.op_b[cell, edge][:, None, :]
    out = np.empty_like(pre)
    for k, (act, _, _) in enumerate(layout.activations):
        out[k] = act(pre[k])
    return pre, out


def _stem(state: SupernetState, x) -> np.ndarray:
    """Stem output of a non-empty (n, in_dim) batch."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] != state.in_dim:
        raise ValueError(f"batch has shape {x.shape}, expected a non-empty "
                         f"(n, {state.in_dim}) array")
    return x @ state.stem_w + state.stem_b


def embed(state: SupernetState, x: np.ndarray) -> Embedding:
    """The alpha-free part of the forward pass over a non-empty
    (n, in_dim) batch.  Its arrays are read-only."""
    s = _stem(state, x)
    edges, first = [], 0
    for t in range(state.layout.num_nodes):
        edges += [_edge_transform(state, 0, first + i, s) for i in (0, 1)]
        first += t + 2
    emb = Embedding(x, s, tuple(edges), state.weights.copy())
    for a in (s, emb.weights, *(a for e in edges for a in e if a is not None)):
        a.flags.writeable = False
    return emb


def _cell_forward(state: SupernetState, cell: int, weights: np.ndarray,
                  s: np.ndarray, traces: list[CellTrace] | None,
                  input_edges: tuple[tuple, ...] | None = None):
    """One cell; ``weights`` are its (edges, ops) mixing weights.  The op
    transforms of the input-node edges come from ``input_edges`` when it is
    given (an Embedding's ``edges``) and are computed otherwise."""
    layout = state.layout
    nodes = [s, s]
    edge = 0
    edge_trace = []
    for t in range(layout.num_nodes):
        acc = np.zeros(s.shape)
        for i in range(t + 2):
            x = nodes[i]
            w = weights[edge]
            pre = out = None   # free the last edge's transforms first
            if i < 2 and input_edges is not None:
                pre, out = input_edges[2 * t + i]
            else:
                pre, out = _edge_transform(state, cell, edge, x)
            # mixed in op order, whatever the order of candidate_ops
            mixed = np.zeros(x.shape)
            for o, k in layout.mix:
                mixed += w[o] * (x if k is None else out[k])
            acc = acc + mixed
            if traces is not None:
                edge_trace.append((i, x, w, pre, out))
            edge += 1
        nodes.append(acc)
    concat = np.concatenate(nodes[2:], axis=1)
    out = concat @ state.proj_w[cell]
    if traces is not None:
        traces.append(CellTrace(concat, edge_trace, out))
    return out


def forward(state: SupernetState, alpha: np.ndarray, x: np.ndarray,
            traces: list[CellTrace] | None = None, *,
            embedding: Embedding | None = None) -> np.ndarray:
    """Logits for a non-empty (n, in_dim) batch; with ``traces`` given,
    appends one CellTrace per cell.  ``embedding``, if given, must come
    from ``embed(state, x)`` for this same ``x`` array, with the weights
    unchanged since; the result is bitwise the same as without it.
    Without it, the input-node edges are transformed one at a time, like
    every other edge, so a large batch never holds all of them at once."""
    if embedding is None:
        s, input_edges = _stem(state, x), None
    elif embedding.x is not x:
        raise ValueError("embedding was made from a different batch array")
    elif not np.array_equal(embedding.weights, state.weights):
        raise ValueError("embedding is stale: the weights changed since it "
                         "was made")
    else:
        s, input_edges = embedding.stem, embedding.edges
    weights = edge_weights(alpha)
    h = _cell_forward(state, 0, weights[0], s, traces, input_edges)
    h = _cell_forward(state, 1, weights[1], h, traces)
    return h @ state.cls_w + state.cls_b


def _labels(state: SupernetState, y, n: int) -> np.ndarray:
    """``y`` as an array of ``n`` integer labels in [0, num_classes)."""
    y = np.asarray(y)
    if (y.shape != (n,) or y.dtype.kind not in "iu"
            or y.min() < 0 or y.max() >= state.num_classes):
        raise ValueError(f"labels must be {n} integers in "
                         f"[0, {state.num_classes}), one per batch row")
    return y


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def loss(state: SupernetState, alpha: np.ndarray, x: np.ndarray,
         y: np.ndarray, *, embedding: Embedding | None = None) -> float:
    """Mean cross-entropy over the batch; ``embedding`` as in ``forward``."""
    logp = _log_softmax(forward(state, alpha, x, embedding=embedding))
    y = _labels(state, y, logp.shape[0])
    return float(-logp[np.arange(y.size), y].mean())


def _cell_backward(state: SupernetState, cell: int, d_out: np.ndarray,
                   trace: CellTrace, wgrads: SupernetState | None,
                   agrad_cell: np.ndarray | None) -> np.ndarray:
    """Back through one cell: adds into ``wgrads`` and into the cell's
    (edges, ops) score gradient ``agrad_cell``, skipping either when it is
    None, and returns the gradient w.r.t. the cell input.  Without
    ``wgrads``, cell 0's input-node edges add nothing to that gradient: only
    the stem's weight gradient reads it."""
    layout = state.layout
    f = state.feature_dim

    if wgrads is not None:
        wgrads.proj_w[cell] += trace.concat.T @ d_out
    d_concat = d_out @ state.proj_w[cell].T
    d_nodes = [np.zeros(d_out.shape), np.zeros(d_out.shape)]
    for t in range(layout.num_nodes):
        d_nodes.append(d_concat[:, t * f:(t + 1) * f])
    need_input = wgrads is not None or cell == 1

    edge = len(trace.edges) - 1
    for t in reversed(range(layout.num_nodes)):
        d_acc = d_nodes[t + 2]
        for _ in range(t + 2):
            i, x, w, pre, out = trace.edges[edge]
            if agrad_cell is not None:
                # softmax backward: d alpha = w * (g - <w, g>), g_o = <d_acc, out_o>
                if out is not None:
                    g_slot = (d_acc * out).reshape(len(out), -1).sum(axis=1)
                g = np.zeros(layout.num_ops)
                for o, k in layout.mix:
                    g[o] = (d_acc * x).sum() if k is None else g_slot[k]
                agrad_cell[edge] += w * (g - float(w @ g))
            if need_input or i >= 2:
                if out is not None:
                    d_pre = np.empty_like(pre)
                    for k, (_, deriv, _) in enumerate(layout.activations):
                        d_pre[k] = deriv(pre[k], out[k])
                    d_pre *= w.take(layout.param_ops)[:, None, None] * d_acc
                    if wgrads is not None:
                        wgrads.op_w[cell, edge] += x.T @ d_pre
                        wgrads.op_b[cell, edge] += d_pre.sum(axis=1)
                    d_xs = d_pre @ state.op_w[cell, edge].transpose(0, 2, 1)
                # d_x in op order, whatever the order of candidate_ops
                d_x = np.zeros(x.shape)
                for o, k in layout.mix:
                    d_x += w[o] * d_acc if k is None else d_xs[k]
                d_nodes[i] += d_x
            edge -= 1
    return d_nodes[0] + d_nodes[1]


def loss_and_grads(state: SupernetState, alpha: np.ndarray, x: np.ndarray,
                   y: np.ndarray, *, need_weights: bool = True,
                   need_alpha: bool = True
                   ) -> tuple[float, SupernetState | None, np.ndarray | None]:
    """Loss plus exact reverse-mode gradients w.r.t. weights (a state of
    the same topology) and alpha.  A gradient not asked for is not
    computed, and is returned as None."""
    traces: list[CellTrace] = []
    logits = forward(state, alpha, x, traces)
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    y = _labels(state, y, n)
    logp = _log_softmax(logits)
    loss_val = float(-logp[np.arange(n), y].mean())

    wgrads = state.like() if need_weights else None
    agrad = np.zeros(alpha.shape) if need_alpha else None

    d_logits = np.exp(logp)
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n

    if wgrads is not None:
        wgrads.cls_w += traces[1].out.T @ d_logits
        wgrads.cls_b += d_logits.sum(axis=0)
    d_h = d_logits @ state.cls_w.T
    for cell in (1, 0):
        d_h = _cell_backward(state, cell, d_h, traces[cell], wgrads,
                             None if agrad is None else agrad[cell])
    if wgrads is not None:
        wgrads.stem_w += x.T @ d_h
        wgrads.stem_b += d_h.sum(axis=0)
    return loss_val, wgrads, agrad


def grad_weights(state: SupernetState, alpha: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> SupernetState:
    return loss_and_grads(state, alpha, x, y, need_alpha=False)[1]


def grad_alpha(state: SupernetState, alpha: np.ndarray, x: np.ndarray,
               y: np.ndarray) -> np.ndarray:
    return loss_and_grads(state, alpha, x, y, need_weights=False)[2]


def sgd_step_weights(state: SupernetState, grads: SupernetState,
                     eta_w: float) -> SupernetState:
    """In-place gradient step on all weights."""
    if eta_w <= 0:
        raise ValueError(f"eta_w must be positive, got {eta_w}")
    if grads.weights.shape != state.weights.shape:
        raise ValueError(f"gradient shape {grads.weights.shape} != weight "
                         f"shape {state.weights.shape}")
    state.weights -= eta_w * grads.weights
    return state


def validation_accuracy(state: SupernetState, alpha: np.ndarray,
                        x: np.ndarray, y: np.ndarray) -> float:
    pred = forward(state, alpha, x).argmax(axis=1)
    return float((pred == _labels(state, y, pred.shape[0])).mean())


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
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
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

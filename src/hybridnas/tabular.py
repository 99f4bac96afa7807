"""Finite tabular architecture space with a brute-force oracle.

Every genotype of a small layout maps to precomputed metrics (validation
accuracy, test accuracy, cost), loaded from a plain-text file.  Queries are
budgeted but cached, so re-evaluating a converged swarm is free.  A shipped
generator produces seeded synthetic spaces whose landscape includes
pairwise interactions, keeping greedy per-edge choice suboptimal.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .supernet import ArchLayout, Genotype, decode, discretize, genotype_key


class SpaceFormatError(ValueError):
    pass


class UnknownGenotypeError(KeyError):
    pass


class BudgetExhaustedError(RuntimeError):
    pass


@dataclass
class Metrics:
    valid_acc: float
    test_acc: float
    cost: float


@dataclass
class QueryBudget:
    queries_max: int = 10 ** 9
    _seen: set[int] = field(default_factory=set)

    @property
    def queries_used(self) -> int:
        return len(self._seen)

    def charge(self, row: int) -> None:
        if row in self._seen:
            return
        if self.queries_used >= self.queries_max:
            raise BudgetExhaustedError(
                f"query budget exhausted ({self.queries_max} distinct queries)")
        self._seen.add(row)


@dataclass(eq=False)
class TabularSpace:
    """One row of ``metrics`` per genotype, with columns valid_acc,
    test_acc and cost.  A genotype's row is its op indices read as a
    mixed-radix number, edge 0 most significant, which is the order of
    ``itertools.product`` and of a space file.  ``table`` is the read-only
    view by key string; spaces compare through it, as an array field has no
    boolean ``==``."""

    name: str
    num_edges: int
    op_names: tuple[str, ...]
    metrics: np.ndarray

    def __post_init__(self):
        # save_space writes the name on its own header line, and load_space
        # strips it.
        if "\n" in self.name or "\r" in self.name or self.name != self.name.strip():
            raise ValueError(f"name must be one line without leading or trailing "
                             f"whitespace, got {self.name!r}")
        # a tuple, so it compares equal to a layout's candidate_ops
        self.op_names = tuple(self.op_names)
        shape = (self.num_ops ** self.num_edges, 3)
        if self.metrics.shape != shape:
            raise ValueError(f"metrics has shape {self.metrics.shape}, expected {shape}")

    @property
    def num_ops(self) -> int:
        return len(self.op_names)

    @property
    def size(self) -> int:
        return len(self.metrics)

    @property
    def table(self) -> Mapping[str, Metrics]:
        return _TableView(self)

    def row(self, genotype: Genotype) -> int:
        """Row of ``genotype``; UnknownGenotypeError if the space lacks it."""
        indices = genotype.normal + genotype.reduce
        o = self.num_ops
        if len(indices) != self.num_edges or min(indices) < 0 or max(indices) >= o:
            raise UnknownGenotypeError(
                f"unknown genotype {genotype.key()!r} for space {self.name!r}")
        row = 0
        for i in indices:
            row = row * o + i
        return row

    def at(self, row: int) -> Metrics:
        """The metrics of one row, as Python floats."""
        return Metrics(*self.metrics[row].tolist())


class _TableView(Mapping):
    """Genotype key -> Metrics, built from the space's row on access."""

    def __init__(self, space: TabularSpace):
        self._space = space

    def __getitem__(self, key) -> Metrics:
        s = self._space
        row = _key_row(key, s.num_edges, s.num_ops) if isinstance(key, str) else None
        if row is None:
            raise KeyError(key)
        return s.at(row)

    def __iter__(self):
        return _keys(self._space.num_edges, self._space.num_ops)

    def __len__(self) -> int:
        return self._space.size


_TAIL_KEYS = 1 << 12   # at most this many tail half-keys are built up front


def _keys(num_edges: int, num_ops: int):
    """Every genotype key, lazily, in row order.  A key is a head half-key
    plus a tail half-key, the "-"-prefixed indices of the last edges (up to
    half of them).  The tails are built once, so a key costs one
    concatenation, not a join over every edge."""
    digits = [str(i) for i in range(num_ops)]
    lo = num_edges // 2
    while num_ops ** lo > _TAIL_KEYS:
        lo -= 1
    tails = ["".join("-" + d for d in p) for p in itertools.product(digits, repeat=lo)]
    heads = map("-".join, itertools.product(digits, repeat=num_edges - lo))
    return (h + t for h in heads for t in tails)


def _key_row(key: str, num_edges: int, num_ops: int) -> int | None:
    """Row of a key spelled as ``genotype_key`` writes it, else None."""
    parts = key.split("-")
    if len(parts) != num_edges:
        return None
    row = 0
    for part in parts:
        try:
            i = int(part)
        except ValueError:
            return None
        # One spelling per index: no sign, padding, leading zero or
        # non-ASCII digit, all of which int() accepts.
        if str(i) != part or i >= num_ops:
            return None
        row = row * num_ops + i
    return row


def _row_key(row: int, num_edges: int, num_ops: int) -> str:
    indices = []
    for _ in range(num_edges):
        row, i = divmod(row, num_ops)
        indices.append(i)
    return genotype_key(indices[::-1])


def save_space(space: TabularSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"name={space.name}\n")
        fh.write(f"edges={space.num_edges}\n")
        fh.write(f"ops={','.join(space.op_names)}\n")
        # tolist() gives Python floats, whose repr is the bare number.
        for key, (va, ta, cost) in zip(space.table, space.metrics.tolist()):
            fh.write(f"{key},{va!r},{ta!r},{cost!r}\n")


_CHUNK_BYTES = 1 << 16   # about this many bytes of rows are parsed per step


def load_space(path: str) -> TabularSpace:
    """Parse and fully validate a space file; the table must cover the
    exact cross-product of per-edge op choices."""
    with open(path, encoding="utf-8") as fh:
        header = {}
        for i, ln in zip(range(3), fh):
            ln = ln.rstrip("\n")
            if "=" not in ln:
                raise SpaceFormatError(f"line {i + 1}: expected header 'key=value', got {ln!r}")
            k, v = ln.split("=", 1)
            header[k.strip()] = v.strip()
        for req in ("name", "edges", "ops"):
            if req not in header:
                raise SpaceFormatError(f"missing header line '{req}='")
        try:
            num_edges = int(header["edges"])
            if num_edges < 1:
                raise ValueError
        except ValueError:
            raise SpaceFormatError(f"header 'edges=' must be a positive integer, "
                                   f"got {header['edges']!r}") from None
        op_names = tuple(o.strip() for o in header["ops"].split(","))
        if "" in op_names or len(set(op_names)) < len(op_names):
            raise SpaceFormatError(f"header 'ops=' must name distinct, non-empty ops, "
                                   f"got {header['ops']!r}")
        rows = _Rows(num_edges, len(op_names))
        line = 4
        while lines := fh.readlines(_CHUNK_BYTES):
            rows.add(lines, line)
            line += len(lines)
    return TabularSpace(header["name"], num_edges, op_names, rows.metrics())


class _Rows:
    """The rows of a space file, taken a chunk of lines at a time.

    One validator, ``_take``, checks a chunk as a whole and takes all of
    its rows or none.  Rows usually come in row order, as save_space writes
    them: a key equal to the next canonical one is that row without
    parsing, and only other keys are parsed.  If a chunk fails, ``add``
    tries its non-blank lines as a whole, and if they fail too, takes them
    one at a time, which names the first bad line.  Nothing of size n is
    built before the file has covered the table."""

    def __init__(self, num_edges: int, num_ops: int):
        self.num_edges, self.num_ops = num_edges, num_ops
        self.canonical = _keys(num_edges, num_ops)
        self.ahead: list[str] = []   # keys of rows p, p+1, ... drawn from canonical
        self.p = 0                   # rows 0..p-1 came in order
        self.values = array("d")     # their metrics, row-major
        self.scattered = {}          # row -> metrics of every other row

    def add(self, lines: list[str], first: int) -> None:
        """Take ``lines``, the first of which is line ``first`` of the file."""
        try:
            return self._take(lines)
        except SpaceFormatError:
            numbered = [(i, ln) for i, ln in enumerate(lines, start=first) if ln.strip()]
        try:
            return self._take([ln for _, ln in numbered])
        except SpaceFormatError:
            for i, ln in numbered:
                try:
                    self._take([ln])
                except SpaceFormatError as exc:
                    raise SpaceFormatError(f"line {i}: {exc}") from None

    def _take(self, lines: list[str]) -> None:
        """Take ``lines`` as rows if every one is valid; else raise
        SpaceFormatError and take none.  The checks run in the order field
        count, key, duplicate, number, cost, accuracy, so on one line the
        message is that of the first check the line fails."""
        m = len(lines)
        self.ahead += itertools.islice(self.canonical, max(0, m - len(self.ahead)))
        fields = ",".join(lines).rstrip("\n").split(",")
        # A line holds one newline, at its end, and the last line's is
        # gone, so if every fourth field holds one of the m - 1 left, every
        # line has 4 fields.
        if len(fields) != 4 * m or "".join(fields[3::4]).count("\n") != m - 1:
            raise SpaceFormatError(f"expected 4 fields, got {len(fields)}")
        keys, ahead = fields[::4], self.ahead[:m]
        p, scattered = self.p, self.scattered
        in_order = keys == ahead
        if in_order:
            rows, repeated = range(p, p + m), False
        else:
            rows = [p + i if key == a else _key_row(key, self.num_edges, self.num_ops)
                    for i, (key, a) in enumerate(itertools.zip_longest(keys, ahead))]
            if None in rows:
                raise SpaceFormatError(f"bad genotype key {keys[rows.index(None)]!r}")
            repeated = min(rows) < p or len(set(rows)) < m
        if repeated or not scattered.keys().isdisjoint(rows):
            i = next(i for i, r in enumerate(rows)
                     if r < p or r in scattered or r in rows[:i])
            raise SpaceFormatError(f"duplicate genotype {keys[i]!r}")
        del fields[::4]
        try:
            values = array("d", map(float, fields))
        except ValueError as exc:
            raise SpaceFormatError(str(exc)) from None
        table = np.frombuffer(values).reshape(m, 3)
        acc, cost = table[:, :2], table[:, 2]
        for ok, problem in ((np.isfinite(cost), "not finite"), (cost > 0.0, "not positive")):
            if not ok.all():
                i = int(ok.argmin())
                raise SpaceFormatError(f"cost {cost[i].item()} is {problem} for {keys[i]!r}")
        ok = (acc >= 0.0) & (acc <= 1.0)   # False for NaN
        if not ok.all():
            i = int(ok.argmin())   # row-major, so valid_acc before test_acc
            raise SpaceFormatError(
                f"accuracy {acc.flat[i].item()} out of range for {keys[i // 2]!r}")
        if in_order:
            self.values.extend(values)
            self.p += m
            del self.ahead[:m]
        else:
            scattered.update(zip(rows, table.tolist()))

    def metrics(self) -> np.ndarray:
        """The (n, 3) table, once the rows cover it."""
        p, scattered = self.p, self.scattered
        n = self.num_ops ** self.num_edges
        # Accepted rows are distinct, so the count alone proves coverage;
        # the scan only names the first missing key.
        if p + len(scattered) != n:
            missing = next(r for r in itertools.count(p) if r not in scattered)
            raise SpaceFormatError(
                f"missing genotype {_row_key(missing, self.num_edges, self.num_ops)!r}")
        metrics = np.empty((n, 3))
        metrics[:p] = np.frombuffer(self.values).reshape(p, 3)
        for row, m in scattered.items():
            metrics[row] = m
        return metrics


def query(space: TabularSpace, genotype: Genotype, budget: QueryBudget) -> Metrics:
    """Budgeted metric lookup; repeated identical queries are cached and free."""
    row = space.row(genotype)
    budget.charge(row)
    return space.at(row)


def check_layout(space: TabularSpace, layout: ArchLayout) -> None:
    """Reject a layout whose genotypes are not the space's: another edge
    count, or other ops or another op order, which would look up the wrong
    rows."""
    if 2 * layout.edges_per_cell != space.num_edges:
        raise ValueError(f"layout has {2 * layout.edges_per_cell} edges, "
                         f"space expects {space.num_edges}")
    if space.op_names != layout.candidate_ops:
        raise ValueError(f"layout ops {list(layout.candidate_ops)} differ "
                         f"from space ops {list(space.op_names)}")


def evaluate_position(space: TabularSpace, position: np.ndarray,
                      layout: ArchLayout, budget: QueryBudget
                      ) -> tuple[float, Genotype]:
    """Continuous position -> argmax genotype -> table lookup.

    Returns (loss proxy, genotype) with loss proxy = 1 - validation accuracy.
    """
    check_layout(space, layout)
    genotype = discretize(decode(position, layout))
    metrics = query(space, genotype, budget)
    return 1.0 - metrics.valid_acc, genotype


def brute_force_best(space: TabularSpace) -> tuple[str, Metrics]:
    """Maximum validation accuracy; ties go to the lowest row, which is the
    lexicographically smallest genotype."""
    row = int(space.metrics[:, 0].argmax())
    return _row_key(row, space.num_edges, space.num_ops), space.at(row)


def ranking(space: TabularSpace) -> list[str]:
    """All genotype keys sorted best-first by validation accuracy (ties by
    index tuple)."""
    keys = list(_keys(space.num_edges, space.num_ops))
    return [keys[r] for r in np.argsort(-space.metrics[:, 0], kind="stable").tolist()]


def generate_space(layout: ArchLayout, seed: int,
                   name: str = "synthetic") -> TabularSpace:
    """Seeded synthetic space over all genotypes of ``layout``.

    Accuracy combines per-edge op utilities (scale 1), pairwise edge
    interactions (scale 0.6) and noise (scale 0.05), then maps through a
    convex transform so only a thin tail of genotypes is highly accurate.
    """
    rng = np.random.default_rng(seed)
    e = 2 * layout.edges_per_cell
    o = layout.num_ops
    n = o ** e
    utility = rng.normal(0, 1, (e, o))
    pairs = [(a, b) for a in range(e) for b in range(a + 1, e)]
    interact = rng.normal(0, 0.6, (len(pairs), o, o))

    # Every genotype at once, on one axis per edge with edge 0 first, so
    # the C-order ravel is the row order.  Each score adds its terms in the
    # order of a per-genotype loop (the edge utilities, then the pair
    # interactions summed apart and added), so it is bitwise what that
    # loop gave.
    def on_edges(values, *edges):
        shape = [1] * e
        for i in edges:
            shape[i] = o
        return values.reshape(shape)

    s = 0
    for i in range(e):
        s = s + on_edges(utility[i], i)
    terms = 0
    for p, (a, b) in enumerate(pairs):
        terms = terms + on_edges(interact[p], a, b)
    s = (s + terms).ravel() + 0.05 * rng.normal(size=n)
    lo, hi = s.min(), s.max()

    t = (s - lo) / (hi - lo) if hi > lo else np.full(n, 0.5)
    # convex ramp: most genotypes sit near 0.3, few approach 0.95.  Python's
    # ** and math.exp, per value, as numpy's differ in the last bit.
    valid = 0.3 + 0.65 * np.array([x ** 6 for x in t.tolist()])
    noise = rng.normal(size=(n, 2))
    test = np.minimum(1.0, np.maximum(0.0, valid + 0.01 * noise[:, 0]))
    cost = np.array([math.exp(0.3 * z) for z in noise[:, 1].tolist()])
    return TabularSpace(name, e, layout.candidate_ops, np.column_stack((valid, test, cost)))

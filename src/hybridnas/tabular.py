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
    queries_used: int = 0
    queries_max: int = 10 ** 9
    _seen: set[str] = field(default_factory=set)

    def charge(self, key: str) -> None:
        if key in self._seen:
            return
        if self.queries_used >= self.queries_max:
            raise BudgetExhaustedError(
                f"query budget exhausted ({self.queries_max} distinct queries)")
        self._seen.add(key)
        self.queries_used += 1


@dataclass
class TabularSpace:
    name: str
    num_edges: int
    op_names: tuple[str, ...]
    table: dict[str, Metrics]

    @property
    def num_ops(self) -> int:
        return len(self.op_names)

    @property
    def size(self) -> int:
        return len(self.table)


def _all_keys(num_edges: int, num_ops: int):
    for combo in itertools.product(range(num_ops), repeat=num_edges):
        yield combo


def save_space(space: TabularSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"name={space.name}\n")
        fh.write(f"edges={space.num_edges}\n")
        fh.write(f"ops={','.join(space.op_names)}\n")
        for combo in _all_keys(space.num_edges, space.num_ops):
            key = genotype_key(combo)
            m = space.table[key]
            fh.write(f"{key},{m.valid_acc!r},{m.test_acc!r},{m.cost!r}\n")


def load_space(path: str) -> TabularSpace:
    """Parse and fully validate a space file; the table must cover the
    exact cross-product of per-edge op choices."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = {}
    rows_start = 0
    for i, ln in enumerate(lines[:3]):
        if "=" not in ln:
            raise SpaceFormatError(f"line {i + 1}: expected header 'key=value', got {ln!r}")
        k, v = ln.split("=", 1)
        header[k.strip()] = v.strip()
        rows_start = i + 1
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
    # The only spellings of an op index that a key may use: no sign, padding
    # or leading zero, so every accepted key is the one genotype_key writes.
    digits = {str(i) for i in range(len(op_names))}

    table: dict[str, Metrics] = {}
    for i, ln in enumerate(lines[rows_start:], start=rows_start + 1):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != 4:
            raise SpaceFormatError(f"line {i}: expected 4 fields, got {len(parts)}")
        key, va, ta, cost = parts
        idx = key.split("-")
        if len(idx) != num_edges or not digits.issuperset(idx):
            raise SpaceFormatError(f"line {i}: bad genotype key {key!r}")
        if key in table:
            raise SpaceFormatError(f"line {i}: duplicate genotype {key!r}")
        try:
            m = Metrics(float(va), float(ta), float(cost))
        except ValueError as exc:
            raise SpaceFormatError(f"line {i}: {exc}") from None
        for acc in (m.valid_acc, m.test_acc):
            if not 0.0 <= acc <= 1.0:
                raise SpaceFormatError(f"line {i}: accuracy {acc} out of range for {key!r}")
        table[key] = m

    # Accepted keys are canonical and unique, so the count alone proves the
    # table covers the cross-product; the scan only names a missing key.
    if len(table) != len(op_names) ** num_edges:
        for combo in _all_keys(num_edges, len(op_names)):
            if genotype_key(combo) not in table:
                raise SpaceFormatError(f"missing genotype {genotype_key(combo)!r}")
    return TabularSpace(header["name"], num_edges, op_names, table)


def query(space: TabularSpace, key: str, budget: QueryBudget) -> Metrics:
    """Budgeted metric lookup; repeated identical queries are cached and free."""
    if key not in space.table:
        raise UnknownGenotypeError(f"unknown genotype {key!r} for space {space.name!r}")
    budget.charge(key)
    return space.table[key]


def evaluate_position(space: TabularSpace, position: np.ndarray,
                      layout: ArchLayout, budget: QueryBudget
                      ) -> tuple[float, Genotype]:
    """Continuous position -> argmax genotype -> table lookup.

    Returns (loss proxy, genotype) with loss proxy = 1 - validation accuracy.
    """
    if 2 * layout.edges_per_cell != space.num_edges:
        raise ValueError(f"layout has {2 * layout.edges_per_cell} edges, "
                         f"space expects {space.num_edges}")
    genotype = discretize(decode(position, layout))
    metrics = query(space, genotype.key(), budget)
    return 1.0 - metrics.valid_acc, genotype


def brute_force_best(space: TabularSpace) -> tuple[str, Metrics]:
    """Exhaustive scan for the maximum validation accuracy; ties go to the
    lexicographically smallest genotype."""
    best_key, best = None, None
    for combo in _all_keys(space.num_edges, space.num_ops):
        key = genotype_key(combo)
        m = space.table[key]
        if best is None or m.valid_acc > best.valid_acc:
            best_key, best = key, m
    return best_key, best


def ranking(space: TabularSpace) -> list[str]:
    """All genotype keys sorted best-first by validation accuracy (ties by
    index tuple)."""
    keys = [genotype_key(c) for c in _all_keys(space.num_edges, space.num_ops)]
    return sorted(keys, key=lambda k: (-space.table[k].valid_acc,
                                       tuple(int(i) for i in k.split("-"))))


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
    utility = rng.normal(0, 1, (e, o))
    pairs = [(a, b) for a in range(e) for b in range(a + 1, e)]
    interact = rng.normal(0, 0.6, (len(pairs), o, o))

    scores = {}
    for combo in _all_keys(e, o):
        s = sum(utility[i, c] for i, c in enumerate(combo))
        s += sum(interact[p, combo[a], combo[b]] for p, (a, b) in enumerate(pairs))
        s += 0.05 * rng.normal()
        scores[combo] = s
    vals = np.array(list(scores.values()))
    lo, hi = vals.min(), vals.max()

    table = {}
    for combo, s in scores.items():
        t = (s - lo) / (hi - lo) if hi > lo else 0.5
        # convex ramp: most genotypes sit near 0.3, few approach 0.95
        valid = 0.3 + 0.65 * t ** 6
        test = min(1.0, max(0.0, valid + 0.01 * rng.normal()))
        cost = float(math.exp(rng.normal(0, 0.3)))
        table[genotype_key(combo)] = Metrics(float(valid), float(test), cost)
    return TabularSpace(name, e, layout.candidate_ops, table)

"""Tests for the tabular space: format, budget, oracle, generator."""

import numpy as np
import pytest

from hybridnas.supernet import ArchLayout
from hybridnas.tabular import (BudgetExhaustedError, Metrics, QueryBudget,
                               SpaceFormatError, TabularSpace,
                               UnknownGenotypeError, brute_force_best,
                               evaluate_position, generate_space, genotype_key,
                               load_space, query, ranking, save_space)

LAYOUT = ArchLayout(1, ("zero", "skip", "linear"))   # 2 edges/cell, 4 total


@pytest.fixture(scope="module")
def space():
    return generate_space(LAYOUT, seed=7, name="t")


def test_generated_space_is_exhaustive(space):
    assert space.num_edges == 4
    assert space.size == 3 ** 4
    for m in space.table.values():
        assert 0.0 <= m.valid_acc <= 1.0
        assert 0.0 <= m.test_acc <= 1.0
        assert m.cost > 0.0


def test_generator_deterministic():
    a = generate_space(LAYOUT, seed=3)
    b = generate_space(LAYOUT, seed=3)
    assert a.table == b.table
    c = generate_space(LAYOUT, seed=4)
    assert a.table != c.table


def test_save_load_round_trip(space, tmp_path):
    path = str(tmp_path / "space.txt")
    save_space(space, path)
    back = load_space(path)
    assert back.name == space.name
    assert back.num_edges == space.num_edges
    assert back.op_names == space.op_names
    assert back.table == space.table


def _write_lines(tmp_path, lines):
    path = str(tmp_path / "bad.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def test_load_missing_row_names_genotype(space, tmp_path):
    path = str(tmp_path / "space.txt")
    save_space(space, path)
    lines = open(path).read().splitlines()
    del lines[10]
    with pytest.raises(SpaceFormatError, match="missing genotype"):
        load_space(_write_lines(tmp_path, lines))


def test_load_accuracy_out_of_range(tmp_path):
    path = _write_lines(tmp_path, [
        "name=x", "edges=1", "ops=zero,skip",
        "0,1.2,0.5,1.0", "1,0.5,0.5,1.0"])
    with pytest.raises(SpaceFormatError, match="out of range"):
        load_space(path)


def test_load_duplicate_genotype(tmp_path):
    path = _write_lines(tmp_path, [
        "name=x", "edges=1", "ops=zero,skip",
        "0,0.5,0.5,1.0", "0,0.6,0.5,1.0"])
    with pytest.raises(SpaceFormatError, match="duplicate"):
        load_space(path)


def test_load_bad_key(tmp_path):
    path = _write_lines(tmp_path, [
        "name=x", "edges=1", "ops=zero,skip",
        "7,0.5,0.5,1.0", "1,0.5,0.5,1.0"])
    with pytest.raises(SpaceFormatError, match="bad genotype key"):
        load_space(path)


# Keys that int() reads as a valid index but that genotype_key never writes.
# A replaced row left the canonical key missing from a full-sized table, and
# an extra row grew the table past the cross-product; '\u0661' is an
# Arabic-Indic 1, and '\u00b2' made int() raise without naming the line.
@pytest.mark.parametrize("key, replaces", [
    ("00-0-0-0", "0-0-0-0"), ("00-0-0-1", None),
    ("\u00b2-0-0-0", "0-0-0-0"), ("\u0661-0-0-0", "1-0-0-0"),
], ids=["leading-zero", "extra-row", "superscript", "arabic-indic"])
def test_load_rejects_noncanonical_key(space, tmp_path, key, replaces):
    path = str(tmp_path / "space.txt")
    save_space(space, path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    keys = [ln.split(",")[0] for ln in lines]
    line_no = keys.index(replaces) + 1 if replaces else len(lines) + 1
    lines[line_no - 1:line_no] = [key + "," + lines[3].split(",", 1)[1]]
    with pytest.raises(SpaceFormatError,
                       match=f"^line {line_no}: bad genotype key '{key}'$"):
        load_space(_write_lines(tmp_path, lines))


def test_load_round_trip_keeps_two_digit_indices_and_order(tmp_path):
    ops = tuple(f"op{i}" for i in range(12))
    table = {genotype_key((a, b)): Metrics(0.5, 0.25, 1.0 + a)
             for a in range(12) for b in range(12)}
    path = str(tmp_path / "space.txt")
    save_space(TabularSpace("wide", 2, ops, table), path)
    back = load_space(path)
    assert list(back.table.items()) == list(table.items())


def test_load_missing_header(tmp_path):
    path = _write_lines(tmp_path, ["name=x", "edges=1", "0,0.5,0.5,1.0"])
    with pytest.raises(SpaceFormatError):
        load_space(path)


def test_load_non_integer_edges_names_header(tmp_path):
    # Counts below 1 are rejected the same way, naming the header.
    for edges, rows in (("two", ["0,0.5,0.5,1.0", "1,0.5,0.5,1.0"]),
                        ("0", []), ("-2", [])):
        path = _write_lines(tmp_path, ["name=x", f"edges={edges}",
                                       "ops=zero,skip"] + rows)
        with pytest.raises(SpaceFormatError, match=f"edges=.*'{edges}'"):
            load_space(path)


def test_load_non_numeric_field_names_line(tmp_path):
    path = _write_lines(tmp_path, [
        "name=x", "edges=1", "ops=zero,skip",
        "0,0.5,0.5,1.0", "1,abc,0.5,1.0"])
    with pytest.raises(SpaceFormatError, match="line 5: .*'abc'"):
        load_space(path)


def test_load_wrong_field_count(tmp_path):
    path = _write_lines(tmp_path, [
        "name=x", "edges=1", "ops=zero,skip",
        "0,0.5,0.5", "1,0.5,0.5,1.0"])
    with pytest.raises(SpaceFormatError, match="4 fields"):
        load_space(path)


# ---------------------------------------------------------------- queries

def test_query_budget_counts_distinct_only(space):
    budget = QueryBudget(queries_max=10)
    key = next(iter(space.table))
    for _ in range(5):
        query(space, key, budget)
    assert budget.queries_used == 1


def test_query_budget_zero_exhausted(space):
    budget = QueryBudget(queries_max=0)
    with pytest.raises(BudgetExhaustedError, match="exhausted"):
        query(space, next(iter(space.table)), budget)


def test_query_cached_after_budget_exhausted(space):
    budget = QueryBudget(queries_max=1)
    keys = list(space.table)
    query(space, keys[0], budget)
    # a repeat of the cached key stays free even at the cap
    query(space, keys[0], budget)
    with pytest.raises(BudgetExhaustedError):
        query(space, keys[1], budget)


def test_query_unknown_genotype(space):
    with pytest.raises(UnknownGenotypeError, match="unknown genotype"):
        query(space, "9-9-9-9", QueryBudget())


def test_evaluate_position_is_loss_proxy(space):
    budget = QueryBudget()
    pos = np.zeros(LAYOUT.dimension)
    pos[2] = 5.0    # edge 0 of normal cell picks op 2
    loss, genotype = evaluate_position(space, pos, LAYOUT, budget)
    assert genotype.key() == "2-0-0-0"
    assert loss == pytest.approx(1.0 - space.table["2-0-0-0"].valid_acc)


def test_evaluate_position_rejects_wrong_length(space):
    with pytest.raises(ValueError, match="length"):
        evaluate_position(space, np.zeros(5), LAYOUT, QueryBudget())


def test_evaluate_position_rejects_layout_mismatch(space):
    big = ArchLayout(2, ("zero", "skip", "linear"))
    with pytest.raises(ValueError, match="edges"):
        evaluate_position(space, np.zeros(big.dimension), big, QueryBudget())


# ---------------------------------------------------------------- oracle

def test_brute_force_best_is_global_max(space):
    key, metrics = brute_force_best(space)
    assert metrics.valid_acc == max(m.valid_acc for m in space.table.values())
    assert space.table[key] == metrics


def test_brute_force_ties_lexicographic():
    table = {genotype_key((a, b)): Metrics(0.5, 0.5, 1.0)
             for a in range(2) for b in range(2)}
    tied = TabularSpace("tie", 2, ("zero", "skip"), table)
    assert brute_force_best(tied)[0] == "0-0"


def test_ranking_sorted_and_complete(space):
    ranked = ranking(space)
    assert len(ranked) == space.size
    assert ranked[0] == brute_force_best(space)[0]
    accs = [space.table[k].valid_acc for k in ranked]
    assert accs == sorted(accs, reverse=True)


def test_generated_space_accuracy_tail_is_thin(space):
    accs = np.array([m.valid_acc for m in space.table.values()])
    # the convex ramp keeps highly accurate genotypes rare
    assert np.mean(accs > 0.82) < 0.05
    assert accs.max() > 0.82

"""Tests for the tabular space: format, budget, oracle, generator."""

import hashlib
import itertools
import re
import time
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from hybridnas.supernet import ArchLayout, Genotype
from hybridnas.tabular import (BudgetExhaustedError, Metrics, QueryBudget,
                               SpaceFormatError, TabularSpace,
                               UnknownGenotypeError, brute_force_best,
                               evaluate_position, generate_space, genotype_key,
                               load_space, query, ranking, save_space)

LAYOUT = ArchLayout(1, ("zero", "skip", "linear"))   # 2 edges/cell, 4 total


def space_from_table(name, num_edges, op_names, table):
    """A space from key -> Metrics, listed in row order."""
    return TabularSpace(name, num_edges, op_names,
                        np.array([astuple(m) for m in table.values()]))


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
    save_space(space_from_table("wide", 2, ops, table), path)
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


def test_load_short_line_then_long_line_names_the_short_one(tmp_path):
    # 3 + 5 fields: read as one run of fields, every fourth is a valid key.
    path = _write_lines(tmp_path, [
        "name=x", "edges=1", "ops=zero,skip",
        "0,0.5,0.5", "1.0,1,0.5,0.5,1.0"])
    with pytest.raises(SpaceFormatError, match="^line 4: expected 4 fields, got 3$"):
        load_space(path)


# 'ops=a,a' used to load, and 'ops=' failed only at coverage.
@pytest.mark.parametrize("ops, rows", [
    ("zero,zero", ["0,0.5,0.5,1.0", "1,0.5,0.5,1.0"]), ("", ["0,0.5,0.5,1.0"]),
], ids=["repeated", "empty"])
def test_load_bad_ops_header_names_header(tmp_path, ops, rows):
    path = _write_lines(tmp_path, ["name=x", "edges=1", f"ops={ops}"] + rows)
    with pytest.raises(SpaceFormatError, match=f"^header 'ops=' .*'{ops}'$"):
        load_space(path)


@pytest.mark.parametrize("cost", ["nan", "inf", "-inf"])
def test_load_non_finite_cost_names_line(tmp_path, cost):
    path = _write_lines(tmp_path, [
        "name=x", "edges=1", "ops=zero,skip",
        "0,0.5,0.5,1.0", f"1,0.5,0.5,{cost}"])
    with pytest.raises(SpaceFormatError,
                       match=f"^line 5: cost {cost} is not finite for '1'$"):
        load_space(path)


# A zero or negative cost used to load; generate_space only makes positive ones.
@pytest.mark.parametrize("cost, shown", [("-3", "-3.0"), ("0", "0.0")])
def test_load_non_positive_cost_names_line(tmp_path, cost, shown):
    path = _write_lines(tmp_path, [
        "name=x", "edges=1", "ops=zero,skip",
        "0,0.5,0.5,1.0", f"1,0.5,0.5,{cost}"])
    with pytest.raises(SpaceFormatError,
                       match=f"^line 5: cost {shown} is not positive for '1'$"):
        load_space(path)


def test_load_tiny_positive_cost(tmp_path):
    path = _write_lines(tmp_path, [
        "name=x", "edges=1", "ops=zero,skip",
        "0,0.5,0.5,1.0", "1,0.5,0.5,1e-300"])
    assert load_space(path).metrics[1, 2] == 1e-300


def test_load_unrowed_wide_space_fails_fast(tmp_path):
    # 3**40 genotypes: nothing of that size may be built before the rows
    # show that the file covers the table.
    path = _write_lines(tmp_path, ["name=x", "edges=40", "ops=a,b,c"])
    t0 = time.perf_counter()
    with pytest.raises(SpaceFormatError, match="^missing genotype '0(-0){39}'$"):
        load_space(path)
    assert time.perf_counter() - t0 < 1.0


def test_load_out_of_order_rows(space, tmp_path):
    # Rows in any order load to the same table; a key repeated after its
    # in-order twin is still a duplicate.
    path = str(tmp_path / "space.txt")
    save_space(space, path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = lines[3:]
    shuffled = lines[:3] + rows[40:] + rows[:40][::-1]
    assert load_space(_write_lines(tmp_path, shuffled)).table == space.table
    with pytest.raises(SpaceFormatError, match="^line 6: duplicate genotype '0-0-0-1'$"):
        load_space(_write_lines(tmp_path, lines[:3] + [rows[1]] + rows))


def test_load_retains_little_more_than_the_metrics(tmp_path):
    rng = np.random.default_rng(0)
    big = TabularSpace("big", 10, ("zero", "skip", "linear"),
                       rng.uniform(0.1, 0.9, (3 ** 10, 3)))
    path = str(tmp_path / "big.txt")
    save_space(big, path)
    tracemalloc.start()
    try:
        back = load_space(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.metrics, big.metrics)
    # A table of one Metrics per key string retained 15.9 MB here.
    assert retained <= 2 * back.metrics.nbytes
    assert peak <= 4 * back.metrics.nbytes


# A file many read chunks long: 3**8 = 6,561 rows of about 60 bytes each.
# The tests place their rows by line, not by any chunk size.
LONG = TabularSpace("long", 8, ("zero", "skip", "linear"),
                    np.random.default_rng(5).uniform(0.1, 0.9, (3 ** 8, 3)))


@pytest.fixture
def long_lines(tmp_path):
    """The lines of LONG's saved file; row r is on line r + 4."""
    path = str(tmp_path / "long.txt")
    save_space(LONG, path)
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _bad_row(line, kind):
    """``line`` with a bad accuracy, key or number; and the error it gives."""
    key, va, ta, cost = line.split(",")
    return {"accuracy": (f"{key},1.5,{ta},{cost}",
                         f"accuracy 1.5 out of range for '{key}'"),
            "key": (f"9{line[1:]}", f"bad genotype key '9{key[1:]}'"),
            "number": (f"{key},{va},abc,{cost}",
                       "could not convert string to float: 'abc'")}[kind]


@pytest.mark.parametrize("kind", ["accuracy", "key", "number"])
@pytest.mark.parametrize("row", [1, 3000, 6560])
def test_load_far_bad_line_names_it(tmp_path, long_lines, row, kind):
    lines = list(long_lines)
    lines[row + 3], message = _bad_row(lines[row + 3], kind)
    with pytest.raises(SpaceFormatError, match=f"^line {row + 4}: {re.escape(message)}$"):
        load_space(_write_lines(tmp_path, lines))


def test_load_skips_blank_lines_and_counts_them(tmp_path, long_lines):
    blank = ["", "   ", "\t"]
    lines = long_lines[:10] + blank + long_lines[10:4000] + blank + long_lines[4000:]
    assert np.array_equal(load_space(_write_lines(tmp_path, lines)).metrics, LONG.metrics)
    # row 5000 sits on line 5004 + 6 blank lines
    lines[5009], message = _bad_row(lines[5009], "accuracy")
    with pytest.raises(SpaceFormatError, match=f"^line 5010: {re.escape(message)}$"):
        load_space(_write_lines(tmp_path, lines))


@pytest.mark.parametrize("order", ["reversed", "halves-swapped", "one-row-first"])
def test_load_rows_out_of_order_across_chunks(tmp_path, long_lines, order):
    rows = long_lines[3:]
    rows = {"reversed": rows[::-1],
            "halves-swapped": rows[3000:] + rows[:3000],
            "one-row-first": [rows[5000]] + rows[:5000] + rows[5001:]}[order]
    back = load_space(_write_lines(tmp_path, long_lines[:3] + rows))
    assert np.array_equal(back.metrics, LONG.metrics)


@pytest.mark.parametrize("row, after", [(2, 6000), (6500, 40)],
                         ids=["copy-after-row", "copy-before-row"])
def test_load_duplicate_across_chunks_names_its_second_line(tmp_path, long_lines,
                                                            row, after):
    # Row ``row`` is written a second time, after row ``after``; copied
    # ahead of its place, the row's own line is the second one.
    rows = long_lines[3:]
    lines = long_lines[:3] + rows[:after + 1] + [rows[row]] + rows[after + 1:]
    key = rows[row].split(",")[0]
    with pytest.raises(SpaceFormatError,
                       match=f"^line {max(row, after) + 5}: duplicate genotype '{key}'$"):
        load_space(_write_lines(tmp_path, lines))


@pytest.mark.parametrize("first, second", [("number", "key"), ("key", "number"),
                                           ("accuracy", "key")])
@pytest.mark.parametrize("gap", [1, 10, 3000])
def test_load_names_the_earlier_of_two_bad_lines(tmp_path, long_lines, first, second, gap):
    lines = list(long_lines)
    lines[2003], message = _bad_row(lines[2003], first)
    lines[2003 + gap], _ = _bad_row(lines[2003 + gap], second)
    with pytest.raises(SpaceFormatError, match=f"^line 2004: {re.escape(message)}$"):
        load_space(_write_lines(tmp_path, lines))


@pytest.mark.parametrize("newline, final", [("\n", ""), ("\r\n", "\r\n"), ("\r\n", "")],
                         ids=["no-final-newline", "crlf", "crlf-no-final-newline"])
def test_load_line_endings_give_the_same_metrics(tmp_path, long_lines, newline, final):
    path = tmp_path / "endings.txt"
    path.write_bytes((newline.join(long_lines) + final).encode())
    assert np.array_equal(load_space(str(path)).metrics, LONG.metrics)
    # the last line still counts when it has no newline
    lines = list(long_lines)
    lines[-1], message = _bad_row(lines[-1], "accuracy")
    path.write_bytes((newline.join(lines) + final).encode())
    with pytest.raises(SpaceFormatError, match=f"^line 6564: {re.escape(message)}$"):
        load_space(str(path))


# ---------------------------------------------------------------- table view

def test_table_view_reads_rows_in_key_order(space):
    keys = [genotype_key(c) for c in itertools.product(range(3), repeat=4)]
    assert list(space.table) == keys
    assert len(space.table) == space.size == 81
    rows = space.metrics.tolist()
    assert [space.table[k] for k in keys] == [Metrics(*r) for r in rows]
    # Python floats, so a Metrics prints as it did when the table was a dict.
    digest = hashlib.sha256(repr(list(space.table.items())).encode()).hexdigest()
    assert digest == "eefa69ca7ab7dd0b834ed1b62721aa9355da3237f1289560636c4b42af702f80"


@pytest.mark.parametrize("key", ["9-9-9-9", "00-0-0-0", "0-0-0", 5])
def test_table_view_rejects_other_keys(space, key):
    assert space.table.get(key) is None
    assert key not in space.table
    with pytest.raises(KeyError):
        space.table[key]


def test_space_rejects_metrics_of_wrong_shape():
    with pytest.raises(ValueError, match=r"shape \(8, 3\), expected \(9, 3\)"):
        TabularSpace("x", 2, ("zero", "skip", "linear"), np.zeros((8, 3)))


# save_space writes the name on one header line and load_space strips it,
# so ' padded ' came back as 'padded' and 'a\nb' wrote a file that failed.
@pytest.mark.parametrize("name", [" padded ", "x\r", "a\nb", "\tx", "x\n"])
def test_space_rejects_a_name_that_does_not_load_back(name):
    with pytest.raises(ValueError, match="^name must be one line"):
        TabularSpace(name, 1, ("zero", "skip"), np.full((2, 3), 0.5))


@pytest.mark.parametrize("name", ["", "a b", "x=y,z"])
def test_space_name_loads_back(tmp_path, name):
    path = str(tmp_path / "space.txt")
    save_space(TabularSpace(name, 1, ("zero", "skip"), np.full((2, 3), 0.5)), path)
    assert load_space(path).name == name


# ---------------------------------------------------------------- queries

def test_query_budget_counts_distinct_only(space):
    budget = QueryBudget(queries_max=10)
    genotype = Genotype((0, 0), (0, 0))
    for _ in range(5):
        query(space, genotype, budget)
    assert budget.queries_used == 1


def test_query_budget_count_is_its_distinct_rows(space):
    # The count was a field of its own, so QueryBudget(queries_used=5)
    # reported five queries with none on record.
    with pytest.raises(TypeError):
        QueryBudget(queries_used=5)
    budget = QueryBudget()
    for genotype in (Genotype((0, 0), (0, 0)), Genotype((0, 0), (0, 1))):
        query(space, genotype, budget)
    assert budget.queries_used == len(budget._seen) == 2


def test_query_budget_zero_exhausted(space):
    budget = QueryBudget(queries_max=0)
    with pytest.raises(BudgetExhaustedError, match="exhausted"):
        query(space, Genotype((0, 0), (0, 0)), budget)


def test_query_cached_after_budget_exhausted(space):
    budget = QueryBudget(queries_max=1)
    first, second = Genotype((0, 0), (0, 0)), Genotype((0, 0), (0, 1))
    query(space, first, budget)
    # a repeat of the cached genotype stays free even at the cap
    query(space, first, budget)
    with pytest.raises(BudgetExhaustedError):
        query(space, second, budget)


def test_query_unknown_genotype(space):
    with pytest.raises(UnknownGenotypeError, match="unknown genotype"):
        query(space, Genotype((9, 9), (9, 9)), QueryBudget())


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


@pytest.mark.parametrize("ops", [("linear", "skip", "zero"),
                                 ("zero", "skip", "linear", "tanh_linear")])
def test_evaluate_position_rejects_other_ops_than_space(space, ops):
    # Same edge count, other op order or op count: the old edge check let
    # these score mislabelled genotypes.
    other = ArchLayout(1, ops)
    with pytest.raises(ValueError, match=re.escape(
            f"layout ops {list(ops)} differ from space ops "
            f"{list(LAYOUT.candidate_ops)}")):
        evaluate_position(space, np.zeros(other.dimension), other,
                          QueryBudget())


def test_space_built_with_listed_op_names_matches_its_layout(space):
    # A list of op names used to differ from every layout's tuple, so the
    # layout check rejected a matching layout with two identical lists.
    listed = TabularSpace("t", space.num_edges, list(space.op_names),
                          space.metrics)
    assert listed.op_names == LAYOUT.candidate_ops
    loss, _ = evaluate_position(listed, np.zeros(LAYOUT.dimension), LAYOUT,
                                QueryBudget())
    assert loss == 1.0 - space.table["0-0-0-0"].valid_acc


# ---------------------------------------------------------------- oracle

def test_brute_force_best_is_global_max(space):
    key, metrics = brute_force_best(space)
    assert metrics.valid_acc == max(m.valid_acc for m in space.table.values())
    assert space.table[key] == metrics


def test_brute_force_ties_lexicographic():
    table = {genotype_key((a, b)): Metrics(0.5, 0.5, 1.0)
             for a in range(2) for b in range(2)}
    tied = space_from_table("tie", 2, ("zero", "skip"), table)
    assert brute_force_best(tied)[0] == "0-0"


def test_ranking_sorted_and_complete(space):
    ranked = ranking(space)
    assert len(ranked) == space.size
    assert ranked[0] == brute_force_best(space)[0]
    accs = [space.table[k].valid_acc for k in ranked]
    assert accs == sorted(accs, reverse=True)


def _loop_best(space):
    best_key, best = None, None
    for combo in itertools.product(range(space.num_ops), repeat=space.num_edges):
        key = genotype_key(combo)
        m = space.table[key]
        if best is None or m.valid_acc > best.valid_acc:
            best_key, best = key, m
    return best_key, best


def _loop_ranking(space):
    keys = [genotype_key(c) for c in
            itertools.product(range(space.num_ops), repeat=space.num_edges)]
    return sorted(keys, key=lambda k: (-space.table[k].valid_acc,
                                       tuple(int(i) for i in k.split("-"))))


def _oracle_spaces():
    yield generate_space(LAYOUT, seed=7)
    yield generate_space(ArchLayout(1, ("zero", "skip")), seed=1)
    # Accuracies on a 0.1 grid: many ties, which go to the lower index tuple,
    # and two-digit indices, whose string order is not the tuple order.
    rng = np.random.default_rng(2)
    metrics = rng.uniform(0, 1, (144, 3))
    metrics[:, 0] = metrics[:, 0].round(1)
    yield TabularSpace("grid", 2, tuple(f"op{i}" for i in range(12)), metrics)
    yield TabularSpace("tied", 3, ("zero", "skip"), np.full((8, 3), 0.5))


@pytest.mark.parametrize("oracle_space", _oracle_spaces(),
                         ids=["generated", "two-op", "grid", "all-tied"])
def test_oracle_equals_reference_loops(oracle_space):
    assert brute_force_best(oracle_space) == _loop_best(oracle_space)
    assert ranking(oracle_space) == _loop_ranking(oracle_space)


def test_generated_space_accuracy_tail_is_thin(space):
    accs = np.array([m.valid_acc for m in space.table.values()])
    # the convex ramp keeps highly accurate genotypes rare
    assert np.mean(accs > 0.82) < 0.05
    assert accs.max() > 0.82

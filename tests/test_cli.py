"""Tests for config parsing, logging, genotype files and the CLI commands."""

import csv
import json
import os

import pytest

from hybridnas.cli import (EpochLogger, RunConfig, build_parser,
                           export_genotype, main_cli, parse_config,
                           serialize_config)
from hybridnas.controller import EpochRecord, TabularBackend
from hybridnas.supernet import DEFAULT_OPS, ArchLayout, Genotype
from hybridnas.swarm import SwarmConfig


def write(tmp_path, name, text):
    path = str(tmp_path / name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def read_log(path):
    """The records of a log.jsonl or log.csv file as dicts; CSV cells are
    read back as None (empty), the stage string, an int or a float."""
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".jsonl"):
            return [json.loads(ln) for ln in fh]
        rows = list(csv.DictReader(fh))

    def value(key, cell):
        if cell == "" or key == "stage":
            return cell or None
        if key in ("epoch", "queries_used", "wall_ms"):
            return int(cell)
        return float(cell)

    return [{k: value(k, c) for k, c in row.items()} for row in rows]


# ---------------------------------------------------------------- config

def test_empty_config_gives_defaults(tmp_path):
    path = write(tmp_path, "c.txt", "# nothing here\n\n")
    cfg = parse_config(path)
    assert cfg == RunConfig()
    assert cfg.pop_size == 60
    assert cfg.phi == 0.15
    assert cfg.generations_per_epoch == 8
    assert cfg.lambda_swarm == 0.3
    assert cfg.lambda_op == 0.2
    assert cfg.warmup_epochs == 5
    assert cfg.batch_size == 64
    assert cfg.eta_w == 0.025
    assert cfg.stability_threshold == 0.82
    assert cfg.stability_arch_lr == 1e-5
    assert cfg.abs_alpha_threshold == 1e-3
    assert cfg.confidence_delta == 0.05


def test_config_file_overrides_defaults(tmp_path):
    path = write(tmp_path, "c.txt", "pop_size = 12\nphi = 0.5  # inline\n")
    cfg = parse_config(path)
    assert cfg.pop_size == 12 and cfg.phi == 0.5


def test_flags_override_file(tmp_path):
    path = write(tmp_path, "c.txt", "pop_size = 12\n")
    cfg = parse_config(path, {"pop_size": 33})
    assert cfg.pop_size == 33


def test_bad_value_names_key_and_line(tmp_path):
    path = write(tmp_path, "c.txt", "\npop_size = two\n")
    with pytest.raises(ValueError, match=r"pop_size.*line 2"):
        parse_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "c.txt", "swarm_size = 10\n")
    with pytest.raises(ValueError, match="swarm_size"):
        parse_config(path)


def test_malformed_line_rejected(tmp_path):
    path = write(tmp_path, "c.txt", "pop_size 10\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config(path)


def test_invalid_combination_rejected(tmp_path):
    path = write(tmp_path, "c.txt", "phi = 2.0\n")
    with pytest.raises(ValueError, match="phi"):
        parse_config(path)


def test_serialize_parse_round_trip(tmp_path):
    cfg = RunConfig(pop_size=9, phi=0.4, backend="tabular", timing=True,
                    ops="zero,skip,linear")
    path = write(tmp_path, "c.txt", serialize_config(cfg))
    assert parse_config(path) == cfg


# ---------------------------------------------------------------- logging

def make_records(n):
    recs = []
    for i in range(1, n + 1):
        recs.append(EpochRecord(epoch=i, stage="exploration",
                                best_base_fitness=0.1 * i,
                                best_combined_fitness=0.05 * i,
                                validation_accuracy=0.5,
                                v_t=None, epsilon=None,
                                queries_used=3 * i, wall_ms=0))
    return recs


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_log_line_counts_and_round_trip(tmp_path, fmt):
    path = str(tmp_path / f"log.{fmt}")
    logger = EpochLogger(path, fmt)
    recs = make_records(10)
    for r in recs:
        logger.log_epoch(r)
    logger.close()
    lines = open(path).read().splitlines()
    assert len(lines) == (11 if fmt == "csv" else 10)
    back = read_log(path)
    assert len(back) == 10
    for r, row in zip(recs, back):
        for k in EpochRecord.FIELDS:
            assert row[k] == getattr(r, k), k


def test_logger_rejects_bad_format(tmp_path):
    with pytest.raises(ValueError, match="csv or jsonl"):
        EpochLogger(str(tmp_path / "x"), "xml")


def test_logger_unwritable_path():
    bad = "/nonexistent-dir/log.csv"
    with pytest.raises(OSError, match="nonexistent-dir"):
        EpochLogger(bad, "csv")


def test_csv_floats_round_trip_exactly(tmp_path):
    rec = EpochRecord(1, "stability", None, None, 1 / 3, 1e-17, 9.09011,
                      0, 0)
    path = str(tmp_path / "log.csv")
    logger = EpochLogger(path, "csv")
    logger.log_epoch(rec)
    logger.close()
    row = read_log(path)[0]
    assert row["validation_accuracy"] == 1 / 3
    assert row["v_t"] == 1e-17
    assert row["best_base_fitness"] is None


# ---------------------------------------------------------------- genotype files

def test_genotype_export_load_round_trip(tmp_path):
    layout = ArchLayout()
    g = Genotype((0, 1, 2, 3, 4), (2, 2, 2, 2, 2))
    path = str(tmp_path / "genotype.txt")
    export_genotype(g, layout, path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == g.to_text(layout)


def test_genotype_export_unwritable_path():
    with pytest.raises(OSError, match="nonexistent-dir"):
        export_genotype(Genotype((0,) * 5, (0,) * 5), ArchLayout(),
                        "/nonexistent-dir/g.txt")


# ---------------------------------------------------------------- commands

def test_gen_space_oracle_and_search(tmp_path, capsys):
    space_path = str(tmp_path / "space.txt")
    rc = main_cli(["gen-space", "--ops", "zero,skip,linear", "--seed", "5",
                   "--out", space_path])
    assert rc == 0
    assert "81 genotypes" in capsys.readouterr().out

    rc = main_cli(["oracle", "--space", space_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "best genotype:" in out and "valid_acc=" in out

    out_dir = str(tmp_path / "run")
    rc = main_cli(["search", "--backend", "tabular", "--space", space_path,
                   "--num-nodes", "1", "--ops", "zero,skip,linear",
                   "--pop-size", "21", "--warmup-epochs", "1",
                   "--max-epochs", "20", "--seed", "3", "--out", out_dir])
    assert rc == 0
    assert os.path.exists(os.path.join(out_dir, "log.csv"))
    assert os.path.exists(os.path.join(out_dir, "genotype.txt"))
    assert os.path.exists(os.path.join(out_dir, "config.txt"))
    rows = read_log(os.path.join(out_dir, "log.csv"))
    assert len(rows) >= 2
    assert rows[0]["stage"] == "warmup"


def test_oracle_names_line_of_noncanonical_key(tmp_path, capsys):
    # A leading zero used to load, and the oracle then failed on the
    # missing canonical key with a bare KeyError message.
    space_path = str(tmp_path / "space.txt")
    main_cli(["gen-space", "--ops", "zero,skip,linear", "--out", space_path])
    with open(space_path, encoding="utf-8") as fh:
        text = fh.read().replace("\n0-0-0-0,", "\n00-0-0-0,", 1)
    write(tmp_path, "space.txt", text)
    capsys.readouterr()
    assert main_cli(["oracle", "--space", space_path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 4: bad genotype key '00-0-0-0'\n"


def test_search_streams_log_before_a_crash(tmp_path, monkeypatch):
    space_path = str(tmp_path / "space.txt")
    main_cli(["gen-space", "--ops", "zero,skip,linear", "--seed", "5",
              "--out", space_path])

    def crash(self, position, eval_batch):
        raise RuntimeError("backend failed in exploration")

    monkeypatch.setattr(TabularBackend, "position_loss", crash)
    out_dir = str(tmp_path / "run")
    with pytest.raises(RuntimeError, match="exploration"):
        main_cli(["search", "--backend", "tabular", "--space", space_path,
                  "--num-nodes", "1", "--ops", "zero,skip,linear",
                  "--warmup-epochs", "3", "--seed", "3", "--out", out_dir])
    with open(os.path.join(out_dir, "log.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(EpochRecord.FIELDS)
    rows = read_log(os.path.join(out_dir, "log.csv"))
    assert [(r["epoch"], r["stage"]) for r in rows] == [(1, "warmup"), (2, "warmup"),
                                                       (3, "warmup")]


def test_search_missing_space_is_clean_error(capsys):
    rc = main_cli(["search", "--backend", "tabular"])
    assert rc == 1
    assert "space" in capsys.readouterr().err


def test_unknown_backend_is_clean_error(capsys):
    rc = main_cli(["search", "--backend", "quantum"])
    assert rc == 1
    assert "backend" in capsys.readouterr().err


@pytest.mark.parametrize("ops", ["zero,skip,linear,relu_linear,tanh_linear",
                                 "linear,zero,skip,relu_linear"])
def test_tabular_search_rejects_other_ops_than_space(tmp_path, capsys, ops):
    # The first list has more ops than the space (queries of unknown
    # genotypes), the second the same ops in another order (mislabelled
    # output); both must fail before the run starts.
    space_path = str(tmp_path / "space.txt")
    main_cli(["gen-space", "--ops", "zero,skip,linear,relu_linear",
              "--out", space_path])
    out_dir = tmp_path / "run"
    rc = main_cli(["search", "--backend", "tabular", "--space", space_path,
                   "--num-nodes", "1", "--ops", ops, "--out", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert ops.replace(",", "', '") in err
    assert "'zero', 'skip', 'linear', 'relu_linear'" in err
    assert not out_dir.exists()


def test_split_size_not_multiple_of_classes_is_clean_error(tmp_path, capsys):
    rc = main_cli(["search", "--train-size", "601",
                   "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "n_train=601" in capsys.readouterr().err


def test_bad_bool_flag_is_clean_error(tmp_path, capsys):
    # A bool flag goes through the same parser as a config-file value, so a
    # typo is rejected instead of silently read as False.
    out_dir = tmp_path / "run"
    rc = main_cli(["search", "--timing", "ture", "--max-epochs", "1",
                   "--out", str(out_dir)])
    assert rc == 1
    assert "bad value for timing: 'ture' is not bool" in capsys.readouterr().err
    assert not out_dir.exists()


def test_unused_seed_flag_is_rejected(tmp_path, capsys):
    # The data comes from --seed; a second seed that changed nothing is not
    # accepted.
    out_dir = tmp_path / "run"
    rc = main_cli(["search", "--dataset-seed", "2", "--max-epochs", "1",
                   "--out", str(out_dir)])
    assert rc != 0
    assert "unrecognized arguments: --dataset-seed" in capsys.readouterr().err
    assert not out_dir.exists()


def test_nonfinite_values_rejected_before_run(tmp_path, capsys):
    out_dir = tmp_path / "run"
    for flag, value in (("--eta-w", "nan"), ("--swarm-bound", "inf")):
        rc = main_cli(["search", flag, value, "--max-epochs", "1",
                       "--out", str(out_dir)])
        assert rc == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize("argv, field", [
    (["search", "--num-classes", "0"], "num_classes"),
    (["search", "--num-classes", "1"], "num_classes"),
    (["search", "--feature-dim", "0"], "feature_dim"),
    (["search", "--history-capacity", "0"], "history_capacity"),
    (["search", "--log-format", "xml"], "log_format"),
    (["check-grad", "--feature-dim", "0"], "feature_dim"),
], ids=["search-classes-0", "search-classes-1", "search-feature-dim-0",
        "search-history-0", "search-log-xml", "check-grad-feature-dim-0"])
def test_bad_sizes_rejected_before_run(tmp_path, capsys, argv, field):
    # These escaped as ZeroDivisionError tracebacks, or failed only after
    # the run had started and written its out directory.
    out_dir = tmp_path / "run"
    if argv[0] == "search":
        argv = argv + ["--max-epochs", "1", "--out", str(out_dir)]
    assert main_cli(argv) == 1
    assert field in capsys.readouterr().err
    assert not out_dir.exists()


def test_empty_ops_rejected_before_run(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main_cli(["search", "--ops", ",", "--out", str(out_dir)])
    assert rc == 1
    assert "candidate_ops" in capsys.readouterr().err
    assert not out_dir.exists()


def test_trailing_comma_in_ops_accepted_by_every_command(tmp_path, capsys):
    # One --ops rule for all subcommands: names are stripped and empty
    # entries dropped.
    rc = main_cli(["gen-space", "--ops", "zero,skip,", "--out",
                   str(tmp_path / "space.txt")])
    assert rc == 0
    assert "16 genotypes" in capsys.readouterr().out
    rc = main_cli(["check-grad", "--num-nodes", "1", "--ops",
                   "zero,skip,linear,", "--feature-dim", "4", "--batch", "4"])
    assert rc == 0
    assert "max relative error" in capsys.readouterr().out


def test_check_grad_command(capsys):
    rc = main_cli(["check-grad", "--num-nodes", "1",
                   "--ops", "zero,skip,linear,tanh_linear",
                   "--feature-dim", "4", "--batch", "4"])
    assert rc == 0
    assert "max relative error" in capsys.readouterr().out


def test_bench_command_small(capsys):
    rc = main_cli(["bench", "--fn", "sphere", "--dim", "5", "--budget", "300",
                   "--seeds", "2", "--pop-size", "15"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "icso" in out and "cso" in out and "random" in out


@pytest.mark.parametrize("argv, flag", [
    (["--seeds", "0", "--dim", "3", "--budget", "60"], "--seeds"),
    (["--seeds", "1", "--dim", "0", "--budget", "60"], "--dim"),
    (["--seeds", "1", "--dim", "3", "--budget", "10"], "--budget"),
    (["--seeds", "1", "--dim", "3", "--budget", "14", "--pop-size", "15"],
     "--budget"),
], ids=["seeds-0", "dim-0", "budget-below-pop", "budget-one-short"])
def test_bench_bad_sizes_rejected_before_run(capsys, argv, flag):
    # These printed median_best=nan, 0 or inf and exited 0.
    assert main_cli(["bench"] + argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {flag} must be at least ")


def test_subcommand_defaults_match_library():
    bench = build_parser().parse_args(["bench"])
    swarm = SwarmConfig()
    assert (bench.pop_size, bench.phi, bench.bound) == (swarm.pop_size, swarm.phi,
                                                        swarm.swarm_bound)
    grad = build_parser().parse_args(["check-grad"])
    assert grad.num_nodes == ArchLayout().num_nodes
    assert tuple(grad.ops.split(",")) == ArchLayout().candidate_ops == DEFAULT_OPS


def test_search_reproducible_tabular(tmp_path):
    space_path = str(tmp_path / "space.txt")
    main_cli(["gen-space", "--ops", "zero,skip,linear", "--seed", "5",
              "--out", space_path])
    outs = []
    for name in ("a", "b"):
        out_dir = str(tmp_path / name)
        rc = main_cli(["search", "--backend", "tabular", "--space", space_path,
                       "--num-nodes", "1", "--ops", "zero,skip,linear",
                       "--pop-size", "21", "--warmup-epochs", "1",
                       "--max-epochs", "15", "--seed", "9", "--out", out_dir])
        assert rc == 0
        with open(os.path.join(out_dir, "log.csv"), "rb") as fh:
            log_bytes = fh.read()
        with open(os.path.join(out_dir, "genotype.txt"), "rb") as fh:
            gen_bytes = fh.read()
        outs.append((log_bytes, gen_bytes))
    assert outs[0] == outs[1]

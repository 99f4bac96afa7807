"""Tests for config parsing, logging, genotype files and the CLI commands."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from hybridnas import cli
from hybridnas.cli import (EpochLogger, RunConfig, build_parser,
                           export_genotype, main_cli, parse_config,
                           serialize_config)
from hybridnas.controller import (EpochRecord, SearchSettings, StageConfig,
                                  StopMode, TabularBackend)
from hybridnas.fitness import FitnessWeights
from hybridnas.supernet import DEFAULT_OPS, ArchLayout, Genotype
from hybridnas.swarm import SwarmConfig
from hybridnas.tabular import brute_force_best, load_space


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
    assert cfg.settings.swarm.pop_size == 60
    assert cfg.settings.swarm.phi == 0.15
    assert cfg.settings.swarm.generations_per_epoch == 8
    assert cfg.settings.weights.lambda_swarm == 0.3
    assert cfg.settings.weights.lambda_op == 0.2
    assert cfg.settings.stage.warmup_epochs == 5
    assert cfg.settings.stage.batch_size == 64
    assert cfg.settings.stage.eta_w == 0.025
    assert cfg.settings.stage.stability_threshold == 0.82
    assert cfg.settings.stage.stability_arch_lr == 1e-5
    assert cfg.settings.stage.abs_alpha_threshold == 1e-3
    assert cfg.settings.stage.confidence_delta == 0.05


def test_config_file_overrides_defaults(tmp_path):
    path = write(tmp_path, "c.txt", "pop_size = 12\nphi = 0.5  # inline\n")
    cfg = parse_config(path)
    assert cfg.settings.swarm.pop_size == 12 and cfg.settings.swarm.phi == 0.5


def test_flags_override_file(tmp_path):
    path = write(tmp_path, "c.txt", "pop_size = 12\n")
    cfg = parse_config(path, {"pop_size": 33})
    assert cfg.settings.swarm.pop_size == 33


def test_library_overrides_are_parsed_by_key_type():
    # Strings parse like file values: "false" used to stay a truthy string
    # that turned timing on, and "33" to escape as a TypeError.
    cfg = parse_config(None, {"timing": "false", "pop_size": "33",
                              "seed": "5", "stop_mode": "strict"})
    assert cfg.timing is False and cfg.seed == 5
    assert cfg.settings.swarm.pop_size == 33
    assert cfg.settings.stage.stop_mode is StopMode.STRICT
    # typed values still work
    cfg = parse_config(None, {"timing": True, "pop_size": 33, "phi": 0.4,
                              "stop_mode": StopMode.STRICT})
    assert cfg.timing is True and cfg.settings.swarm.phi == 0.4
    assert cfg.settings.swarm.pop_size == 33
    assert cfg.settings.stage.stop_mode is StopMode.STRICT


@pytest.mark.parametrize("key, value", [
    ("pop_size", "two"), ("seed", "x"), ("timing", "ture"), ("pop_size", 3.5)])
def test_bad_library_override_names_key(key, value):
    with pytest.raises(ValueError,
                       match=rf"^bad value for {key}: '{value}'"):
        parse_config(None, {key: value})


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
    cfg = RunConfig(settings=SearchSettings(swarm=SwarmConfig(pop_size=9, phi=0.4)),
                    backend="tabular", timing=True, ops="zero,skip,linear")
    path = write(tmp_path, "c.txt", serialize_config(cfg))
    assert parse_config(path) == cfg


def test_bad_stop_mode_in_file_names_key_and_line(tmp_path):
    # This used to fail with "'bogus' is not a valid StopMode", naming
    # neither the key nor the line.
    path = write(tmp_path, "c.txt", "stop_mode = bogus\n")
    with pytest.raises(ValueError,
                       match=r"^bad value for stop_mode \(line 1\): 'bogus'"):
        parse_config(path)


def test_bad_stop_mode_flag_names_key(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main_cli(["search", "--stop-mode", "bogus", "--out", str(out_dir)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: bad value for stop_mode: 'bogus'")
    assert not out_dir.exists()


# A valid value other than the default for every search key.
NON_DEFAULT = {
    "backend": "tabular", "space": "space.txt", "out": "elsewhere", "seed": 7,
    "log_format": "jsonl", "timing": True, "num_nodes": 3,
    "ops": "zero,skip,linear", "feature_dim": 8, "num_classes": 4,
    "train_size": 400, "val_size": 200,
    "pop_size": 9, "phi": 0.4, "generations_per_epoch": 3, "swarm_bound": 2.0,
    "lambda_swarm": 0.1, "lambda_op": 0.5, "history_capacity": 50,
    "warmup_epochs": 2, "batch_size": 16, "eta_w": 0.01,
    "exploration_eta_alpha": 0.5, "stability_threshold": 0.7,
    "stability_arch_lr": 1e-4, "min_stability_epochs": 3, "window_n": 4,
    "confidence_delta": 0.1, "abs_alpha_threshold": 0.01,
    "stop_mode": StopMode.HOEFFDING, "max_epochs": 50,
}


def search_keys():
    return set(vars(build_parser().parse_args(["search"]))) - {
        "command", "handler", "config"}


def owner(cfg, key):
    """The dataclass in ``cfg`` that holds ``key``, and the field's name."""
    name = "max_total_epochs" if key == "max_epochs" else key
    s = cfg.settings
    for obj in (cfg, s, s.swarm, s.weights, s.stage):
        if name in {f.name for f in fields(obj)}:
            return obj, name
    raise KeyError(key)


def test_search_keys_are_the_run_and_library_fields():
    run = {f.name for f in fields(RunConfig)} - {"settings"}
    library = [f.name for cls in (SwarmConfig, FitnessWeights, StageConfig)
               for f in fields(cls)]
    expected = (run | set(library) | {"history_capacity", "max_epochs"}) - {
        "max_total_epochs"}
    assert search_keys() == expected
    # no two of these fields share a name
    assert len(expected) == len(run) + len(library) + 1
    written = [ln.split(" = ")[0]
               for ln in serialize_config(RunConfig()).splitlines()]
    assert len(written) == len(expected) and set(written) == expected
    assert set(NON_DEFAULT) == expected


@pytest.mark.parametrize("source", ["file", "flag"])
@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_each_key_lands_in_its_dataclass_and_round_trips(tmp_path, key, source):
    value = NON_DEFAULT[key]
    text = value.value if isinstance(value, StopMode) else str(value)
    if source == "file":
        cfg = parse_config(write(tmp_path, "c.txt", f"{key} = {text}\n"))
    else:
        args = build_parser().parse_args(
            ["search", "--" + key.replace("_", "-"), text])
        cfg = cli._config_from_args(args)
    expected = RunConfig()
    obj, name = owner(expected, key)
    assert getattr(obj, name) != value
    setattr(obj, name, value)
    assert cfg == expected
    assert type(getattr(*owner(cfg, key))) is type(value)
    assert parse_config(write(tmp_path, "back.txt", serialize_config(cfg))) == cfg


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


def test_tabular_search_prints_heldout_quality(tmp_path, capsys):
    space_path = str(tmp_path / "space.txt")
    main_cli(["gen-space", "--ops", "zero,skip,linear", "--seed", "5",
              "--out", space_path])
    out_dir = str(tmp_path / "run")
    capsys.readouterr()
    rc = main_cli(["search", "--backend", "tabular", "--space", space_path,
                   "--num-nodes", "1", "--ops", "zero,skip,linear",
                   "--pop-size", "21", "--warmup-epochs", "1",
                   "--max-epochs", "6", "--seed", "3", "--out", out_dir])
    assert rc == 0
    ops = ["zero", "skip", "linear"]
    with open(os.path.join(out_dir, "genotype.txt"), encoding="utf-8") as fh:
        key = "-".join(str(ops.index(op)) for ln in fh.read().splitlines()
                       for op in ln.split(","))
    space = load_space(space_path)
    found, best = space.table[key], brute_force_best(space)[1]
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"test_acc={found.test_acc} regret={best.valid_acc - found.valid_acc}")


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


def test_failed_rerun_leaves_no_output_of_the_earlier_run(tmp_path, monkeypatch):
    # config.txt and genotype.txt were written only after the run, so a
    # rerun that failed left its log beside the earlier run's files; a log
    # in the other format was never removed.
    space_path = str(tmp_path / "space.txt")
    main_cli(["gen-space", "--ops", "zero,skip,linear", "--seed", "5",
              "--out", space_path])
    out_dir = str(tmp_path / "run")
    argv = ["search", "--backend", "tabular", "--space", space_path,
            "--num-nodes", "1", "--ops", "zero,skip,linear", "--pop-size", "21",
            "--warmup-epochs", "1", "--max-epochs", "6", "--out", out_dir]
    assert main_cli(argv + ["--seed", "1", "--log-format", "jsonl"]) == 0
    assert sorted(os.listdir(out_dir)) == ["config.txt", "genotype.txt",
                                           "log.jsonl"]

    def crash(self, position, eval_batch):
        raise RuntimeError("backend failed in exploration")

    monkeypatch.setattr(TabularBackend, "position_loss", crash)
    with pytest.raises(RuntimeError, match="exploration"):
        main_cli(argv + ["--seed", "2"])
    assert [r["epoch"] for r in read_log(os.path.join(out_dir, "log.csv"))] == [1]
    with open(os.path.join(out_dir, "config.txt"), encoding="utf-8") as fh:
        assert "seed = 2" in fh.read().splitlines()
    assert sorted(os.listdir(out_dir)) == ["config.txt", "log.csv"]


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


@pytest.mark.parametrize("name", [" padded ", "x\r", "a\nb"])
def test_gen_space_rejects_a_name_that_does_not_load_back(tmp_path, capsys, name):
    out = tmp_path / "space.txt"
    assert main_cli(["gen-space", "--ops", "zero,skip", "--name", name,
                     "--out", str(out)]) == 1
    assert "error: name must be one line" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["search", "--seed", "-1", "--max-epochs", "1"],
    ["search", "--config", "{config}", "--max-epochs", "1"],
    ["bench", "--seed", "-1", "--dim", "3", "--budget", "60", "--seeds", "1"],
    ["gen-space", "--seed", "-1"],
    ["check-grad", "--seed", "-1", "--num-nodes", "1", "--feature-dim", "4"],
], ids=["search", "search-config", "bench", "gen-space", "check-grad"])
def test_negative_seed_is_named_before_run(tmp_path, capsys, argv):
    # numpy's own message, "expected non-negative integer", named no input.
    out = tmp_path / "out"
    config = write(tmp_path, "c.txt", "seed = -1\n")
    argv = [a.replace("{config}", config) for a in argv]
    argv += ["--out", str(out)] if argv[0] in ("search", "gen-space") else []
    assert main_cli(argv) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


def test_module_entry_point_runs_from_a_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "hybridnas", "check-grad",
                           "--help"], capture_output=True, text=True, env=env,
                          timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: hybridnas check-grad")


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


@pytest.mark.parametrize("batch", [0, -1])
def test_check_grad_rejects_bad_batch(capsys, batch):
    # These used to print "batch has shape (0, 2)..." and numpy's
    # "negative dimensions are not allowed".
    assert main_cli(["check-grad", "--batch", str(batch)]) == 1
    assert capsys.readouterr().err == f"error: batch must be >= 1, got {batch}\n"


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

"""Command-line entry points and run configuration.

Config files are plain ``key = value`` text with ``#`` comments; flags
override file values, which override defaults.  Logs are one line per
epoch, flushed immediately, in CSV or JSONL.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from functools import reduce

import numpy as np

from .bench import TEST_FUNCTIONS, compare_strategies
from .controller import (EpochRecord, SearchSettings, StageConfig,
                         SupernetBackend, TabularBackend, run_search)
from .fitness import FitnessWeights
from .gradcheck import check_gradients, make_gradcheck_problem
from .runtime import RandomStream
from .supernet import (DEFAULT_OPS, ArchLayout, Genotype, SupernetState,
                       SyntheticDataset)
from .swarm import SwarmConfig
from .tabular import brute_force_best, generate_space, load_space, save_space


LOG_FORMATS = ("csv", "jsonl")


@dataclass
class RunConfig:
    """One search run: its own fields, then ``settings``.  Config-file keys
    and (kebab-cased) flags are its own field names, then the fields of
    ``settings`` in ``KEY_PATHS`` order, with ``max_total_epochs`` spelled
    ``max_epochs``.  ``parse_config`` validates every value."""

    backend: str = "supernet"
    space: str = ""
    out: str = "run_out"
    seed: int = 0
    log_format: str = "csv"
    timing: bool = False

    # layout / data
    num_nodes: int = ArchLayout.num_nodes
    ops: str = ",".join(DEFAULT_OPS)
    feature_dim: int = 16
    num_classes: int = 3
    train_size: int = 600
    val_size: int = 300

    settings: SearchSettings = field(default_factory=SearchSettings)

    def layout(self) -> ArchLayout:
        return _parse_layout(self.num_nodes, self.ops)


def _parse_layout(num_nodes: int, ops: str) -> ArchLayout:
    """``ops`` is comma-separated; names are stripped and empty entries
    dropped, so a trailing comma is allowed."""
    return ArchLayout(num_nodes, tuple(o.strip() for o in ops.split(",")
                                       if o.strip()))


def _coerce(key: str, raw: str, target_type, line_no: int | None = None):
    where = f" (line {line_no})" if line_no is not None else ""
    raw = raw.strip()
    try:
        if target_type is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError
        return target_type(raw)
    except ValueError:
        raise ValueError(f"bad value for {key}{where}: {raw!r} is not {target_type.__name__}")


def _check_seed(seed: int) -> None:
    # numpy's own message for a negative seed does not say which input it is
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _key_paths() -> dict[str, tuple[str, ...]]:
    """Each config key's attribute path in a RunConfig, in config.txt order.
    No two of these fields share a name, so a name picks out one field."""
    paths = ([(f.name,) for f in fields(RunConfig) if f.name != "settings"]
             + [("settings", "swarm", f.name) for f in fields(SwarmConfig)]
             + [("settings", "weights", f.name) for f in fields(FitnessWeights)]
             + [("settings", "history_capacity")]
             + [("settings", "stage", f.name) for f in fields(StageConfig)])
    aliases = {"max_total_epochs": "max_epochs"}
    return {aliases.get(path[-1], path[-1]): path for path in paths}


KEY_PATHS = _key_paths()
# A key's type is the type of its default, so ``stop_mode`` parses to StopMode.
KEY_DEFAULTS = {key: reduce(getattr, path, RunConfig())
                for key, path in KEY_PATHS.items()}


def _build(default, values: dict[str, object]):
    """``default`` with ``values``, keyed by field name, put in place.
    Nested dataclasses are built anew, so each validates its values."""
    def value(name):
        old = getattr(default, name)
        return _build(old, values) if is_dataclass(old) else values.get(name, old)
    return replace(default, **{f.name: value(f.name) for f in fields(default)})


def _text(value) -> str:
    # f"{StopMode.STRICT}" is "StopMode.STRICT" on Python 3.11
    return str(value.value if isinstance(value, Enum) else value)


def parse_config(file_path: str | None, flag_overrides: dict | None = None
                 ) -> RunConfig:
    """Defaults, then file values, then flag overrides.  Each override is
    parsed like a file value by its key's type; a typed value (``33``,
    ``True``, a ``StopMode``) is parsed from its text."""
    values: dict = {}
    if file_path:
        with open(file_path, encoding="utf-8") as fh:
            for no, ln in enumerate(fh, start=1):
                ln = ln.split("#", 1)[0].strip()
                if not ln:
                    continue
                if "=" not in ln:
                    raise ValueError(f"line {no}: expected 'key = value', got {ln!r}")
                key, raw = (p.strip() for p in ln.split("=", 1))
                if key not in KEY_PATHS:
                    raise ValueError(f"unknown config key {key!r} (line {no})")
                values[key] = _coerce(key, raw, type(KEY_DEFAULTS[key]), no)
    for key, val in (flag_overrides or {}).items():
        if key not in KEY_PATHS:
            raise ValueError(f"unknown config key {key!r}")
        value = values[key] = _coerce(key, _text(val), type(KEY_DEFAULTS[key]))
        # config.txt holds a value a line, and '#' starts a comment there
        if isinstance(value, str) and any(c in value for c in "#\n\r"):
            raise ValueError(f"{key} must not contain '#' or a line break, got {value!r}")
    cfg = _build(RunConfig(), {KEY_PATHS[k][-1]: v for k, v in values.items()})
    if cfg.log_format not in LOG_FORMATS:
        raise ValueError(f"log_format must be csv or jsonl, got "
                         f"{cfg.log_format!r}")
    cfg.layout()
    _check_seed(cfg.seed)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    return "".join(f"{key} = {_text(reduce(getattr, path, cfg))}\n"
                   for key, path in KEY_PATHS.items())


class EpochLogger:
    """One line per epoch, flushed per record."""

    def __init__(self, path: str, fmt: str):
        if fmt not in LOG_FORMATS:
            raise ValueError(f"log format must be csv or jsonl, got {fmt!r}")
        self.fmt = fmt
        try:
            self.fh = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise OSError(f"cannot open log file {path}: {exc}")
        if fmt == "csv":
            self.fh.write(",".join(EpochRecord.FIELDS) + "\n")
            self.fh.flush()

    def log_epoch(self, record: EpochRecord) -> None:
        vals = {k: getattr(record, k) for k in EpochRecord.FIELDS}
        if self.fmt == "csv":
            def cell(v):
                if v is None:
                    return ""
                if isinstance(v, float):
                    return repr(v)
                return str(v)
            self.fh.write(",".join(cell(vals[k]) for k in EpochRecord.FIELDS) + "\n")
        else:
            self.fh.write(json.dumps(vals) + "\n")
        self.fh.flush()

    def close(self) -> None:
        self.fh.close()


def export_genotype(genotype: Genotype, layout: ArchLayout, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(genotype.to_text(layout))
    except OSError as exc:
        raise OSError(f"cannot write genotype to {path}: {exc}")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="config file path")
    for key, default in KEY_DEFAULTS.items():
        parser.add_argument("--" + key.replace("_", "-"), default=None,
                            help=f"default: {_text(default) or 'empty'}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {key: getattr(args, key) for key in KEY_DEFAULTS
                 if getattr(args, key) is not None}
    return parse_config(args.config, overrides)


def _build_backend(cfg: RunConfig):
    layout = cfg.layout()
    if cfg.backend == "supernet":
        data_rng = RandomStream(cfg.seed).substream("data").generator
        init_rng = RandomStream(cfg.seed).substream("init").generator
        dataset = SyntheticDataset.spirals(
            data_rng, n_train=cfg.train_size, n_val=cfg.val_size,
            num_classes=cfg.num_classes)
        state = SupernetState.init(layout, init_rng, feature_dim=cfg.feature_dim,
                                   num_classes=cfg.num_classes)
        return SupernetBackend(layout, dataset, state)
    if cfg.backend == "tabular":
        if not cfg.space:
            raise ValueError("tabular backend requires --space")
        space = load_space(cfg.space)
        return TabularBackend(space, layout)
    raise ValueError(f"unknown backend {cfg.backend!r}")


def _cmd_search(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    backend = _build_backend(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    # A run that fails must not leave its log beside an earlier run's files.
    with open(os.path.join(cfg.out, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
    for name in ["genotype.txt"] + [f"log.{fmt}" for fmt in LOG_FORMATS]:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(cfg.out, name))
    logger = EpochLogger(os.path.join(cfg.out, f"log.{cfg.log_format}"),
                         cfg.log_format)
    try:
        result = run_search(cfg.settings, backend, cfg.seed, timing=cfg.timing,
                            on_record=logger.log_epoch)
    finally:
        logger.close()
    export_genotype(result.genotype, cfg.layout(),
                    os.path.join(cfg.out, "genotype.txt"))
    print(f"stages completed, termination={result.termination.value}, "
          f"epochs={len(result.records)}")
    print(f"genotype:\n{result.genotype.to_text(cfg.layout())}", end="")
    if cfg.backend == "tabular":
        # Held-out quality, read from the table outside the query budget.
        space = backend.space
        found = space.at(space.row(result.genotype))
        regret = brute_force_best(space)[1].valid_acc - found.valid_acc
        print(f"test_acc={found.test_acc} regret={regret}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    seeds = [args.seed + i for i in range(args.seeds)]
    config = SwarmConfig(pop_size=args.pop_size, phi=args.phi,
                         swarm_bound=args.bound)
    for flag, value in (("--seeds", args.seeds), ("--dim", args.dim)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    if args.budget < args.pop_size:
        # Below one generation both swarms would report inf.
        raise ValueError(f"--budget must be at least --pop-size "
                         f"({args.pop_size}), got {args.budget}")
    results = compare_strategies(args.fn, args.dim, args.budget, seeds, config)
    for name, vals in results.items():
        med = float(np.median(vals))
        print(f"{name:8s} median_best={med:.6g} runs={len(vals)}")
    return 0


def _cmd_gen_space(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    layout = _parse_layout(args.num_nodes, args.ops)
    space = generate_space(layout, args.seed, name=args.name)
    save_space(space, args.out)
    print(f"wrote {space.size} genotypes to {args.out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    space = load_space(args.space)
    key, metrics = brute_force_best(space)
    names = [space.op_names[int(i)] for i in key.split("-")]
    print(f"best genotype: {key} ({','.join(names)})")
    print(f"valid_acc={metrics.valid_acc} test_acc={metrics.test_acc} "
          f"cost={metrics.cost}")
    return 0


def _cmd_check_grad(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    layout = _parse_layout(args.num_nodes, args.ops)
    state, alpha, x, y = make_gradcheck_problem(
        layout, args.seed, batch=args.batch, feature_dim=args.feature_dim)
    res = check_gradients(state, alpha, x, y)
    print(f"max relative error: weights={res.max_rel_error_weights:.3e} "
          f"({res.num_weight_coords} coords), "
          f"alpha={res.max_rel_error_alpha:.3e} ({res.num_alpha_coords} coords)")
    return 0 if res.max_rel_error < 1e-5 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hybridnas")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run the three-stage search")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("bench", help="compare swarm strategies on test functions")
    p.add_argument("--fn", choices=tuple(TEST_FUNCTIONS), default="sphere")
    p.add_argument("--dim", type=int, default=224)
    p.add_argument("--budget", type=int, default=60 * 8 * 15)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pop-size", type=int, default=SwarmConfig.pop_size)
    p.add_argument("--phi", type=float, default=SwarmConfig.phi)
    p.add_argument("--bound", type=float, default=SwarmConfig.swarm_bound)
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("gen-space", help="emit a synthetic tabular space")
    p.add_argument("--num-nodes", type=int, default=1)
    p.add_argument("--ops", default="zero,skip,linear,relu_linear")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="synthetic")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen_space)

    p = sub.add_parser("oracle", help="brute-force best genotype of a space")
    p.add_argument("--space", required=True)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("check-grad", help="finite-difference gradient check")
    p.add_argument("--num-nodes", type=int, default=ArchLayout.num_nodes)
    p.add_argument("--ops", default=",".join(DEFAULT_OPS))
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_check_grad)
    return parser


def main_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(main_cli())

"""Command-line entry points and run configuration.

Config files are plain ``key = value`` text with ``#`` comments; flags
override file values, which override defaults.  Logs are one line per
epoch, flushed immediately, in CSV or JSONL.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .bench import TEST_FUNCTIONS, compare_strategies
from .controller import (EpochRecord, SearchSettings, StageConfig, StopMode,
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
    """Flat run configuration; field names double as config-file keys and
    (kebab-cased) CLI flags.  Fields named like a field of StageConfig,
    SwarmConfig or FitnessWeights are passed to it by name and take its
    default; ``max_epochs`` is StageConfig's ``max_total_epochs``."""

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

    # swarm
    pop_size: int = SwarmConfig.pop_size
    phi: float = SwarmConfig.phi
    generations_per_epoch: int = SwarmConfig.generations_per_epoch
    swarm_bound: float = SwarmConfig.swarm_bound

    # fitness
    lambda_swarm: float = FitnessWeights.lambda_swarm
    lambda_op: float = FitnessWeights.lambda_op
    history_capacity: int = SearchSettings.history_capacity

    # stages
    warmup_epochs: int = StageConfig.warmup_epochs
    batch_size: int = StageConfig.batch_size
    eta_w: float = StageConfig.eta_w
    exploration_eta_alpha: float = StageConfig.exploration_eta_alpha
    stability_threshold: float = StageConfig.stability_threshold
    stability_arch_lr: float = StageConfig.stability_arch_lr
    min_stability_epochs: int = StageConfig.min_stability_epochs
    window_n: int = StageConfig.window_n
    confidence_delta: float = StageConfig.confidence_delta
    abs_alpha_threshold: float = StageConfig.abs_alpha_threshold
    stop_mode: str = StageConfig.stop_mode.value
    max_epochs: int = StageConfig.max_total_epochs

    def layout(self) -> ArchLayout:
        return _parse_layout(self.num_nodes, self.ops)

    def settings(self) -> SearchSettings:
        values = vars(self) | {"max_total_epochs": self.max_epochs,
                               "stop_mode": StopMode(self.stop_mode)}

        def build(cls):
            return cls(**{f.name: values[f.name] for f in fields(cls)})

        return SearchSettings(stage=build(StageConfig), swarm=build(SwarmConfig),
                              weights=build(FitnessWeights),
                              history_capacity=self.history_capacity)


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


def _field_types() -> dict[str, type]:
    defaults = RunConfig()
    return {f.name: type(getattr(defaults, f.name)) for f in fields(RunConfig)}


def parse_config(file_path: str | None, flag_overrides: dict | None = None
                 ) -> RunConfig:
    """Defaults, then file values, then flag overrides."""
    values: dict = {}
    concrete = _field_types()
    if file_path:
        with open(file_path, encoding="utf-8") as fh:
            for no, ln in enumerate(fh, start=1):
                ln = ln.split("#", 1)[0].strip()
                if not ln:
                    continue
                if "=" not in ln:
                    raise ValueError(f"line {no}: expected 'key = value', got {ln!r}")
                key, raw = (p.strip() for p in ln.split("=", 1))
                if key not in concrete:
                    raise ValueError(f"unknown config key {key!r} (line {no})")
                values[key] = _coerce(key, raw, concrete[key], no)
    for key, val in (flag_overrides or {}).items():
        if key not in concrete:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = val
    cfg = RunConfig(**values)
    if cfg.log_format not in LOG_FORMATS:
        raise ValueError(f"log_format must be csv or jsonl, got "
                         f"{cfg.log_format!r}")
    cfg.settings()   # validate invariants up front
    cfg.layout()
    _check_seed(cfg.seed)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    return "\n".join(lines) + "\n"


class EpochLogger:
    """One line per epoch, flushed per record."""

    def __init__(self, path: str, fmt: str):
        if fmt not in LOG_FORMATS:
            raise ValueError(f"log format must be csv or jsonl, got {fmt!r}")
        self.fmt = fmt
        self.path = path
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
    for f in fields(RunConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), default=None)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Flag values are coerced like config-file values."""
    overrides = {key: _coerce(key, getattr(args, key), ftype)
                 for key, ftype in _field_types().items()
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
    logger = EpochLogger(os.path.join(cfg.out, f"log.{cfg.log_format}"),
                         cfg.log_format)
    try:
        result = run_search(cfg.settings(), backend, cfg.seed, timing=cfg.timing,
                            on_record=logger.log_epoch)
    finally:
        logger.close()
    export_genotype(result.genotype, cfg.layout(),
                    os.path.join(cfg.out, "genotype.txt"))
    with open(os.path.join(cfg.out, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
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
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(main_cli())

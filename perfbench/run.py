"""hybridnas benchmark: end-to-end search metrics and traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload supernet-default --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Everything
else printed before it is a human-readable report.  A full result, with the
environment and the metrics not gated by BENCHMARK.json, is written to
``.bench_out/``.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _limit_threads() -> None:
    """One BLAS thread unless the caller chose at most nproc; set before numpy
    loads.  The matrices are at most 64 x 80, so more threads only add noise."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        val = os.environ.get(var, "")
        if not (val.isdigit() and 1 <= int(val) <= nproc):
            os.environ[var] = "1"


_limit_threads()
sys.path.insert(0, str(ROOT / "src"))

import gc            # noqa: E402
import json          # noqa: E402
import math          # noqa: E402
import platform      # noqa: E402
import resource      # noqa: E402
import statistics    # noqa: E402
import subprocess    # noqa: E402
import time          # noqa: E402
import traceback     # noqa: E402
from contextlib import nullcontext  # noqa: E402

try:
    import numpy as np
    import hybridnas
    from hybridnas import controller
    from hybridnas.supernet import validation_accuracy
    from hybridnas.tabular import brute_force_best, load_space, save_space
except ImportError as exc:
    sys.exit(f"perfbench: cannot import hybridnas from {ROOT / 'src'}: {exc}")
if Path(hybridnas.__file__).resolve().parent != ROOT / "src" / "hybridnas":
    sys.exit(f"perfbench: hybridnas was imported from {hybridnas.__file__}, "
             f"not from {ROOT / 'src'}")

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

# Set-ups timed before each search (the last one is searched); supernet
# set-up takes ~0.2 ms, so it is sampled more often to steady its median.
SETUP_REPEATS = {"supernet": 4, "tabular": 1}
SELF_TIME_TOLERANCE = 0.01    # |sum of self times / traced search time - 1|

E2E_UNITS = {"setup_s": "s", "search_s.p50": "s", "arch_evals_per_s": "1/s",
             "epochs_per_s": "1/s", "quality.heldout_acc": "fraction",
             "peak_rss_mb": "MB"}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """Highest of p99.9/p99/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 75.0):
        if n * (1 - p / 100) >= 10:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.median(values)) if values else 0.0


def space_paths(workload, seed: int) -> list[Path]:
    return [OUT / f"space-{workload.name}-{seed}-{k}-{os.getpid()}.txt"
            for k in range(wl.SPACES)]


def write_spaces(workload, seed: int, paths: list[Path]) -> list[float]:
    """Generate and save the run's spaces; returns generate_space seconds."""
    times = []
    for k, path in enumerate(paths):
        t0 = time.perf_counter()
        space = wl.make_space(workload, seed, k)
        times.append(time.perf_counter() - t0)
        save_space(space, str(path))
    return times


def write_spaces_in_child(workload, seed: int, paths: list[Path]) -> list[float]:
    """write_spaces in a child process, so generating the spaces does not
    count in this process's peak memory."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--gen-spaces",
         *map(str, paths), "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        sys.exit(f"perfbench: space generation failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    """One measured run of a workload."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.settings = workload.settings()
        self.seeds = wl.search_seeds(workload, seed)
        self.tracer = tr.Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.plain: list[dict] = []      # untraced searches
        self.traced: list[dict] = []
        self.space_paths: list[Path] = []
        self.generate_space_s: list[float] = []
        self.oracle_acc: list[float] = []      # per space

    # -- set-up -----------------------------------------------------------
    def setup(self, index: int, search_seed: int, traced: bool = False):
        """Build a backend; returns (backend, seconds, space or None)."""
        if self.w.backend == "supernet":
            cls = tr.traced_backend(controller.SupernetBackend, self.tracer) \
                if traced else controller.SupernetBackend
            t0 = time.perf_counter()
            backend = wl.build_supernet_backend(self.w, search_seed, cls)
            return backend, time.perf_counter() - t0, None
        cls = tr.traced_backend(controller.TabularBackend, self.tracer) \
            if traced else controller.TabularBackend
        t0 = time.perf_counter()
        space = load_space(str(self.space_paths[index % wl.SPACES]))
        backend = cls(space, self.w.layout)
        return backend, time.perf_counter() - t0, space

    # -- one search -------------------------------------------------------
    def search(self, index: int, traced: bool, ref: bytes | None, timing: bool = True):
        """Set up and run one checked search; None when it failed."""
        s = self.seeds[index % len(self.seeds)]
        for _ in range(1 if traced else SETUP_REPEATS[self.w.backend]):
            backend, setup_s, space = self.setup(index, s, traced)
            if not traced:
                self.setup_s.append(setup_s)
        gc.collect()
        self.attempted += 1
        self.tracer.search_id = index
        patch = tr.patched(tr.instrument(self.tracer)) if traced else nullcontext()
        root = self.tracer.span("controller.run_search") if traced else nullcontext()
        try:
            with patch:
                t0 = time.perf_counter()
                with root:
                    result = controller.run_search(self.settings, backend, s,
                                                   timing=timing)
                elapsed = time.perf_counter() - t0
        except Exception:   # a search that raises counts as failed; keep measuring
            self.fail(f"search {index} (seed {s}) raised:\n{traceback.format_exc()}")
            return None
        oracle = self.oracle_acc[index % wl.SPACES] if space is not None else None
        problems = wl.check_search(self.w, result, space, oracle)
        if ref is not None and wl.serialize(result) != ref:
            problems.append("records or genotype differ from the reference run "
                            "of the same seed")
        if problems:
            self.fail(f"search {index} (seed {s}): " + "; ".join(problems))
            return None
        rec = {"index": index, "seed": s, "search_s": elapsed, "result": result,
               "epochs": wl.epoch_counts(result), "queries_used": backend.queries_used,
               "n_train": backend.dataset.train_x.shape[0] if space is None else 0,
               "space_rows": space.size if space is not None else 0}
        if traced:
            rec["archive_fill"] = self.tracer.counters.pop("fitness.archive_fill.last", 0.0)
        else:
            rec["quality"] = self.quality(s, result, backend, space, oracle)
        return rec

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    @staticmethod
    def quality(search_seed: int, result, backend, space, oracle) -> dict:
        if space is None:
            hx, hy = wl.heldout_split(search_seed)
            return {"heldout_acc": validation_accuracy(backend.state, result.alpha, hx, hy)}
        m = space.table[result.genotype.key()]
        return {"heldout_acc": m.test_acc, "test_acc": m.test_acc,
                "regret": oracle - m.valid_acc}

    # -- the run ----------------------------------------------------------
    def execute(self) -> None:
        if self.w.backend == "tabular":
            OUT.mkdir(exist_ok=True)
            self.space_paths = space_paths(self.w, self.seed)
        try:
            if self.space_paths:
                self.generate_space_s = write_spaces_in_child(self.w, self.seed,
                                                              self.space_paths)
                self.oracle_acc = [brute_force_best(load_space(str(p)))[1].valid_acc
                                   for p in self.space_paths]
            self._execute()
        finally:
            for path in self.space_paths:
                path.unlink(missing_ok=True)

    def _execute(self) -> None:
        # Untimed reference search of the first seed, with the program's own
        # timing off: it warms caches and is the byte-identity reference
        # for the first timed search.
        first = self.search(0, False, None, timing=False)
        ref = wl.serialize(first["result"]) if first else None

        t_start = time.perf_counter()
        index = 0
        while True:
            plain = self.search(index, False, ref if index == 0 else None)
            if plain is not None:
                self.plain.append(plain)
                if self.trace:
                    traced = self.search(index, True, wl.serialize(plain["result"]))
                    if traced is not None:
                        self.traced.append(traced)
            index += 1
            if time.perf_counter() - t_start >= self.seconds:
                break
        if self.trace:
            OUT.mkdir(exist_ok=True)
            self.tracer.save(str(OUT / f"spans-{self.w.name}.npz"))

    # -- metrics ----------------------------------------------------------
    def e2e_metrics(self) -> tuple[dict, dict]:
        """(gated metrics, reported-only metrics); rates are medians of
        per-search rates, so one slow search moves them little."""
        sw = self.settings.swarm
        per_epoch_evals = (sw.generations_per_epoch + 1) * sw.pop_size
        search_s, evals_rate, epochs_rate = [], [], []
        for r in self.plain:
            recs = r["result"].records
            expl_ms = sum(x.wall_ms for x in recs if x.stage == "exploration")
            evals = r["epochs"]["exploration"] * per_epoch_evals
            search_s.append(r["search_s"])
            evals_rate.append(evals / (expl_ms / 1000) if expl_ms else 0.0)
            epochs_rate.append(len(recs) / r["search_s"])
        q = [r["quality"] for r in self.plain]

        def med(xs):
            return statistics.median(xs) if xs else 0.0

        gated = {
            "setup_s": med(self.setup_s),
            "search_s.p50": med(search_s),
            "arch_evals_per_s": med(evals_rate),
            "epochs_per_s": med(epochs_rate),
            "quality.heldout_acc": statistics.fmean(x["heldout_acc"] for x in q) if q else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        extra = {
            "search_s.n": len(search_s),
            "setup_s.n": len(self.setup_s),
            "failed_frac": self.failed / self.attempted,
        }
        if self.w.backend == "tabular" and q:
            extra["quality.test_acc"] = statistics.fmean(x["test_acc"] for x in q)
            extra["quality.regret"] = statistics.fmean(x["regret"] for x in q)
        return gated, extra

    def expected_calls(self) -> dict[str, int]:
        """Call counts each wrapper must see, derived from the records."""
        sw = self.settings.swarm
        g, p = sw.generations_per_epoch, sw.pop_size
        b = self.settings.stage.batch_size
        exp: dict[str, int] = {}

        def add(name, n):
            exp[name] = exp.get(name, 0) + n

        for r in self.traced:
            w_, e, s = (r["epochs"][k] for k in wl.STAGE_ORDER)
            total = w_ + e + s
            add("controller.run_search", 1)
            add("controller.position_loss", e * (g + 1) * p)
            add("controller.fitness_fn", e * g * p)
            add("controller.train_weight_epoch", w_ + e)
            add("controller.stability_epoch", s)
            add("fitness.swarm_diversity", e * g * p)
            add("fitness.update_history", e * g)
            add("swarm.generation", e * g)
            if self.w.backend == "supernet":
                n_train = r["n_train"]
                add("supernet.loss", e * (g + 1) * p)
                add("supernet.discretize", e * (g + 1) * p + 1)
                add("supernet.validation_accuracy", total + e)
                add("supernet.loss_and_grads", (w_ + e) * math.ceil(n_train / b)
                    + s * 2 * max(1, n_train // b))
            else:
                add("tabular.evaluate_position", e * (g + 1) * p)
                add("supernet.discretize", e * (g + 1) * p + total + e + 1)
                add("tabular.lookups", e * (g + 1) * p + total + e)
        return exp

    def layer_metrics(self) -> tuple[dict, list[str]]:
        t = self.tracer
        warnings = []
        exp = self.expected_calls()
        mismatches = 0
        for name, n in sorted(exp.items()):
            seen = t.counters[name] if name in t.counters else t.calls(name)
            if seen != n:
                mismatches += 1
                warnings.append(f"{name}: {seen} calls traced, {n} expected from the records")
        traced_s = sum(r["search_s"] for r in self.traced)
        self_sum = sum(st.self_s for st in t.stats.values())
        coverage = self_sum / traced_s if traced_s else 0.0
        if abs(coverage - 1) > SELF_TIME_TOLERANCE:
            warnings.append(f"self times sum to {coverage:.4f} of traced search time "
                            f"(tolerance {SELF_TIME_TOLERANCE})")

        def rate(name):
            st = t.stats.get(name)
            return st.rows / st.self_s if st and st.self_s else 0.0

        gen_times = t.stats["swarm.generation"].self_times if "swarm.generation" in t.stats else []
        tail_p, tail = percentile_tail(gen_times)
        plain_traced = [r for r in self.plain if any(x["index"] == r["index"] for x in self.traced)]
        untraced_p50 = statistics.median(r["search_s"] for r in plain_traced) if plain_traced else 0.0
        traced_p50 = statistics.median(r["search_s"] for r in self.traced) if self.traced else 0.0
        load_s = statistics.median(self.setup_s) if self.w.backend == "tabular" else 0.0
        space_rows = self.traced[0]["space_rows"] if self.traced else 0
        distinct = sum(r["queries_used"] for r in self.traced) \
            if self.w.backend == "tabular" else 0
        lookups = t.counters.get("tabular.lookups", 0)
        epochs = {k: sum(r["epochs"][k] for r in self.traced) for k in wl.STAGE_ORDER}
        m = {
            "supernet.loss.calls": t.calls("supernet.loss"),
            "supernet.loss.self_s": t.self_s("supernet.loss"),
            "supernet.loss.rows_per_s": rate("supernet.loss"),
            "supernet.discretize.self_s": t.self_s("supernet.discretize"),
            "supernet.loss_and_grads.calls": t.calls("supernet.loss_and_grads"),
            "supernet.loss_and_grads.self_s": t.self_s("supernet.loss_and_grads"),
            "supernet.loss_and_grads.rows_per_s": rate("supernet.loss_and_grads"),
            "supernet.validation_accuracy.calls": t.calls("supernet.validation_accuracy"),
            "supernet.validation_accuracy.self_s": t.self_s("supernet.validation_accuracy"),
            "fitness.swarm_diversity.calls": t.calls("fitness.swarm_diversity"),
            "fitness.swarm_diversity.self_s": t.self_s("fitness.swarm_diversity"),
            "fitness.archive_rows_scanned": t.counters.get("fitness.archive_rows_scanned", 0),
            "fitness.archive_fill": statistics.fmean(r["archive_fill"] for r in self.traced)
            if self.traced else 0.0,
            "fitness.op_diversity.self_s": t.self_s("fitness.op_diversity"),
            "fitness.update_history.self_s": t.self_s("fitness.update_history"),
            "swarm.generation.calls": t.calls("swarm.generation"),
            "swarm.generation.self_s": t.self_s("swarm.generation"),
            "swarm.generation_s.p50": float(np.median(gen_times)) if gen_times else 0.0,
            "swarm.generation_s.tail": tail,
            "swarm.particle_updates": t.counters.get("swarm.particle_updates", 0),
            "tabular.load_space.s": load_s,
            "tabular.load_space.rows_per_s": space_rows / load_s if load_s else 0.0,
            "tabular.generate_space.s": statistics.median(self.generate_space_s)
            if self.generate_space_s else 0.0,
            "tabular.evaluate_position.calls": t.calls("tabular.evaluate_position"),
            "tabular.evaluate_position.self_s": t.self_s("tabular.evaluate_position"),
            "tabular.distinct_queries": distinct,
            "tabular.query_hit_ratio": 1 - distinct / lookups if lookups else 0.0,
            "controller.self_s": t.self_s("controller.run_search"),
            "controller.position_loss.self_s": t.self_s("controller.position_loss"),
            "controller.fitness_fn.self_s": t.self_s("controller.fitness_fn"),
            "controller.stability_epoch.self_s": t.self_s("controller.stability_epoch"),
            "controller.train_weight_epoch.self_s": t.self_s("controller.train_weight_epoch"),
            "controller.epochs.warmup": epochs["warmup"],
            "controller.epochs.exploration": epochs["exploration"],
            "controller.epochs.stability": epochs["stability"],
            "controller.searches": len(self.traced),
            "trace.search_s.p50": traced_p50,
            "trace.untraced_search_s.p50": untraced_p50,
            "trace.overhead_s": traced_p50 - untraced_p50,
            "trace.self_time_coverage": coverage,
            "trace.count_mismatches": mismatches,
        }
        self.tail_percentile = tail_p
        return m, warnings


LAYER_UNITS = {
    "calls": "count", "self_s": "s", "rows_per_s": "1/s", "s": "s",
    "archive_rows_scanned": "count", "archive_fill": "fraction",
    "p50": "s", "tail": "s", "particle_updates": "count",
    "distinct_queries": "count", "query_hit_ratio": "fraction",
    "warmup": "count", "exploration": "count", "stability": "count",
    "searches": "count", "overhead_s": "s", "self_time_coverage": "fraction",
    "count_mismatches": "count",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = wl.WORKLOADS[name]
    run = Run(w, seed, seconds, trace)
    run.execute()
    gated, extra = run.e2e_metrics()
    env = environment()
    print(f"== {name}  seed={seed}  seconds={seconds}  trace={int(trace)}")
    print(f"   environment: {json.dumps(env)}")
    print(f"   searches: {run.attempted} attempted, {run.failed} failed "
          f"(failed_frac {extra['failed_frac']:.4f})")
    for k, v in gated.items():
        print(f"   {k:<34} {v:>14.6g} {E2E_UNITS[k]}")
    print(f"   samples: {extra['search_s.n']} timed searches, {extra['setup_s.n']} set-ups")
    for k in ("quality.test_acc", "quality.regret"):
        if k in extra:
            print(f"   {k:<34} {extra[k]:>14.6g} fraction")
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems, "end_to_end": gated, "reported": extra}
    if trace:
        layers, warnings = run.layer_metrics()
        print(f"   traced searches: {len(run.traced)}; swarm.generation_s.tail is "
              f"p{run.tail_percentile:g}")
        top = sorted((k for k in layers if k.endswith(".self_s")),
                     key=lambda k: -layers[k])[:3]
        print("   largest self times: " + ", ".join(f"{k}={layers[k]:.3f}s" for k in top))
        for k, v in layers.items():
            print(f"   {k:<40} {v:>14.6g} {layer_unit(k)}")
        for msg in warnings:
            print(f"   WARNING trace integrity: {msg}")
        result["per_layer"] = layers
        result["trace_warnings"] = warnings
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in gated.items()}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(wl.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gen-spaces", nargs="+", metavar="PATH", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.gen_spaces:
        times = write_spaces(wl.WORKLOADS[args.workload], args.seed,
                             [Path(p) for p in args.gen_spaces])
        print(json.dumps(times))
        return 0
    names = sorted(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{n}/{k}": v for n, r in results.items()
                               for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

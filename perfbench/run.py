"""pairsim benchmark: named workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every repeat runs in a fresh process
(``worker.py``), so pairsim's module-level caches start empty, as they do
for a user. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The lines before it give every metric with its unit,
quartiles and sample count, the unscaled and wall-clock timings, the
environment, and the output checks. Timings are CPU seconds scaled to a
reference host speed by ``yardstick.py``. See README.md next to this
file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"
TREND_CONFIG = "configs/trend-beta030.json"

WORKLOADS = ("trend-serial", "grid-data", "grid-par2", "files")
RECIPES = ("representative", "nonrep1", "nonrep2", "adjusted")
GRID_BETAS = (0.1, 0.3)
FAST_TRAIN = {"epochs": 1, "hash_dim": 4096}
FILES_BETA = 0.3
FILES_RECIPES = ("representative", "nonrep1", "adjusted")
PAIR_BENCHMARK = {"A": "1/2", "B": "1/2"}

SETUP_PROBES = 3
# Repeats per run: as many as fit in --seconds, at least this many. A
# sweep repeat is long, so its determinism check is a one-cell spot check
# instead of a second repeat (see _untraced).
MIN_REPEATS = {"sweep": 1, "files": 2}
SPOT_RECIPE = "nonrep1"
RUN_LIMIT_S = 170.0

# Timings are CPU seconds (user + system, of the process and its
# children) at reference speed: each cell, CLI step or set-up is scaled by
# the yardstick probed next to it (see yardstick.py). On a shared host the
# wall clock also counts the time the hypervisor keeps the vCPU away, and
# raw CPU time swings by up to 1.8x with the other tenants' load.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "cell_cpu_p50_s": "s",
    "peak_rss_mb": "MB",
    "acb_representative": "ACB",
    "pair_repair_frac": "ratio",
}

# Raw counterparts, printed in the text lines only.
UNSCALED = {
    "cpu_raw_s": "s",
    "cell_cpu_raw_p50_s": "s",
    "setup_cpu_raw_s": "s",
    "probe_ms": "ms",
    "wall_s": "s",
    "cell_p50_s": "s",
    "setup_wall_s": "s",
}

PER_LAYER = {
    "experiments.load_gold_s": "s",
    "experiments.split_s": "s",
    "experiments.cell_self_s": "s",
    "experiments.suite_builds": "count",
    "experiments.suite_reuse": "ratio",
    "experiments.worker_busy_frac": "ratio",
    "simulation.build_suite_s": "s",
    "simulation.records_built": "count",
    "simulation.restrict_s": "s",
    "simulation.write_dataset_s": "s",
    "simulation.read_dataset_s": "s",
    "simulation.gold_io_s": "s",
    "simulation.jsonl_mb": "MB",
    "rng.stream_calls": "count",
    "rng.stream_s": "s",
    "adjust.apply_pair_s": "s",
    "adjust.replicas_added": "count",
    "trainer.train_s": "s",
    "trainer.instances": "count",
    "trainer.loss_and_grad_calls": "count",
    "trainer.loss_and_grad_s": "s",
    "trainer.optimizer_self_s": "s",
    "trainer.best_epoch": "epoch",
    "trainer.token_index_calls": "count",
    "trainer.token_index_s": "s",
    "trainer.predict_s": "s",
    "trainer.model_io_s": "s",
    "metrics.score_s": "s",
    "cli.simulate_s": "s",
    "cli.adjust_s": "s",
    "cli.train_s": "s",
    "cli.evaluate_s": "s",
    "trace_overhead_frac": "ratio",
    "micro.stream_us": "us",
    "micro.token_index_us": "us",
    "micro.apply_pair_ms": "ms",
    "micro.train_epoch_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run: missing program, crash or timeout."""


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int, base_config: str) -> dict:
    """The generated config and run parameters of a workload, from its seed.

    trend-serial, grid-par2 and files draw the same cell seed from the
    same ``seed``, so they run the same cells.
    """
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    config = json.loads((ROOT / base_config).read_text(encoding="utf-8"))
    cell_seeds = random.Random(seed).sample(range(1, 1_000_000), 2)
    config["recipes"] = list(RECIPES)
    config["seeds"] = cell_seeds[:1]
    inputs = {"kind": "sweep", "workers": 1, "micro": {"beta": config["betas"][-1],
                                                      "seed": cell_seeds[0]}}
    if workload == "grid-data":
        config["seeds"] = cell_seeds
        config["betas"] = list(GRID_BETAS)
        config["train"] = {**config["train"], **FAST_TRAIN}
    elif workload == "grid-par2":
        inputs["workers"] = 2
    elif workload == "files":
        inputs["kind"] = "files"
        inputs["files"] = {"beta": FILES_BETA, "seed": cell_seeds[0],
                           "recipes": list(FILES_RECIPES), **FAST_TRAIN}
    inputs["config"] = config
    inputs["spot_config"] = {**config, "recipes": [SPOT_RECIPE], "betas": config["betas"][:1],
                             "seeds": config["seeds"][:1]}
    return inputs


# ---------------------------------------------------------------------------
# processes


# pairsim does no dense linear algebra (its matrix products are scipy
# sparse, single-threaded), so a BLAS thread pool only spins at start-up,
# burning CPU time that delays nothing and varies from run to run.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker_env() -> dict:
    env = {**os.environ, **ONE_THREAD}
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Runner:
    """Starts workers for one benchmark run and keeps them under its deadline."""

    def __init__(self, job_dir: Path, base_job: dict) -> None:
        self.job_dir = job_dir
        self.base_job = base_job
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = _worker_env()
        self.launched = 0

    def launch(self, **job) -> dict:
        self.launched += 1
        name = f"{self.launched:02d}-{job['kind']}"
        job = {**self.base_job, **job, "result": str(self.job_dir / f"{name}.result.json")}
        if job["kind"] in ("sweep", "files"):
            job["out"] = str(self.job_dir / name)
            Path(job["out"]).mkdir()
        job_path = self.job_dir / f"{name}.job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        log_path = self.job_dir / f"{name}.log"
        started = time.monotonic()
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                [sys.executable, str(WORKER), str(job_path)],
                cwd=ROOT,
                env=self.env,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # the whole session, so pool workers of a killed repeat go too
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if code != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            what = "timed out" if code is None else f"exited with {code}"
            raise BenchError(f"{name} {what}:\n{tail}")
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        result["setup_s"] = result["t_setup_done"] - started
        return result


# ---------------------------------------------------------------------------
# statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, if above p50."""
    n = len(values)
    pct = (100 * (n - 10)) // n if n > 10 else 0
    if pct <= 50:
        return None
    return pct, sorted(values)[n - 11]


def quality(acb_by_recipe: dict[str, list[float]]) -> tuple[float, float]:
    """acb_representative and pair_repair_frac from per-recipe test ACBs."""
    mean = {r: statistics.fmean(v) for r, v in acb_by_recipe.items()}
    repaired = mean["nonrep1"] - mean["adjusted"]
    return mean["representative"], repaired / (mean["nonrep1"] - mean["representative"])


# ---------------------------------------------------------------------------
# one run


def _acb_by_recipe(result: dict) -> dict[str, list[float]]:
    if "acb" in result:
        return {r: [v] for r, v in result["acb"].items()}
    out: dict[str, list[float]] = {}
    for recipe, _, _, acb, *_ in result["rows"]:
        out.setdefault(recipe, []).append(acb)
    return out


# Where a row of a sweep repeat and a step of a files repeat hold each time.
ROW_COLUMNS = {"wall": 4, "cpu_raw": 5, "cpu": 6}
STEP_COLUMNS = {"wall": 2, "cpu_raw": 3, "cpu": 4}


def _cell_times(result: dict, clock: str) -> list[float]:
    """Cell times by ``clock``; on files, train plus evaluate time per recipe."""
    if "rows" in result:
        return [row[ROW_COLUMNS[clock]] for row in result["rows"]]
    per_recipe: dict[str, float] = {}
    for step in result["steps"]:
        if step[1]:
            per_recipe[step[1]] = per_recipe.get(step[1], 0.0) + step[STEP_COLUMNS[clock]]
    return list(per_recipe.values())


def _busy_s(result: dict) -> float:
    """Wall time spent inside cells (or CLI steps), summed over workers."""
    if "rows" in result:
        return sum(row[ROW_COLUMNS["wall"]] for row in result["rows"])
    return sum(step[STEP_COLUMNS["wall"]] for step in result["steps"])


def _attempted(result: dict) -> int:
    if "steps" in result:
        return len(result["steps"])
    return len(result["rows"]) + len(result["failures"])


def output_problems(workload: str, results: list[dict], spot: dict | None) -> list[str]:
    """Output checks over the repeats of one run; empty when all pass."""
    problems = []
    for i, result in enumerate(results + ([spot] if spot else [])):
        problems += [f"repeat {i + 1}: {f}" for f in result["failures"]]
        problems += [f"repeat {i + 1}: {p}" for p in result.get("problems", [])]
    if len({r["digest"] for r in results}) != 1:
        problems.append("outputs differ between repeats")
    if spot is not None and not set(spot["cell_lines"]) <= set(results[0]["cell_lines"]):
        problems.append(
            f"report row {spot['cell_lines']} of a serial one-cell sweep in a fresh process "
            "is not in the workload's report"
        )
    if workload in ("trend-serial", "grid-par2") and not problems:
        acb = {r: statistics.fmean(v) for r, v in _acb_by_recipe(results[0]).items()}
        if not acb["nonrep2"] > acb["nonrep1"] > acb["adjusted"]:
            problems.append(f"criterion-6 ordering fails: mean ACB {acb}")
    return problems


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    base_config: str = TREND_CONFIG,
    probes: int = SETUP_PROBES,
) -> dict:
    """Run one benchmark run; returns metrics, samples, checks and (traced) spans."""
    if not (ROOT / "src" / "pairsim" / "__init__.py").is_file():
        raise BenchError(f"no pairsim sources under {ROOT / 'src'}")
    if not (ROOT / base_config).is_file():
        raise BenchError(f"workload config {base_config} is missing")
    inputs = make_inputs(workload, seed, base_config)
    OUT_DIR.mkdir(exist_ok=True)
    job_dir = OUT_DIR / f"{workload}-{os.getpid()}-{time.time_ns()}"
    job_dir.mkdir()
    try:
        config_path = job_dir / "config.json"
        config_path.write_text(json.dumps(inputs.pop("config"), indent=2), encoding="utf-8")
        spot_path = job_dir / "spot-config.json"
        spot_path.write_text(json.dumps(inputs.pop("spot_config"), indent=2), encoding="utf-8")
        if "files" in inputs:
            bench_path = job_dir / "benchmark.json"
            bench_path.write_text(json.dumps(PAIR_BENCHMARK), encoding="utf-8")
            inputs["files"]["benchmark"] = str(bench_path)
        runner = Runner(job_dir, {**inputs, "config": str(config_path)})
        if trace:
            out = _traced(runner, workload, job_dir)
        else:
            out = _untraced(runner, workload, seconds, probes, spot_path)
        out["inputs"] = {k: v for k, v in inputs.items() if k != "micro"}
        out["config"] = json.loads(config_path.read_text(encoding="utf-8"))
        return out
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)
        try:
            OUT_DIR.rmdir()
        except OSError:
            pass


def _untraced(
    runner: Runner, workload: str, seconds: float, probes: int, spot_config: Path
) -> dict:
    kind = runner.base_job["kind"]
    probed = [runner.launch(kind="setup") for _ in range(probes)]
    results: list[dict] = []
    start = time.monotonic()
    spent = 0.0
    while len(results) < MIN_REPEATS[kind] or spent + spent / len(results) <= seconds:
        results.append(runner.launch(kind=kind))
        spent = time.monotonic() - start
    # Serial, in a fresh process: its row must match the timed repeats',
    # which also checks a 2-worker report against a serial one.
    spot = None
    if kind == "sweep":
        spot = runner.launch(kind=kind, workers=1, config=str(spot_config))
    started = probed + results + ([spot] if spot else [])
    samples = {
        "setup_s": [yardstick.scaled(r["setup_cpu_s"], r["setup_probe_s"]) for r in started],
        "cpu_s": [r["cpu_ref_s"] for r in results],
        "cell_cpu_p50_s": [t for r in results for t in _cell_times(r, "cpu")],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "cpu_raw_s": [r["cpu_s"] for r in results],
        "cell_cpu_raw_p50_s": [t for r in results for t in _cell_times(r, "cpu_raw")],
        "setup_cpu_raw_s": [r["setup_cpu_s"] for r in started],
        "probe_ms": [r["setup_probe_s"] * 1e3 for r in started],
        "wall_s": [r["wall_s"] for r in results],
        "cell_p50_s": [t for r in results for t in _cell_times(r, "wall")],
        "setup_wall_s": [r["setup_s"] for r in started],
    }
    metrics = {name: quartiles(values)[1] for name, values in samples.items()}
    problems = output_problems(workload, results, spot)
    if not problems:
        metrics["acb_representative"], metrics["pair_repair_frac"] = quality(
            _acb_by_recipe(results[0])
        )
    runs = results + ([spot] if spot else [])
    return {
        "digest": results[0]["digest"],
        "metrics": metrics,
        "samples": samples,
        "problems": problems,
        "attempted": sum(_attempted(r) for r in runs),
        "failed": sum(len(r["failures"]) for r in runs),
    }


def _traced(runner: Runner, workload: str, job_dir: Path) -> dict:
    import tracing

    kind = runner.base_job["kind"]
    plain = runner.launch(kind=kind)
    spans_dir = job_dir / "spans"
    spans_dir.mkdir()
    traced = runner.launch(kind=kind, trace=True, spans_dir=str(spans_dir))
    micro = runner.launch(kind="micro")
    spans, calls = tracing.read_trace(spans_dir)
    problems = output_problems(workload, [plain, traced], None)
    root = "cli.main" if kind == "files" else "experiments.run_cell"
    problems += tracing.check_span_trees(spans, root, _attempted(traced))
    metrics = tracing.layer_metrics(spans, calls)
    workers = runner.base_job["workers"]
    metrics["experiments.worker_busy_frac"] = _busy_s(plain) / (workers * plain["wall_s"])
    metrics["trace_overhead_frac"] = traced["cpu_ref_s"] / plain["cpu_ref_s"] - 1
    metrics.update({k: v for k, v in micro.items() if k in PER_LAYER})
    return {
        "metrics": metrics,
        "samples": {"wall_s": [plain["wall_s"]], "traced_wall_s": [traced["wall_s"]]},
        "problems": problems,
        "attempted": _attempted(plain) + _attempted(traced),
        "failed": len(plain["failures"]) + len(traced["failures"]),
        "spans": spans,
        "traced_busy_s": sum(s["end"] - s["start"] for s in spans if s["parent"] is None),
        "micro_records": micro["micro.apply_pair_records"],
    }


# ---------------------------------------------------------------------------
# environment and report


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else ref[5:]
    return ref


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def report_lines(workload: str, seed: int, trace: bool, out: dict) -> list[str]:
    """Human-readable lines: every metric with unit, quartiles and sample count."""
    config = out["config"]
    lines = [
        f"# pairsim benchmark: workload={workload} seed={seed} trace={int(trace)}",
        f"# env {json.dumps(environment(), sort_keys=True)}",
    ]
    if out["inputs"]["kind"] == "files":
        files = {k: v for k, v in out["inputs"]["files"].items() if k != "benchmark"}
        lines.append(f"# cli steps: simulate, adjust, then train and evaluate per recipe: {files}")
    else:
        lines.append(f"# cells: recipes={config['recipes']} betas={config['betas']} "
                     f"seeds={config['seeds']} train={config['train']} "
                     f"workers={out['inputs']['workers']}")
    units = PER_LAYER if trace else END_TO_END
    samples = out["samples"]

    def metric_line(name: str, unit: str) -> str:
        value = out["metrics"].get(name)
        if value is None:
            return f"{name:32s} {'-':>14s} {unit}"
        line = f"{name:32s} {value:14.6g} {unit}"
        if name in samples and len(samples[name]) > 1:
            q1, _, q3 = quartiles(samples[name])
            line += f"  q1={q1:.6g} q3={q3:.6g} n={len(samples[name])}"
        return line

    lines += [metric_line(name, unit) for name, unit in units.items()]
    if not trace:
        lines.append("# unscaled CPU time, the yardstick at set-up, and wall clock "
                     "(which counts the probes and the time the host keeps the vCPU away):")
        lines += [metric_line(name, unit) for name, unit in UNSCALED.items()]
        for name in ("cell_cpu_p50_s", "cell_cpu_raw_p50_s", "cell_p50_s"):
            tail = tail_percentile(samples[name])
            if tail:
                tail_name = name.replace("p50", f"p{tail[0]}")
                lines.append(f"{tail_name:32s} {tail[1]:14.6g} s  n={len(samples[name])}")
    else:
        busy = out["traced_busy_s"]
        lines.append(f"# untraced wall {out['samples']['wall_s'][0]:.3f} s, traced wall "
                     f"{out['samples']['traced_wall_s'][0]:.3f} s, {busy:.3f} s inside "
                     "traced cells or CLI steps, of which:")
        for name in ("trainer.train_s", "trainer.token_index_s", "trainer.loss_and_grad_s",
                     "trainer.optimizer_self_s", "simulation.build_suite_s", "rng.stream_s",
                     "simulation.restrict_s", "simulation.write_dataset_s",
                     "simulation.read_dataset_s", "trainer.predict_s"):
            lines.append(f"#   {name:30s} {out['metrics'][name] / busy:6.1%}")
        lines.append(f"# micro.apply_pair_ms measured on {out['micro_records']} records")
    failed_frac = out["failed"] / out["attempted"] if out["attempted"] else 0.0
    lines.append(f"{'failed_frac':32s} {failed_frac:14.6g} ratio  ({out['failed']}/{out['attempted']})")
    if out["problems"]:
        lines += [f"# CHECK FAILED: {p}" for p in out["problems"]]
    else:
        lines.append("# output checks: all passed")
    return lines


def final_result(out: dict, trace: bool) -> dict:
    """The result line: end-to-end metrics, or per-layer ones when traced."""
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not out["problems"] and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": out["metrics"][name], "unit": unit}
            for name, unit in units.items()
            if name in out["metrics"]
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for line in report_lines(args.workload, args.seed, bool(args.trace), out):
        print(line)
    result = final_result(out, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""One fresh process of the pairsim benchmark.

``python3 perfbench/worker.py JOB.json`` sets up (imports and config
load), runs one repeat of a workload or the microbenchmarks, and writes
a result JSON file named in the job. ``run.py`` starts one such process
per repeat so that pairsim's module-level caches start empty, as they do
for a user; it also puts the checkout's ``src`` first on ``PYTHONPATH``.

The process pins itself to one CPU and starts a ``yardstick`` sampler
before it imports pairsim, so that set-up, every cell and every CLI step
are timed in CPU seconds together with the host speed while they ran.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import yardstick

# Per-cell CPU seconds go to <dir>/<pid>.jsonl, which is how pool workers
# hand theirs back; spawned workers find the directory in the environment.
CELL_CPU_ENV = "PERFBENCH_CELL_CPU_DIR"
_ORIGINAL_CELL_OUTCOME = None
# The CPUs this process was started with, before it pinned itself to one.
_CPUS = sorted(os.sched_getaffinity(0))


def setup(job: dict):
    """Imports and config load: everything a run pays before the timed region."""
    from pairsim import cli, experiments  # noqa: F401  (cli: the files workload)

    return experiments.load_config(job["config"])


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def pin(index: int) -> None:
    """Run this process on one of the CPUs it was started with, chosen by ``index``."""
    os.sched_setaffinity(0, {_CPUS[index % len(_CPUS)]})


def timed(fn, *args):
    """``fn(*args)`` and [its CPU s, the mean probe s during it, the probes' CPU s].

    The CPU time leaves out the probes, which run in this process.
    """
    sampler = yardstick.sampler()
    mark = sampler.mark()
    start = time.process_time()
    result = fn(*args)
    cpu = time.process_time() - start
    end = sampler.mark()
    probes_cpu = end[1] - mark[1]
    return result, [cpu - probes_cpu, sampler.probe_s(mark, end), probes_cpu]


def scaled_total(cpu_s: float, parts: list[list[float]]) -> float:
    """``cpu_s`` at reference speed, scaled as its timed parts were on the whole."""
    raw = sum(cpu for cpu, _, _ in parts)
    return cpu_s * sum(yardstick.scaled(cpu, p) for cpu, p, _ in parts) / raw


def cell_outcome(args):
    """Stand-in for ``experiments._cell_outcome`` that records the cell's CPU time."""
    from pairsim import experiments

    original = _ORIGINAL_CELL_OUTCOME or experiments._cell_outcome
    if yardstick.sampler_pid() != os.getpid():
        # a pool worker: one CPU of its own, numbered by the pool
        pin(multiprocessing.current_process()._identity[0] - 1)
    outcome, clock = timed(original, args)
    _, recipe, beta, seed = args
    path = Path(os.environ[CELL_CPU_ENV]) / f"{os.getpid()}.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps([recipe, beta, seed, clock]) + "\n")
    return outcome


def run_sweep(job: dict, config) -> dict:
    global _ORIGINAL_CELL_OUTCOME
    from pairsim import experiments

    out = Path(job["out"])
    cpu_dir = Path(job["out"] + ".cells")
    cpu_dir.mkdir()
    os.environ[CELL_CPU_ENV] = str(cpu_dir)
    _ORIGINAL_CELL_OUTCOME = experiments._cell_outcome
    experiments._cell_outcome = cell_outcome
    sampler = yardstick.sampler()
    if job["workers"] > 1:
        # the pool forks its workers, which scale their own cells
        sampler.stop()
        os.sched_setaffinity(0, _CPUS)
    try:
        start = time.perf_counter()
        mark = sampler.mark()
        cpu_start = cpu_seconds()
        swept = experiments.sweep(config, output_dir=out, workers=job["workers"])
        cpu = cpu_seconds() - cpu_start
        cpu -= sampler.mark()[1] - mark[1]
        wall = time.perf_counter() - start
    finally:
        experiments._cell_outcome = _ORIGINAL_CELL_OUTCOME
    clocks = {}
    for path in cpu_dir.glob("*.jsonl"):
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        clocks.update((tuple(line[:3]), line[3]) for line in lines)
        if path.stem != str(os.getpid()):
            # probes of a pool worker, counted in its CPU time
            cpu -= sum(line[3][2] for line in lines)
    rows = []
    for r in swept.rows:
        cell_cpu, probe_s, _ = clocks[(r.recipe, r.beta, r.seed)]
        rows.append([r.recipe, r.beta, r.seed, r.acb, r.wall_time, cell_cpu,
                     yardstick.scaled(cell_cpu, probe_s)])
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "cpu_ref_s": scaled_total(cpu, list(clocks.values())),
        "rows": rows,
        "failures": [f.error for f in swept.failures],
        "digest": _digest([out / experiments.REPORT_NAME]),
        "cell_lines": [
            line
            for line in (out / experiments.REPORT_NAME).read_text(encoding="utf-8").splitlines()
            if line.startswith("cell,")
        ],
    }


def _files_steps(job: dict) -> list[tuple[str, str, list[str]]]:
    """(step, recipe, argv) for simulate -> adjust -> train/evaluate per recipe."""
    d = Path(job["out"])
    f = job["files"]
    steps = [
        ("simulate", "", ["simulate", "--config", job["config"], "--beta", str(f["beta"]),
                          "--seed", str(f["seed"]), "--out", str(d)]),
        ("adjust", "", ["adjust", "--dataset", str(d / "nonrep1.jsonl"),
                        "--benchmark", f["benchmark"], "--out-dataset", str(d / "adjusted.jsonl"),
                        "--out-weights", str(d / "weights.json")]),
    ]
    for recipe in f["recipes"]:
        model = str(d / f"{recipe}.model.json")
        steps.append(("train", recipe, ["train", "--dataset", str(d / f"{recipe}.jsonl"),
                                        "--gold", str(d / "gold.jsonl"), "--out", model,
                                        "--seed", str(f["seed"]), "--epochs", str(f["epochs"]),
                                        "--hash-dim", str(f["hash_dim"])]))
        steps.append(("evaluate", recipe, ["evaluate", "--model", model,
                                           "--gold", str(d / "gold.jsonl"),
                                           "--dataset", str(d / f"{recipe}.jsonl"),
                                           "--out", str(d / f"{recipe}.metrics.json")]))
    return steps


def run_files(job: dict, config) -> dict:
    from pairsim import cli

    def step_code(argv):
        try:
            return cli.main(argv)
        except Exception as err:  # a failed step is reported, not raised
            return f"{type(err).__name__}: {err}"

    steps = []
    clocks = []
    failures = []
    sampler = yardstick.sampler()
    start = time.perf_counter()
    mark = sampler.mark()
    cpu_start = cpu_seconds()
    for step, recipe, argv in _files_steps(job):
        t = time.perf_counter()
        code, clock = timed(step_code, argv)
        steps.append([step, recipe, time.perf_counter() - t, clock[0],
                      yardstick.scaled(clock[0], clock[1])])
        clocks.append(clock)
        if code != 0:
            failures.append(f"{step} {recipe}: {code}")
            break
    cpu = cpu_seconds() - cpu_start - (sampler.mark()[1] - mark[1])
    wall = time.perf_counter() - start
    d = Path(job["out"])
    acb = {}
    for recipe in job["files"]["recipes"]:
        metrics_file = d / f"{recipe}.metrics.json"
        if metrics_file.exists():
            acb[recipe] = json.loads(metrics_file.read_text())["acb"]
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "cpu_ref_s": scaled_total(cpu, clocks),
        "steps": steps,
        "failures": failures,
        "acb": acb,
        "digest": _digest(sorted(p for p in d.iterdir() if p.is_file())),
    }


def check_files(job: dict) -> list[str]:
    """Output checks of the files workload, made after its timed region."""
    from pairsim.simulation import read_dataset, read_gold

    d = Path(job["out"])
    problems = []
    n_items = len(read_gold(d / "gold.jsonl"))
    try:
        adjusted = read_dataset(d / "adjusted.jsonl")
    except ValueError as err:
        return [f"adjusted dataset does not validate: {err}"]
    nonrep1 = read_dataset(d / "nonrep1.jsonl")
    if len(nonrep1) != 9 * n_items or len(adjusted) != 12 * n_items:
        problems.append(
            f"adjusted has {len(adjusted)} records from {len(nonrep1)}; "
            f"expected {12 * n_items} from {9 * n_items}"
        )
    weights = json.loads((d / "weights.json").read_text())
    counts = {s: e.get("replication_count") for s, e in weights["strata"].items()}
    if weights.get("k_exact") != "4/3" or counts != {"A": 0, "B": 1}:
        problems.append(f"weights K={weights.get('k_exact')} counts={counts}; expected 4/3, A 0 B 1")
    return problems


def _per_call(fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the seconds one call of ``fn(i)`` takes."""
    times = []
    for b in range(batches):
        start = time.perf_counter()
        for i in range(b * calls, (b + 1) * calls):
            fn(i)
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def run_micro(job: dict, config) -> dict:
    """Layer microbenchmarks on the workload's gold table."""
    from dataclasses import replace

    from pairsim import adjust, experiments, rng, simulation, trainer

    beta, seed = job["micro"]["beta"], job["micro"]["seed"]
    gold = experiments.load_gold(config)
    suite = simulation.build_suite(gold, beta, seed, config.task)
    tokens = [t for e in gold.entries for t in e.text][:20000]
    dim = config.train.hash_dim
    stream_s = _per_call(lambda i: rng.stream(seed, "micro", i).random(), 2000)
    token_s = _per_call(lambda i: trainer.token_index(tokens[i % len(tokens)], dim), len(tokens))
    apply_s = _per_call(lambda i: adjust.apply_pair(suite.nonrep1, config.benchmark), 1)

    train_gold, dev_gold, _ = experiments.split_items(gold, config.split, seed)
    adjusted, _ = adjust.apply_pair(suite.nonrep1, config.benchmark)
    train_ds = adjusted.restrict(train_gold.item_ids())
    dev_ds = adjusted.restrict(dev_gold.item_ids())
    texts = gold.texts()

    def fit(epochs: int) -> float:
        start = time.perf_counter()
        trainer.train(train_ds, texts, replace(config.train, epochs=epochs), seed, dev=dev_ds)
        return time.perf_counter() - start

    # the difference between a 3-epoch and a 1-epoch fit leaves out featurization
    epoch_s = statistics.median((fit(3) - fit(1)) / 2 for _ in range(3))
    return {
        "micro.stream_us": stream_s * 1e6,
        "micro.token_index_us": token_s * 1e6,
        "micro.apply_pair_ms": apply_s * 1e3,
        "micro.apply_pair_records": len(suite.nonrep1),
        "micro.train_epoch_s": epoch_s,
    }


KINDS = {"sweep": run_sweep, "files": run_files, "micro": run_micro}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    # The probe must share the CPU with the work it scales. A sweep with a
    # pool unpins again before it starts; each pool worker pins itself.
    pin(0)
    sampler = yardstick.sampler()
    config = setup(job)
    cpu = time.process_time()
    mark = sampler.mark()
    result: dict = {
        "t_setup_done": time.monotonic(),
        "setup_cpu_s": cpu - mark[1],
        "setup_probe_s": sampler.probe_s((0, 0.0), mark),
    }
    if job["kind"] != "setup":
        tracing = None
        if job.get("trace"):
            import tracing

            tracing.install(Path(job["spans_dir"]))
        result.update(KINDS[job["kind"]](job, config))
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = (own + children) / 1024
        if tracing is not None:
            tracing.uninstall()
        if job["kind"] == "files" and not result["failures"]:
            result["problems"] = check_files(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The names the benchmark calls and patches must exist in the package.

``perfbench/tracing.py`` wraps pairsim functions by module and attribute
name, and ``perfbench/worker.py`` replaces the private
``experiments._cell_outcome`` and calls the package's functions by name.
A rename or deletion there would only fail a benchmark run; these tests
fail the suite instead. The benchmark's modules are loaded from their
files; one test installs the tracer around a sweep.
"""

import dataclasses
import importlib
import importlib.util
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial, reduce
from pathlib import Path

import pytest

from pairsim import experiments
from pairsim.trainer import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
QUICK = Path(__file__).resolve().parent.parent / "configs" / "quick.json"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _load("tracing")
_TARGETS = [
    (module, attr)
    for module, attr, _ in _TRACING.SPAN_TARGETS + _TRACING.HOT_TARGETS
] + [("pairsim.experiments", "_cell_outcome")]


@pytest.mark.parametrize("module, attr", _TARGETS, ids=[f"{m}.{a}" for m, a in _TARGETS])
def test_benchmark_hook_resolves(module, attr):
    # an attribute "Class.method" names a method on the class
    target = reduce(getattr, attr.split("."), importlib.import_module(module))
    assert callable(target)


def test_worker_microbenchmarks_run_on_the_quick_config(monkeypatch):
    # run_micro calls load_gold, build_suite, split_items, apply_pair,
    # restrict and train, and trains on a mapping of item texts
    monkeypatch.syspath_prepend(str(PERFBENCH))  # the worker imports yardstick
    worker = _load("worker")
    config = experiments.load_config(QUICK)
    micro = worker.run_micro({"micro": {"beta": 0.3, "seed": 10}}, config)
    assert len(micro) == 5 and all(math.isfinite(v) for v in micro.values())


def test_sweep_hands_each_cell_the_tuple_the_worker_unpacks(monkeypatch):
    config = experiments.load_config(QUICK)
    seen = []

    def recording(args):
        # unpacked as the worker's stand-in for _cell_outcome does
        cell_config, recipe, beta, seed = args
        seen.append(args)
        return None, experiments.CellFailure(cell_config.task, recipe, beta, seed, "not run")

    monkeypatch.setattr(experiments, "_cell_outcome", recording)
    result = experiments.sweep(config)
    assert seen == [
        (config, recipe, beta, seed)
        for seed in config.seeds
        for beta in config.betas
        for recipe in config.recipes
    ]
    assert len(result.failures) == len(seen)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_traced_sweep_makes_every_traced_call_inside_a_cell(tmp_path, monkeypatch, workers):
    # the benchmark marks a traced sweep incorrect when a traced function
    # (load_gold, split_items, ...) runs outside run_cell, as it would if
    # sweep built the gold table, split it or drew a pool before the cells;
    # with a forked pool the trace is the sweep's process's span file and
    # the workers'
    monkeypatch.setenv(_TRACING.SPANS_DIR_ENV, str(tmp_path))  # install sets it
    # the pool pickles the tracer's cell function by its module's name
    monkeypatch.setitem(sys.modules, _TRACING.__name__, _TRACING)
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(
        experiments, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=fork)
    )
    config = dataclasses.replace(
        experiments.load_config(QUICK), train=TrainConfig(epochs=1, hash_dim=64)
    )
    for cache in (experiments.load_gold, experiments._seed_cached, experiments._features_cached):
        cache.cache_clear()  # so that this sweep makes, and traces, every input
    _TRACING.install(tmp_path)
    try:
        result = experiments.sweep(config, workers=workers)
    finally:
        _TRACING.uninstall()
    spans, _ = _TRACING.read_trace(tmp_path)
    assert len(result.rows) == 16 and not result.failures
    assert {"experiments.load_gold", "experiments.split_items"} <= {s["name"] for s in spans}
    assert _TRACING.check_span_trees(spans, "experiments.run_cell", len(result.rows)) == []
    pids = {s["pid"] for s in spans}
    assert os.getpid() in pids and (len(pids) > 1) == (workers > 1)


def test_every_cli_call_of_the_files_workload_parses(tmp_path, monkeypatch):
    # a flag the worker passes, such as train --seed or --epochs, must stay;
    # the commands are stubbed, so only the parser runs
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run and worker import yardstick
    run, worker = _load("run"), _load("worker")
    from pairsim import cli

    called = []
    for name in [n for n in vars(cli) if n.startswith("_cmd_")]:
        monkeypatch.setattr(cli, name, lambda args, name=name: called.append((name, args)) or 0)
    inputs = run.make_inputs("files", 1, run.TREND_CONFIG)
    inputs["files"]["benchmark"] = str(tmp_path / "benchmark.json")
    job = {**inputs, "config": str(tmp_path / "config.json"), "out": str(tmp_path / "out")}
    steps = worker._files_steps(job)
    for _, _, argv in steps:
        assert cli.main(argv) == 0, argv
    assert [name for name, _ in called] == [f"_cmd_{step}" for step, _, _ in steps]
    for (_, _, argv), (_, args) in zip(steps, called):
        # argparse takes a prefix of a longer flag, so check each flag by name
        for flag in (a for a in argv if a.startswith("--")):
            assert hasattr(args, flag[2:].replace("-", "_")), (flag, argv)

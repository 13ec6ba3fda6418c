"""Spans and call counters around the public functions of each pairsim layer.

The tracer wraps functions from outside the program: :func:`install`
replaces each listed function in every loaded ``pairsim`` module that
binds it, so calls made inside the package are recorded too. Coarse
functions become spans (name, start, end, parent); hot leaf functions
(``rng.stream``, ``trainer.token_index``, ``trainer.loss_and_grad``),
called up to millions of times per run, only add their call count and
time to the enclosing span and to per-process totals, which keeps the
trace small.

Spans stay in memory and are appended to ``<spans_dir>/<pid>.jsonl``
after every cell (so pool workers hand theirs back through the file
system) and when the traced repeat ends.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path

# (module, attribute, span name). An attribute "Class.method" patches the
# method on the class.
SPAN_TARGETS = (
    ("pairsim.cli", "main", "cli.main"),
    ("pairsim.experiments", "run_cell", "experiments.run_cell"),
    ("pairsim.experiments", "load_gold", "experiments.load_gold"),
    ("pairsim.experiments", "split_items", "experiments.split_items"),
    ("pairsim.simulation", "build_suite", "simulation.build_suite"),
    ("pairsim.simulation", "Dataset.restrict", "simulation.restrict"),
    ("pairsim.simulation", "write_dataset", "simulation.write_dataset"),
    ("pairsim.simulation", "read_dataset", "simulation.read_dataset"),
    ("pairsim.simulation", "write_gold", "simulation.write_gold"),
    ("pairsim.simulation", "read_gold", "simulation.read_gold"),
    ("pairsim.adjust", "apply_pair", "adjust.apply_pair"),
    ("pairsim.trainer", "train", "trainer.train"),
    ("pairsim.trainer", "predict", "trainer.predict"),
    ("pairsim.trainer", "save_model", "trainer.save_model"),
    ("pairsim.trainer", "load_model", "trainer.load_model"),
    ("pairsim.metrics", "acb", "metrics.acb"),
    ("pairsim.metrics", "f1", "metrics.f1"),
    ("pairsim.metrics", "positive_proportion", "metrics.positive_proportion"),
)

HOT_TARGETS = (
    ("pairsim.rng", "stream", "rng.stream"),
    ("pairsim.trainer", "token_index", "trainer.token_index"),
    ("pairsim.trainer", "loss_and_grad", "trainer.loss_and_grad"),
)


# Per span name: what to count from (args, kwargs, result). Only the calls
# the program makes are covered, so positional arguments suffice.
def _count_suite(args, kwargs, result):
    n = len(result.representative) + len(result.nonrep1) + len(result.nonrep2)
    return {"records": n}, [float(args[1]), int(args[2])]


def _count_apply_pair(args, kwargs, result):
    return {"replicas": len(result[0]) - len(args[0])}, None


def _count_train(args, kwargs, result):
    return {"instances": len(args[0]), "best_epoch": result.best_epoch}, None


def _count_write(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}, None


def _count_read(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}, None


def _count_cli(args, kwargs, result):
    return {}, args[0][0]


COUNTERS = {
    "simulation.build_suite": _count_suite,
    "adjust.apply_pair": _count_apply_pair,
    "trainer.train": _count_train,
    "simulation.write_dataset": _count_write,
    "simulation.write_gold": _count_write,
    "simulation.read_dataset": _count_read,
    "simulation.read_gold": _count_read,
    "cli.main": _count_cli,
}


class Tracer:
    """In-memory span recorder for one process (forked children inherit it)."""

    def __init__(self, spans_dir: Path) -> None:
        self.spans_dir = Path(spans_dir)
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.calls: dict[str, list] = {}
        self.next_id = 0
        os.register_at_fork(after_in_child=self._forget_parent)

    def _forget_parent(self) -> None:
        self.spans, self.stack, self.calls = [], [], {}

    def wrap_span(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            self.next_id += 1
            span = {
                "id": f"{os.getpid()}-{self.next_id}",
                "parent": self.stack[-1]["id"] if self.stack else None,
                "name": name,
                "pid": os.getpid(),
                "hot": {},
                "counts": {},
                "key": None,
            }
            self.stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                self.spans.append(span)
            if count is not None:
                span["counts"], span["key"] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_hot(self, name: str, fn):
        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                total = self.calls.setdefault(name, [0, 0.0])
                total[0] += 1
                total[1] += dt
                if self.stack:
                    hot = self.stack[-1]["hot"].setdefault(name, [0, 0.0])
                    hot[0] += 1
                    hot[1] += dt

        counted.__wrapped__ = fn
        return counted

    def flush(self) -> None:
        """Append this process's finished spans and call totals to its file."""
        lines = [json.dumps({"span": s}) for s in self.spans]
        self.spans = []
        if self.calls:
            lines.append(json.dumps({"calls": self.calls}))
            self.calls = {}
        if lines:
            with open(self.spans_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")


# The pool's cell function is pickled by reference, so a worker process
# finds the tracer and the original function through this module: forked
# workers inherit them, spawned ones install their own from the
# environment variable below.
SPANS_DIR_ENV = "PERFBENCH_SPANS_DIR"
_TRACER: Tracer | None = None
_ORIGINAL_CELL_OUTCOME = None
_PATCHES: list[tuple[object, str, object]] = []


def cell_outcome(args):
    """Stand-in for ``experiments._cell_outcome`` that flushes spans per cell."""
    if _TRACER is None:
        install(Path(os.environ[SPANS_DIR_ENV]))
    outcome = _ORIGINAL_CELL_OUTCOME(args)
    _TRACER.flush()
    return outcome


def _pairsim_modules():
    return [m for n, m in list(sys.modules.items()) if n == "pairsim" or n.startswith("pairsim.")]


def _patch(owner, name: str, replacement) -> None:
    _PATCHES.append((owner, name, getattr(owner, name)))
    setattr(owner, name, replacement)


def _rebind(original, replacement) -> None:
    for module in _pairsim_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                _patch(module, name, replacement)


def install(spans_dir: Path) -> Tracer:
    """Wrap every target function; returns the process's tracer."""
    global _TRACER, _ORIGINAL_CELL_OUTCOME
    if _TRACER is not None:
        raise RuntimeError("tracer already installed")
    tracer = Tracer(spans_dir)
    os.environ[SPANS_DIR_ENV] = str(spans_dir)
    for module_name, _, _ in SPAN_TARGETS + HOT_TARGETS:
        importlib.import_module(module_name)
    for targets, wrap in ((SPAN_TARGETS, tracer.wrap_span), (HOT_TARGETS, tracer.wrap_hot)):
        for module_name, attr, span_name in targets:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                _patch(cls, method, wrap(span_name, getattr(cls, method)))
            else:
                original = getattr(module, attr)
                _rebind(original, wrap(span_name, original))
    experiments = sys.modules["pairsim.experiments"]
    _ORIGINAL_CELL_OUTCOME = experiments._cell_outcome
    _patch(experiments, "_cell_outcome", cell_outcome)
    _TRACER = tracer
    return tracer


def uninstall() -> None:
    """Write out what is left of the trace and restore every patched name."""
    global _TRACER
    _TRACER.flush()
    while _PATCHES:
        owner, name, original = _PATCHES.pop()
        setattr(owner, name, original)
    _TRACER = None


# ---------------------------------------------------------------------------
# reading a trace back


def read_trace(spans_dir: Path) -> tuple[list[dict], dict[str, list]]:
    """All spans and the summed hot-call totals written under ``spans_dir``."""
    spans: list[dict] = []
    calls: dict[str, list] = {}
    for path in sorted(Path(spans_dir).glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if "span" in record:
                spans.append(record["span"])
            else:
                for name, (n, secs) in record["calls"].items():
                    total = calls.setdefault(name, [0, 0.0])
                    total[0] += n
                    total[1] += secs
    return spans, calls


def check_span_trees(spans: list[dict], root_name: str, attempted: int) -> list[str]:
    """Problems with the trace: one ``root_name`` tree per attempted unit,
    every child inside its parent's interval. Empty when the trace is sound."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != attempted:
        problems.append(f"{len(roots)} span trees for {attempted} attempted")
    stray = sorted({s["name"] for s in roots} - {root_name})
    if stray:
        problems.append(f"root spans other than {root_name}: {', '.join(stray)}")
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append(f"span {s['id']} {s['name']} has no recorded parent")
        elif not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            problems.append(
                f"span {s['id']} {s['name']} lies outside its parent {parent['name']}"
            )
    return problems


def layer_metrics(spans: list[dict], calls: dict[str, list]) -> dict[str, float]:
    """Per-layer totals over one traced repeat.

    Self time of a span is its duration minus its child spans and the hot
    calls made directly inside it.
    """
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] in child_time:
            child_time[s["parent"]] += dur[s["id"]]

    def total(*names):
        return sum(dur[s["id"]] for s in spans if s["name"] in names)

    def self_time(name):
        return sum(
            dur[s["id"]] - child_time[s["id"]] - sum(t for _, t in s["hot"].values())
            for s in spans
            if s["name"] == name
        )

    def counted(name, key):
        return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)

    def cli_time(command):
        return sum(dur[s["id"]] for s in spans if s["name"] == "cli.main" and s["key"] == command)

    suites = [s for s in spans if s["name"] == "simulation.build_suite"]
    trains = [s for s in spans if s["name"] == "trainer.train"]
    pairs = {tuple(s["key"]) for s in suites}
    io_names = (
        "simulation.write_dataset",
        "simulation.read_dataset",
        "simulation.write_gold",
        "simulation.read_gold",
    )
    return {
        "experiments.load_gold_s": total("experiments.load_gold"),
        "experiments.split_s": total("experiments.split_items"),
        "experiments.cell_self_s": self_time("experiments.run_cell"),
        "experiments.suite_builds": len(suites),
        "experiments.suite_reuse": len(pairs) / len(suites) if suites else 0.0,
        "simulation.build_suite_s": total("simulation.build_suite"),
        "simulation.records_built": counted("simulation.build_suite", "records"),
        "simulation.restrict_s": total("simulation.restrict"),
        "simulation.write_dataset_s": total("simulation.write_dataset"),
        "simulation.read_dataset_s": total("simulation.read_dataset"),
        "simulation.gold_io_s": total("simulation.write_gold", "simulation.read_gold"),
        "simulation.jsonl_mb": sum(counted(n, "bytes") for n in io_names) / 1e6,
        "rng.stream_calls": calls.get("rng.stream", [0, 0.0])[0],
        "rng.stream_s": calls.get("rng.stream", [0, 0.0])[1],
        "adjust.apply_pair_s": total("adjust.apply_pair"),
        "adjust.replicas_added": counted("adjust.apply_pair", "replicas"),
        "trainer.train_s": total("trainer.train"),
        "trainer.instances": counted("trainer.train", "instances"),
        "trainer.loss_and_grad_calls": calls.get("trainer.loss_and_grad", [0, 0.0])[0],
        "trainer.loss_and_grad_s": calls.get("trainer.loss_and_grad", [0, 0.0])[1],
        "trainer.optimizer_self_s": self_time("trainer.train"),
        "trainer.best_epoch": (
            counted("trainer.train", "best_epoch") / len(trains) if trains else 0.0
        ),
        "trainer.token_index_calls": calls.get("trainer.token_index", [0, 0.0])[0],
        "trainer.token_index_s": calls.get("trainer.token_index", [0, 0.0])[1],
        "trainer.predict_s": total("trainer.predict"),
        "trainer.model_io_s": total("trainer.save_model", "trainer.load_model"),
        "metrics.score_s": total("metrics.acb", "metrics.f1", "metrics.positive_proportion"),
        "cli.simulate_s": cli_time("simulate"),
        "cli.adjust_s": cli_time("adjust"),
        "cli.train_s": cli_time("train"),
        "cli.evaluate_s": cli_time("evaluate"),
    }

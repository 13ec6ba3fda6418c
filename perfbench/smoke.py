"""Smoke self-test of the benchmark on configs/quick.json-sized inputs.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced on the quick config
(300 items) and exits with 1, listing what failed, unless:

- every run passes its output checks, with no failed cell or CLI step;
- each result line holds exactly the metrics BENCHMARK.json names for its
  mode, each a finite number with the unit BENCHMARK.json gives it, and
  the lines before it name every one of them with that unit;
- each traced run yields exactly one span tree per cell (or CLI step) of
  its traced repeat, counted from the generated config, with every child
  span inside its parent's interval;
- trend-serial and grid-par2 at the same seed write byte-identical reports.
"""

from __future__ import annotations

import json
import math
import sys
import time

import run
import tracing

QUICK_CONFIG = "configs/quick.json"
SEED = 7


def expected_units(trace: bool) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def traced_units(out: dict) -> tuple[str, int]:
    """Root span name and how many trees one traced repeat must yield."""
    if out["inputs"]["kind"] == "files":
        return "cli.main", 2 + 2 * len(out["inputs"]["files"]["recipes"])
    config = out["config"]
    return "experiments.run_cell", len(config["recipes"]) * len(config["betas"]) * len(
        config["seeds"]
    )


def check_run(workload: str, trace: bool, out: dict) -> list[str]:
    problems = list(out["problems"])
    result = run.final_result(out, trace)
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"result {result['correct']=} {result['attempted']=} {result['failed']=}")
    units = expected_units(trace)
    if set(result["metrics"]) != set(units):
        missing = sorted(set(units) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(units))
        problems.append(f"metrics missing {missing}, not in BENCHMARK.json {extra}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if metric["unit"] != units.get(name):
            problems.append(f"{name}: unit {metric['unit']!r}, BENCHMARK.json says {units.get(name)!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    printed = {tuple(line.split()[:1] + line.split()[2:3]) for line in run.report_lines(
        workload, SEED, trace, out)}
    problems += [f"{n} not printed with unit {u}" for n, u in units.items() if (n, u) not in printed]
    if trace:
        root, trees = traced_units(out)
        problems += tracing.check_span_trees(out["spans"], root, trees)
    return problems


def main() -> int:
    start = time.perf_counter()
    problems = []
    digests = {}
    for workload in run.WORKLOADS:
        for trace in (False, True):
            out = run.run_workload(
                workload, SEED, 0, trace, base_config=QUICK_CONFIG, probes=0
            )
            found = check_run(workload, trace, out)
            problems += [f"{workload} trace={int(trace)}: {p}" for p in found]
            print(f"{workload} trace={int(trace)}: {'FAIL' if found else 'ok'}")
            if not trace:
                digests[workload] = out["digest"]
    if digests["trend-serial"] != digests["grid-par2"]:
        problems.append("grid-par2 report differs from trend-serial's for the same cells")
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print(f"smoke test {'failed' if problems else 'passed'} in {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

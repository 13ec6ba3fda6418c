"""Command-line entry points: simulate, adjust, train, evaluate, sweep, report."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import __version__
from .adjust import apply_pair, read_benchmark, write_weights
from .experiments import (
    REPORT_NAME,
    aggregate_rows,
    load_config,
    load_gold,
    read_report_cells,
    sweep,
    write_report,
)
from .metrics import acb, f1, positive_proportion
from .simulation import Suite, build_suite, read_dataset, read_gold, write_dataset, write_gold
from .trainer import TrainConfig, load_model, predict, save_model, train


def _add_simulate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("simulate", help="build the gold table and one dataset suite")
    p.add_argument("--config", required=True, help="experiment config (JSON)")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    gold = load_gold(config)
    # a bad beta or seed fails here, before anything is written
    suite = build_suite(gold, args.beta, args.seed, config.task)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_gold(gold, out / "gold.jsonl")
    recipes = [f.name for f in fields(Suite)]
    for recipe in recipes:
        write_dataset(getattr(suite, recipe), out / f"{recipe}.jsonl")
    print(f"wrote gold ({len(gold)} items) and {len(recipes)} datasets to {out}")
    return 0


def _add_adjust(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("adjust", help="rebalance a dataset toward a population benchmark")
    p.add_argument("--dataset", required=True, help="input dataset (JSONL)")
    p.add_argument("--benchmark", required=True, help="stratum share file (JSON)")
    p.add_argument("--out-dataset", required=True)
    p.add_argument("--out-weights", required=True)
    p.add_argument(
        "--k", default=None, help="explicit K, exact: '4/3' or '0.1' (default: min weight to 1)"
    )
    p.set_defaults(func=_cmd_adjust)


def _cmd_adjust(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.dataset)
    benchmark = read_benchmark(args.benchmark)
    adjusted, weights = apply_pair(dataset, benchmark, k=args.k)
    write_dataset(adjusted, args.out_dataset)
    write_weights(weights, args.out_weights)
    print(
        f"adjusted {len(dataset)} -> {len(adjusted)} records; "
        f"weights written to {args.out_weights}"
    )
    return 0


def _add_train(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("train", help="fit the stand-in classifier on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--gold", required=True, help="gold table with texts (JSONL)")
    p.add_argument(
        "--dev-dataset", default=None,
        help="dataset whose loss picks the l2 of the path (default: the training loss)",
    )
    p.add_argument("--out", required=True, help="model file")
    p.add_argument(
        "--seed", type=int, default=0,
        help="recorded in the model as provenance only: training draws no randomness",
    )
    helps = {
        "epochs": "number of points on the l2 path, each a factor sqrt(10) apart",
        "hash_dim": "number of hashed token columns",
        "l2": "smallest ridge penalty of the path (its last point)",
    }
    for f in fields(TrainConfig):
        p.add_argument(
            "--" + f.name.replace("_", "-"), type=type(f.default), default=f.default,
            help=f"{helps[f.name]} (default: {f.default})",
        )
    p.set_defaults(func=_cmd_train)


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.dataset)
    gold = read_gold(args.gold)
    dev = read_dataset(args.dev_dataset) if args.dev_dataset else None
    config = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    model = train(dataset, gold.texts(), config, args.seed, dev=dev)
    save_model(model, args.out)
    chosen = model.path[model.best_epoch - 1]
    print(
        f"trained on {len(dataset)} instances; chose l2 {chosen.l2:g} "
        f"(path point {model.best_epoch} of {config.epochs}, "
        f"{chosen.iterations} L-BFGS iterations); saved {args.out}"
    )
    return 0


def _add_evaluate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("evaluate", help="score a model against gold proportions")
    p.add_argument("--model", required=True)
    p.add_argument("--gold", required=True, help="gold table for the evaluation items")
    p.add_argument("--dataset", default=None, help="optional dataset for positive_proportion")
    p.add_argument("--out", default=None, help="metrics JSON (default: stdout)")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=_cmd_evaluate)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    gold = read_gold(args.gold)
    preds = predict(model, gold.texts())
    payload = {
        "n_items": len(gold),
        "acb": acb(preds, gold),
        "f1": f1(preds, gold, prob_threshold=args.threshold),
    }
    if args.dataset:
        payload["positive_proportion"] = positive_proportion(read_dataset(args.dataset))
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _add_sweep(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("sweep", help="run the full recipes x betas x seeds grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--seeds", default=None, help="comma-separated seed override, e.g. '10,42'"
    )
    p.set_defaults(func=_cmd_sweep)


def _seed_list(text: str) -> tuple[int, ...]:
    """The seeds of a ``--seeds`` value: comma-separated integers."""
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError(f"--seeds must be comma-separated integers, got {text!r}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seeds is not None:
        config = replace(config, seeds=_seed_list(args.seeds))
    result = sweep(config, output_dir=args.out, workers=args.workers)
    print(f"{len(result.rows)} cells completed, {len(result.failures)} failed; report in {args.out}")
    for failure in result.failures:
        print(
            f"FAILED task={failure.task} recipe={failure.recipe} "
            f"beta={failure.beta} seed={failure.seed}: {failure.error}",
            file=sys.stderr,
        )
    return 1 if result.failures else 0


def _add_report(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("report", help="recompute aggregate rows from a report's cell rows")
    p.add_argument("--cells", required=True, help=f"existing {REPORT_NAME} file")
    p.add_argument("--out", default=None, help="rewritten report (default: stdout)")
    p.set_defaults(func=_cmd_report)


def _cmd_report(args: argparse.Namespace) -> int:
    rows = read_report_cells(args.cells)
    aggregates = aggregate_rows(rows)
    if args.out:
        write_report(rows, aggregates, args.out)
        print(f"wrote {len(rows)} cell rows and {len(aggregates)} aggregate rows to {args.out}")
    else:
        for (task, recipe, beta), agg in sorted(aggregates.items()):
            print(
                f"{task} {recipe} beta={beta}: "
                f"acb={agg.mean['acb']:.4f}+-{agg.std['acb']:.4f} "
                f"f1={agg.mean['f1']:.4f}+-{agg.std['f1']:.4f} "
                f"pos={agg.mean['positive_proportion']:.4f} (n={len(agg.seeds)})"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pairsim",
        description="simulate annotator-composition bias, rebalance pools by "
        "replication, and measure calibration/accuracy effects",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_adjust(sub)
    _add_train(sub)
    _add_evaluate(sub)
    _add_sweep(sub)
    _add_report(sub)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"pairsim: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

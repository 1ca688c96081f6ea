"""Command-line entry point: train, train-long, eval, attribute,
export-embeddings, gen-data.

Runs are driven by a JSON config file whose keys are RunConfig field names;
command-line flags override file values.  Every command writes a manifest
(config digest, seed, code version, dataset digest) into its output
directory.  Exit code 0 on success; failures print a machine-readable
``error: category=<name>`` line on stderr and use a per-category code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields

from .data import generate_synthetic_corpus, read_jsonl, write_artifact, write_jsonl
from .errors import ConfigError, SwitchTextError
from .interpret import attribution_for_ids, rank_misclassified
from .model import export_hidden_embeddings, load_checkpoint
from .training import (RunConfig, clear_manifest, dataset_digest, encode_examples, evaluate,
                       split_dataset, train, write_manifest, _write_report)

EXIT_CODES = {
    "config": 2, "data": 3, "vocabulary": 4, "compatibility": 5,
    "contract": 6, "dimension": 7, "numeric": 8, "lookup": 9, "internal": 70,
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool" or isinstance(f.default, bool):
            parser.add_argument(flag, dest=f.name, default=None,
                                action=argparse.BooleanOptionalAction)
        else:
            parser.add_argument(flag, dest=f.name, default=None,
                                type=type(f.default))


def _merged_config(args: argparse.Namespace) -> dict:
    """The config file's values, overridden by the flags given, keyed by
    RunConfig field name."""
    values: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                values = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config file {args.config}: {e.strerror}") from e
        except ValueError as e:
            raise ConfigError(f"config file {args.config} is not valid JSON: {e}") from e
        if not isinstance(values, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object, "
                              f"got {type(values).__name__}")
    for f in fields(RunConfig):
        override = getattr(args, f.name, None)
        if override is not None:
            values[f.name] = override
    return values


def _prepare_eval_inputs(checkpoint_path: str, data_path: str, split: str):
    """Load a checkpoint, reread the dataset, and rebuild the stored split
    ("all" takes every example)."""
    model, vocab, extra = load_checkpoint(checkpoint_path)
    if vocab is None:
        from .errors import CompatibilityError

        raise CompatibilityError(f"checkpoint {checkpoint_path} carries no vocabulary")
    dataset = read_jsonl(data_path)
    stored = extra.get("run_config", {})
    run_cfg = RunConfig.from_dict(stored) if stored else RunConfig()
    indices = (range(len(dataset)) if split == "all" else
               split_dataset(dataset, seed=run_cfg.split_seed, stratify=run_cfg.stratify)[split])
    encoded = encode_examples([dataset.examples[i] for i in indices], vocab, model.config.max_len)
    return model, vocab, dataset, encoded, run_cfg


def _make_output_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e.strerror}") from e
    clear_manifest(path)


def cmd_gen_data(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    dataset = generate_synthetic_corpus(
        n=args.n, positive_fraction=args.positive_fraction,
        noise=args.noise, seed=args.seed,
    )
    manifest = {
        "command": "gen-data",
        "n": args.n, "positive_fraction": args.positive_fraction,
        "noise": args.noise, "seed": args.seed,
        "dataset_digest": dataset_digest(dataset),
    }
    write_jsonl(args.out, dataset)
    write_artifact(args.out + ".manifest.json", [json.dumps(manifest, indent=2, sort_keys=True), "\n"])
    print(f"wrote {len(dataset)} examples to {args.out}")
    return 0


def resolve_train_config(args, command: str) -> RunConfig:
    """Merge file + flag values; train-long forces early stopping off and
    defaults to a 500-epoch budget unless epochs came from file or flag."""
    values = _merged_config(args)
    if command == "train-long":
        values.setdefault("epochs", 500)
        values["early_stopping"] = False
    config = RunConfig.from_dict(values)
    problems = config.violations(check_paths=True)
    if not config.data_path:
        problems.insert(0, "data_path is required")
    if problems:
        raise ConfigError("invalid run config: " + "; ".join(problems))
    return config


def _run_train(args, command: str) -> int:
    config = resolve_train_config(args, command)
    _make_output_dir(config.output_dir)
    dataset = read_jsonl(config.data_path)
    result = train(config, dataset, out_dir=config.output_dir, command=command)
    print("\n".join(result.final_val.table_lines()))
    print(f"checkpoint {result.checkpoint_path} sha256={result.checkpoint_digest}")
    return 0


def cmd_eval(args) -> int:
    started = time.perf_counter()
    model, vocab, dataset, encoded, run_cfg = _prepare_eval_inputs(
        args.checkpoint, args.data, args.split
    )
    _make_output_dir(args.output_dir)
    outcome = evaluate(model, encoded, batch_size=args.batch_size)
    name = f"report_{args.split}"
    _write_report(args.output_dir, name, outcome.report)
    write_artifact(f"{args.output_dir}/timings_eval.tsv",
                   ["phase\twall_clock_s\n", f"eval_total\t{time.perf_counter() - started:.3f}\n"])
    write_manifest(args.output_dir, "eval", asdict(run_cfg), dataset_digest(dataset),
                   [f"{name}.tsv", f"{name}.json"])
    print("\n".join(outcome.report.table_lines()))
    return 0


def cmd_attribute(args) -> int:
    model, vocab, dataset, encoded, run_cfg = _prepare_eval_inputs(
        args.checkpoint, args.data, args.split
    )
    _make_output_dir(args.output_dir)
    if args.ids:
        try:
            wanted = [int(s) for s in args.ids.split(",")]
        except ValueError as e:
            raise ConfigError(f"--ids must be comma-separated integers, got {args.ids!r}") from e
        reports = attribution_for_ids(model, encoded, wanted, vocab=vocab,
                                      target=args.target, num_steps=args.num_steps,
                                      baseline=args.baseline)
    else:
        reports = rank_misclassified(model, encoded, vocab=vocab, target=args.target,
                                     num_steps=args.num_steps, baseline=args.baseline,
                                     limit=args.limit)
    write_artifact(f"{args.output_dir}/attributions.txt", (
        f"# example {example.example_id} (label {example.label})\n"
        + "\n".join(report.text_lines()) + "\n\n" for example, report in reports))
    write_artifact(f"{args.output_dir}/attributions.jsonl", (json.dumps({
        "example_id": example.example_id,
        "label": example.label,
        "predicted_class": report.predicted_class,
        "target_class": report.target_class,
        "completeness_residual": report.completeness_residual,
        "output_delta": report.output_delta,
        "tokens": report.tokens,
        "scores": [round(float(s), 10) for s in report.scores],
    }, ensure_ascii=False, sort_keys=True) + "\n" for example, report in reports))
    write_manifest(args.output_dir, "attribute", asdict(run_cfg), dataset_digest(dataset),
                   ["attributions.txt", "attributions.jsonl"])
    print(f"wrote {len(reports)} attribution reports to {args.output_dir}")
    return 0


def cmd_export_embeddings(args) -> int:
    model, vocab, dataset, encoded, run_cfg = _prepare_eval_inputs(
        args.checkpoint, args.data, args.split
    )
    _make_output_dir(args.output_dir)
    out_path = f"{args.output_dir}/embeddings_layer{args.layer}_{args.split}.tsv"
    count = export_hidden_embeddings(model, encoded, args.layer, out_path)
    write_manifest(args.output_dir, "export-embeddings", asdict(run_cfg), dataset_digest(dataset),
                   [os.path.basename(out_path)])
    print(f"wrote {count} records to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchtext",
        description="Train, evaluate, and interpret small dense or expert-routed "
                    "transformer text classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic labeled corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--positive-fraction", type=float, default=0.36)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a classifier from a config")
    _add_config_flags(p)
    p = sub.add_parser("train-long",
                       help="extended-budget training with early stopping disabled")
    _add_config_flags(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test", "all"])
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--output-dir", required=True)

    p = sub.add_parser("attribute", help="integrated-gradients token attributions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test", "all"])
    p.add_argument("--ids", help="comma-separated example ids; omit to attribute every "
                                 "misclassified example")
    p.add_argument("--target", default="true", choices=["true", "predicted"])
    p.add_argument("--num-steps", type=int, default=128)
    p.add_argument("--baseline", default="pad", choices=["pad", "zero"])
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--output-dir", required=True)

    p = sub.add_parser("export-embeddings", help="export pooled hidden states of a layer")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="train", choices=["train", "val", "test", "all"])
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--output-dir", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen-data":
            return cmd_gen_data(args)
        if args.command in ("train", "train-long"):
            return _run_train(args, args.command)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "attribute":
            return cmd_attribute(args)
        if args.command == "export-embeddings":
            return cmd_export_embeddings(args)
        parser.error(f"unknown command {args.command}")
    except SwitchTextError as e:
        print(f"error: category={e.category} {e}", file=sys.stderr)
        return EXIT_CODES.get(e.category, 70)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: train, train-long, eval, attribute,
export-embeddings, gen-data.

Runs are driven by a JSON config file whose keys are RunConfig field names;
command-line flags override file values.  BLAS runs on one thread, so the
artifacts' bits do not depend on the core count.  Every command writes a
manifest (config digest, seed, code version, dataset digest, BLAS) into its
output directory.  Exit code 0 on success; failures print a machine-readable
``error: category=<name>`` line on stderr and use a per-category code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from .data import class_weights, generate_synthetic_corpus, read_jsonl, write_artifact, write_jsonl
from .errors import CompatibilityError, ConfigError, SwitchTextError
from .interpret import attribute, by_id, misclassified
from .model import export_hidden_embeddings, load_checkpoint
from .training import (RunConfig, clear_manifest, dataset_digest, encode_examples, evaluate,
                       pin_blas_threads, split_dataset, train, write_manifest, _write_report)

EXIT_CODES = {
    "config": 2, "data": 3, "vocabulary": 4, "compatibility": 5,
    "contract": 6, "dimension": 7, "numeric": 8, "lookup": 9, "internal": 70,
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
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
        except (ValueError, RecursionError) as e:
            raise ConfigError(f"config file {args.config} is not valid JSON: {e}") from e
        if not isinstance(values, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object, "
                              f"got {type(values).__name__}")
    for f in fields(RunConfig):
        override = getattr(args, f.name, None)
        if override is not None:
            values[f.name] = override
    return values


def _make_output_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e.strerror}") from e
    clear_manifest(f"{path}/manifest.json")


def cmd_gen_data(args) -> int:
    config = {"n": args.n, "positive_fraction": args.positive_fraction, "noise": args.noise,
              "seed": args.seed}
    dataset = generate_synthetic_corpus(**config)
    manifest_path = args.out + ".manifest.json"
    clear_manifest(manifest_path)
    write_jsonl(args.out, dataset)
    write_manifest(manifest_path, "gen-data", config, dataset_digest(dataset),
                   [os.path.basename(args.out)])
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
    problems = config.violations()
    if not config.data_path:
        problems.insert(0, "data_path is required")
    elif not os.path.exists(config.data_path):
        problems.insert(0, f"data_path does not exist: {config.data_path}")
    if problems:
        raise ConfigError("invalid run config: " + "; ".join(problems))
    return config


def cmd_train(args) -> int:
    config = resolve_train_config(args, args.command)
    _make_output_dir(config.output_dir)
    dataset = read_jsonl(config.data_path)
    result = train(config, dataset, out_dir=config.output_dir, command=args.command)
    print("\n".join(result.final_val.table_lines()))
    print(f"checkpoint {result.checkpoint_path} sha256={result.checkpoint_digest}")
    return 0


def _on_checkpoint(args) -> int:
    """The one path of the commands that read a checkpoint: load it (one
    without a vocabulary or a run config is refused), reread the dataset
    and rebuild the stored split ("all" takes every example), open the
    output directory, run the command's ``args.body(args, model, vocab,
    encoded, run_cfg, train_labels)`` (the labels of the rebuilt train
    split), which writes its artifacts and returns their names and a
    summary, and write the manifest last."""
    model, vocab, extra = load_checkpoint(args.checkpoint)
    for what, value in (("vocabulary", vocab), ("run config", extra.get("run_config"))):
        if not value:  # without its run config the stored split cannot be rebuilt
            raise CompatibilityError(f"checkpoint {args.checkpoint} carries no {what}")
    dataset = read_jsonl(args.data)
    try:
        run_cfg = RunConfig.from_dict(extra["run_config"]).validate()
    except ConfigError as e:
        raise CompatibilityError(f"checkpoint {args.checkpoint} holds an invalid run config: "
                                 f"{e}") from e
    splits = split_dataset(dataset, seed=run_cfg.split_seed, stratify=run_cfg.stratify)
    indices = range(len(dataset)) if args.split == "all" else splits[args.split]
    encoded = encode_examples([dataset.examples[i] for i in indices], vocab, model.config.max_len)
    _make_output_dir(args.output_dir)
    artifacts, summary = args.body(args, model, vocab, encoded, run_cfg,
                                   [dataset.examples[i].label for i in splits["train"]])
    write_manifest(f"{args.output_dir}/manifest.json", args.command, asdict(run_cfg),
                   dataset_digest(dataset), artifacts)
    print(summary)
    return 0


def cmd_eval(args, model, vocab, encoded, run_cfg, train_labels):
    started = time.perf_counter()
    weights = class_weights(train_labels) if run_cfg.class_weighting else None  # as in train()
    batch_size = run_cfg.eval_batch_size if args.batch_size is None else args.batch_size
    outcome = evaluate(model, encoded, batch_size, weights)
    name = f"report_{args.split}"
    _write_report(args.output_dir, name, outcome.report)
    write_artifact(f"{args.output_dir}/timings_eval.tsv",
                   ["phase\twall_clock_s\n", f"eval_total\t{time.perf_counter() - started:.3f}\n"])
    return [f"{name}.tsv", f"{name}.json"], "\n".join(outcome.report.table_lines())


def cmd_attribute(args, model, vocab, encoded, *_):
    if args.limit is not None and args.limit < 0:
        raise ConfigError(f"--limit must be >= 0, got {args.limit}")
    examples = (by_id(encoded, [s.strip() for s in args.ids.split(",")]) if args.ids
                else misclassified(model, encoded)[:args.limit])
    reports = attribute(model, examples, vocab, args.target, args.num_steps, args.baseline)
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
    return (["attributions.txt", "attributions.jsonl"],
            f"wrote {len(reports)} attribution reports to {args.output_dir}")


def cmd_export_embeddings(args, model, vocab, encoded, *_):
    name = f"embeddings_layer{args.layer}_{args.split}.tsv"
    count = export_hidden_embeddings(model, encoded, args.layer, f"{args.output_dir}/{name}")
    return [name], f"wrote {count} records to {args.output_dir}/{name}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchtext",
        description="Train, evaluate, and interpret small dense or expert-routed "
                    "transformer text classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic labeled corpus")
    p.set_defaults(run=cmd_gen_data)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--positive-fraction", type=float, default=0.36)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    for name, help_text in (
            ("train", "train a classifier from a config"),
            ("train-long", "extended-budget training with early stopping disabled")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=cmd_train)
        _add_config_flags(p)

    on_checkpoint = argparse.ArgumentParser(add_help=False)
    on_checkpoint.add_argument("--checkpoint", required=True)
    on_checkpoint.add_argument("--data", required=True)
    on_checkpoint.add_argument("--output-dir", required=True)
    splits = ["train", "val", "test", "all"]

    p = sub.add_parser("eval", parents=[on_checkpoint],
                       help="evaluate a checkpoint on a dataset split")
    p.set_defaults(run=_on_checkpoint, body=cmd_eval)
    p.add_argument("--split", default="test", choices=splits)
    p.add_argument("--batch-size", type=int, help="default: the run's eval_batch_size")

    p = sub.add_parser("attribute", parents=[on_checkpoint],
                       help="integrated-gradients token attributions")
    p.set_defaults(run=_on_checkpoint, body=cmd_attribute)
    p.add_argument("--split", default="test", choices=splits)
    p.add_argument("--ids", help="comma-separated example ids, integer or string; omit to "
                                 "attribute every misclassified example")
    p.add_argument("--target", default="true", choices=["true", "predicted"])
    p.add_argument("--num-steps", type=int, default=128)
    p.add_argument("--baseline", default="pad", choices=["pad", "zero"])
    p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser("export-embeddings", parents=[on_checkpoint],
                       help="export pooled hidden states of a layer")
    p.set_defaults(run=_on_checkpoint, body=cmd_export_embeddings)
    p.add_argument("--split", default="train", choices=splits)
    p.add_argument("--layer", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    pin_blas_threads()
    try:
        with np.errstate(all="ignore"):  # non-finite values surface as NumericError
            return args.run(args)
    except SwitchTextError as e:
        print(f"error: category={e.category} {e}", file=sys.stderr)
        return EXIT_CODES.get(e.category, 70)


if __name__ == "__main__":
    sys.exit(main())

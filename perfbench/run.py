#!/usr/bin/env python3
"""switchtext benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload train-switch-paper --seed 1 --seconds 35 --trace 0

Run from the repository root.  The package is imported from ``src/`` next
to this directory, never from an installed copy.  BLAS is pinned to one
thread before numpy loads.

With ``--trace 0`` the workload runs untraced and the last line of stdout
is a JSON object holding the end-to-end metrics.  With ``--trace 1`` the
workload runs twice in the process, untraced and then traced, and the JSON
holds the per-module metrics of the traced pass and the tracing overhead;
the two passes must produce bit-identical checked outputs.  The lines
before the JSON give every number with its unit, the failures, and the
machine.  Artifacts, the span dump and a copy of the result go to
``.perfbench_out/`` under the repository root.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3  # setup_s is their median

# name: (unit, better); the order in which results are printed.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_tokens_per_s": ("tokens/s", "higher"),
    "eval_examples_per_s": ("examples/s", "higher"),
    "predict_ms_mean": ("ms", "lower"),
    "predict_ms_p95": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
EXTRA_UNITS = {
    "failed_frac": "ratio", "val_loss": "nats", "eval_accuracy": "ratio",
    "predict_ms_p50": "ms", "predict_ms_best_p50": "ms", "predict_samples": "count",
    "rounds": "count", "ig_s_per_example": "s", "ig_residual": "logit",
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Unit and better direction of every per-module metric, by name."""
    import tracing

    units = {
        "training.step_s": ("s", "lower"), "training.fwd_s": ("s", "lower"),
        "training.bwd_s": ("s", "lower"), "training.opt_s": ("s", "lower"),
        "training.make_batch_s": ("s", "lower"), "training.val_eval_s": ("s", "lower"),
        "training.step_accounted_frac": ("ratio", "higher"),
        "data.vocab_encode_s": ("s", "lower"), "data.pad_frac": ("ratio", "lower"),
    }
    for name in tracing.MODULE_SPANS:
        units[f"{name}.fwd_s"] = ("s", "lower")
        units[f"{name}.bwd_s"] = ("s", "lower")
    units.update({
        "moe.tokens_routed": ("count", "higher"), "moe.drop_frac": ("ratio", "lower"),
        "moe.eval_drop_frac": ("ratio", "lower"), "moe.max_expert_frac": ("ratio", "lower"),
        "model.checkpoint_save_s": ("s", "lower"), "model.checkpoint_load_s": ("s", "lower"),
        "model.checkpoint_mb": ("MiB", "lower"),
        "tensor.tape_nodes_per_pass": ("count", "lower"), "tensor.backward_s": ("s", "lower"),
        "tensor.backward_overhead_s": ("s", "lower"), "tensor.matmul_s": ("s", "lower"),
        "tensor.matmul_gflop": ("GFLOP", "lower"), "tensor.matmul_gflops": ("GFLOP/s", "higher"),
        "tensor.matmul_share": ("ratio", "higher"), "peak.matmul_gflops": ("GFLOP/s", "higher"),
        "optim.adamw_s": ("s", "lower"), "optim.clip_s": ("s", "lower"),
        "optim.param_count": ("count", "lower"), "optim.adamw_gbps": ("GB/s", "higher"),
        "interpret.ig_points": ("count", "lower"), "interpret.ig_point_s": ("s", "lower"),
        "metrics.report_s": ("s", "lower"),
        "trace.untraced_s": ("s", "lower"), "trace.traced_s": ("s", "lower"),
        "trace.overhead_frac": ("ratio", "lower"),
    })
    return units


# ---------------------------------------------------------------------------
# machine


def _openblas():
    """The OpenBLAS library numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    return ctypes.CDLL(sorted(paths)[0]) if paths else None


def _blas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib = _openblas()
    threads = config = None
    if lib is not None:
        threads = _blas_call(lib, ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                                   "openblas_get_num_threads"), ctypes.c_int)
        config = _blas_call(lib, ("scipy_openblas_get_config64_", "openblas_get_config64_",
                                  "openblas_get_config"), ctypes.c_char_p)
    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": config.decode() if config else None,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def peak_matmul_gflops(repeats: int = 30) -> float:
    """Best float64 GEMM rate on the paper-scale FFN shape [720x200]@[200x800]."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((720, 200)), rng.standard_normal((200, 800))
    out = np.empty((720, 800))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - start)
    return 2 * 720 * 200 * 800 / best / 1e9


# ---------------------------------------------------------------------------
# byte-identical reruns within one version of the code


def _code_digest() -> str:
    """Digest of the package and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "switchtext").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def rerun_matches(key: str, outputs: dict) -> bool:
    """Compare the checked outputs with an earlier run of the same code and
    ``key``, if there was one, and remember them otherwise."""
    store_path = OUT / "outputs.json"
    code = _code_digest()
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    if store.get("code") != code:
        store = {"code": code, "runs": {}}
    earlier = store["runs"].setdefault(key, outputs)
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return earlier == outputs


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import tracing
    import workloads as W

    pass_fn = W.WORKLOADS[workload]
    # A traced run makes two passes, so each does half the rounds.
    scale = seconds / W.RUN_SECONDS / (2 if trace else 1)
    ledger = W.Ledger()
    out_dir = str(OUT / workload)
    peak = peak_matmul_gflops()
    # A traced run sets up once per pass: it reports no set-up time, and the
    # outputs do not depend on the repeat count.
    first = pass_fn(seed, scale, 1 if trace else SETUP_REPEATS, ledger, out_dir)
    ledger.check(rerun_matches(f"{workload}:{seed}:{scale}", first.outputs), "outputs differ from an earlier run")

    if trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer) as saved:
            traced = pass_fn(seed, scale, 1, ledger, out_dir, tracer=tracer)
        ledger.check(tracing.wrappers_removed(saved), "tracing wrappers left installed")
        for key in sorted(set(first.outputs) | set(traced.outputs)):
            ledger.check(first.outputs.get(key) == traced.outputs.get(key),
                         f"traced pass changed {key}")
        ledger.check(tracing.partition_error(tracer.spans) < 1e-9, "span self times do not partition the run")
        tracer.dump(str(OUT / f"trace-{workload}-seed{seed}.json"))
        metrics = tracing.module_metrics(tracer)
        metrics["peak.matmul_gflops"] = peak
        metrics["trace.untraced_s"] = first.wall_s
        metrics["trace.traced_s"] = traced.wall_s
        metrics["trace.overhead_frac"] = traced.wall_s / first.wall_s - 1.0
        units = per_layer_units()
    else:
        metrics = dict(first.metrics)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and their declared units disagree: {sorted(missing)}")

    extra = dict(first.extra)
    extra["failed_frac"] = ledger.failed / ledger.attempted
    return {
        "result": {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
        },
        "extra": extra,
        "failures": ledger.failures,
        "environment": dict(environment(), **{"peak.matmul_gflops": peak}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-switch-paper", "train-dense-paper", "attribute-switch-small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not (SRC / "switchtext" / "__init__.py").is_file():
        print(f"error: no switchtext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import switchtext

    if Path(switchtext.__file__).resolve().parent != SRC / "switchtext":
        print(f"error: imported switchtext from {switchtext.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report["result"]
    for name, m in result["metrics"].items():
        print(f"{name}\t{m['value']:.6g}\t{m['unit']}")
    for name, value in report["extra"].items():
        print(f"info {name}\t{value:.6g}\t{EXTRA_UNITS[name]}")
    print(f"info operations\tattempted {result['attempted']}\tfailed {result['failed']}")
    for failure in report["failures"]:
        print(f"failure\t{failure}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repo's benchmark: four workloads, end to end and layer by layer.

One run measures one workload in one mode::

    python3 benchmarks/core/run.py --workload query_wire --seed 1 \\
        --seconds 10 --trace 0

prints every metric by name with its unit, value and sample count, then one
JSON line ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
measures the end-to-end metrics with all tracing off; ``--trace 1`` is the
separate traced run that yields the per-layer metrics and writes
``trace_<workload>.json``. The exit code is non-zero if any answer was wrong.

Leaving out ``--workload`` and/or ``--trace`` runs every combination asked
for, each in a fresh child process (so peak RSS and GC state are per
workload), ``--repeat N`` times, prints per-metric medians, quartiles and
worst relative deviation, and writes ``<out>/result.json`` for
``compare.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import platform
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import benchstats  # noqa: E402
import sizes as sizing  # noqa: E402

WORKLOADS = ("query_wire", "delta_ingest", "token_engine", "scale_sharded")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--traced", action="store_const", const=1, dest="trace",
        help="same as --trace 1",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, same code paths, gates armed",
    )
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "out")
    parser.add_argument(
        "--write-golden", action="store_true",
        help="record token_engine results and IO counts as the golden file",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    args.sizes = sizing.SMOKE if args.smoke else sizing.FULL
    return args, spec


def environment(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "sizes": args.sizes,
    }


def check_cpus(workloads) -> None:
    nproc = os.cpu_count() or 1
    for name in workloads:
        if sizing.CPUS[name] > nproc:
            raise SystemExit(
                f"{name} needs {sizing.CPUS[name]} CPUs, this box has {nproc}"
            )


# ----------------------------------------------------------------------
# One workload, one mode, in this process
# ----------------------------------------------------------------------
def run_one(args, spec) -> int:
    import wl_delta
    import wl_query
    import wl_token

    modules = {
        "query_wire": wl_query,
        "scale_sharded": wl_query,
        "delta_ingest": wl_delta,
        "token_engine": wl_token,
    }
    module = modules[args.workload]
    common = (args.workload, args.seed, args.seconds, args.sizes)
    if args.trace:
        args.out.mkdir(parents=True, exist_ok=True)
        job = module.trace(*common, args.out)
    else:
        job = module.measure(*common)
    result = asyncio.run(job)

    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    metrics.add("failed_share", failed / attempted, "ratio", attempted)
    for name, metric in metrics.items():
        print(
            f"{args.workload:14s} {name:46s} "
            f"{metric['value']:>16.6f} {metric['unit']:6s} n={metric['n']}"
        )
    for note in result["notes"]:
        print(f"{args.workload}: {note}")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    reported = {}
    for entry in listed:
        # A per-layer metric of a layer this workload bypasses reads 0.
        metric = metrics.get(entry["name"], {"value": 0.0})
        reported[entry["name"]] = {
            "value": metric["value"], "unit": entry["unit"],
        }
    correct = failed == 0 and result.get("valid", True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Many runs, each in a child process
# ----------------------------------------------------------------------
def run_child(args, workload: str, trace: int) -> tuple[int, dict]:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out", str(args.out),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} --trace {trace}: no result")
    print("\n".join(lines[:-1]))
    return done.returncode, json.loads(lines[-1])


def summarize(runs: list[dict]) -> None:
    """Per-metric median, quartiles and worst relative deviation."""
    print(f"\n{'workload':14s} {'metric':46s} {'median':>14s} "
          f"{'q1':>14s} {'q3':>14s} {'worst dev':>10s}")
    keys = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            keys.setdefault((run["workload"], name), []).append(metric["value"])
    for (workload, name), values in keys.items():
        q1, q2, q3 = benchstats.quartiles(values)
        worst = max(abs(v - q2) for v in values) / abs(q2) if q2 else 0.0
        print(f"{workload:14s} {name:46s} {q2:14.6f} {q1:14.6f} "
              f"{q3:14.6f} {worst:10.4f}")


def run_many(args, spec) -> int:
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    check_cpus(workloads)
    status = 0
    runs = []
    for workload in workloads:
        for trace in traces:
            for _ in range(args.repeat):
                code, result = run_child(args, workload, trace)
                status = status or code
                runs.append({"workload": workload, "trace": trace, **result})
    if args.repeat > 1:
        summarize(runs)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "result.json").write_text(
        json.dumps({"env": environment(args), "runs": runs}, indent=1)
    )
    print(f"\nresults: {args.out / 'result.json'}")
    return status


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"nothing to measure: {ROOT / 'src' / 'repro'} is missing")
    args, spec = parse_args(argv)
    if args.write_golden:
        import wl_token

        wl_token.write_golden(args.seed, args.seconds, args.sizes)
        return 0
    single = (
        args.workload is not None
        and args.trace is not None
        and args.repeat == 1
    )
    if single:
        check_cpus([args.workload])
        return run_one(args, spec)
    return run_many(args, spec)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the polynorm command line: one workload per fresh interpreter.

    python3 perfbench/run.py --workload families --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, as a table

With one workload the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `--trace 0` gives the
end-to-end metrics and `--trace 1` the per-layer ones.  Without
`--workload`, every workload runs in turn and a table of all metrics is
printed (`--out FILE` also saves the results as JSON).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("families", "check-deep", "explore-random")
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    base = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    setup, raw_setup = [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            probe = subprocess.run(base + ["--setup-only"], cwd=ROOT, capture_output=True,
                                   text=True, timeout=WORKER_TIMEOUT_S)
            elapsed = time.perf_counter() - start
            if probe.returncode != 0:
                raise BenchError(f"set-up of {workload} failed:\n{probe.stderr}")
            # The probe measures the speed of its own CPU; the other CPU may differ.
            spot = json.loads(probe.stdout.splitlines()[-1])
            raw = elapsed - spot["sampling_s"]
            setup.append(raw * spot["speed"])
            raw_setup.append(raw)
    proc = subprocess.run(
        base + ["--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    for failure in result.pop("failures"):
        print(f"# {workload} failed: {failure}", file=sys.stderr)
    metrics, raw = result["metrics"], result["raw"]
    if setup:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
        raw["raw_setup_s"] = statistics.median(raw_setup)
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics, "raw": raw}


def print_table(results: dict):
    for workload, result in results.items():
        frac = result["failed"] / result["attempted"]
        print(f"== {workload}: failed_frac {frac:.4g} ratio "
              f"({result['failed']} of {result['attempted']} operations)")
        for name, metric in result["metrics"].items():
            print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}")
        print("  unnormalised: " + ", ".join(f"{k} {v:.6g}" for k, v in result["raw"].items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, as a table)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the results as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polynorm" / "__init__.py").is_file():
        print(f"error: no polynorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            results = {args.workload: run_workload(args.workload, args.seed,
                                                   args.seconds, args.trace)}
        else:
            results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                       for w in WORKLOADS}
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.out:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "results": results}, indent=1) + "\n")
    if args.workload:
        result = dict(results[args.workload])
        print(f"# unnormalised: {json.dumps(result.pop('raw'))}", file=sys.stderr)
        print(json.dumps(result))
    else:
        print_table(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())

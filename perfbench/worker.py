"""Run one benchmark workload in this interpreter and print its result as JSON.

`run.py` starts this script in a fresh interpreter per workload, so the
point caches of `Polytope` objects, the set-up time and the peak RSS of one
workload never leak into the next.  Every operation goes through the public
entry point `polynorm.cli.main`, in this process and on this thread, with
stdout captured and checked.

    python3 perfbench/worker.py --workload families --seed 0 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload families --seed 0 --setup-only
    python3 perfbench/worker.py --record-golden

The last line of stdout is a JSON object with `attempted`, `failed`,
`failures` (details of the first few), `raw` (raw times and the machine's
speed, see speed.py) and `metrics` ({name: {value, unit}}).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402  (benchmark modules next to this file)
import tracer as tracing  # noqa: E402

GOLDEN_PATH = HERE / "golden.json"
TMP_ROOT = ROOT / ".bench_tmp"

# The ROADMAP baseline inputs plus bruns:4 and reeve.  higashitani:4,2 is
# left out: it alone takes about 46 s, 37 s of it in nu_P.
FAMILIES = ("cube:3", "cube:4", "bruns:4", "bruns:6", "reeve",
            "higashitani:3,3", "random:4,3,9,11")
# k_P runs from 9 to 15 while n = 8 keeps nu_P and m_P small.
CHECK_DEEP = ("bruns:10", "bruns:12", "bruns:14", "bruns:16")
# explore-random draws its 120 sample seeds once, from SplitMix64 with this
# seed, and the workload seed only permutes them like the other inputs: with
# samples drawn from the workload seed, the median latency of 120 random
# polytopes moved by 15-20% from seed to seed, which hid any change smaller
# than that.
EXPLORE_SAMPLES = 120
EXPLORE_POOL_SEED = 0
DEFAULT_SEED = 0

WORKLOADS = ("families", "check-deep", "explore-random")
# Cache-hit passes after each cold pass.  Only `analyze` reads the report
# cache, so check-deep and explore-random have none (see `measure`).
WARM_REPEATS = {"families": 20, "check-deep": 0, "explore-random": 0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Spans whose self time is reported on its own; the rest add up in
# trace.other.self_s.
SELF_S_SPANS = (
    "polytope.from_points", "polytope.hrep_from_vrep", "polytope.lattice_points",
    "invariants.compute_d_P", "invariants.compute_nu_P", "invariants.compute_k_P",
    "invariants.is_k_normal", "invariants.volume_ehrhart",
    "invariants.volume_triangulation", "invariants.degree",
    "invariants.smooth_data", "invariants.dilate_normality_profile",
    "semigroup.compute_m_P", "semigroup.generator_set",
    "semigroup.shortest_representations",
    "bounds.full_report",
    "cli.main", "cli.report_dict_for", "cli.run_check_suite", "cli.explore_flags",
)
COUNTS = (
    "polytope.from_points.calls", "polytope.lattice_points.calls",
    "polytope.lattice_points.misses", "polytope.lattice_points.points",
    "polytope.lattice_points.candidates",
    "invariants.is_k_normal.calls", "invariants.is_k_normal.k_sum",
    "invariants.volume_triangulation.calls",
    "semigroup.shortest_representations.calls",
    "semigroup.shortest_representations.targets",
    "semigroup.shortest_representations.certificates",
    "bounds.full_report.calls",
)
# name -> (numerator count, denominator count)
RATIOS = {
    "polytope.lattice_points.kept_ratio":
        ("polytope.lattice_points.points", "polytope.lattice_points.candidates"),
    "semigroup.shortest_representations.feasible_ratio":
        ("semigroup.shortest_representations.certificates",
         "semigroup.shortest_representations.targets"),
}
TRACE_UNITS = {
    "trace.overhead_frac": "ratio",
    "trace.wall_s": "s",
    "trace.self_s_sum": "s",
    "trace.other.self_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SELF_S_SPANS}
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units.update(TRACE_UNITS)
    return units


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI invocation; `{tmp}` in argv is replaced by the round's directory.

    The operation passes when main returns 0, stdout hashes to `digest`
    (when given) and stdout contains `needle` (when given).
    """

    key: str
    argv: tuple[str, ...]
    digest: str | None = None
    needle: bytes | None = None


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def build_ops(workload: str, seed: int, golden: dict | None = None) -> list[Op]:
    """The operations of one pass: fixed inputs in an order made from the seed.

    Without `golden` the operations carry no digests (used to record them).
    """
    if workload == "families":
        ops = [Op(s, ("analyze", s, "--format", "json", "--cache-dir", "{tmp}/cache"))
               for s in FAMILIES]
    elif workload == "check-deep":
        ops = [Op(s, ("check", s)) for s in CHECK_DEEP]
    else:
        from polynorm.catalog import SplitMix64

        rng = SplitMix64(EXPLORE_POOL_SEED)
        samples = [str(rng.next_u64()) for _ in range(EXPLORE_SAMPLES)]
        ops = [Op(s, ("explore", "--dim", "2", "--bound", "6", "--count", "1",
                      "--seed", s, "--store", "{tmp}/explore.jsonl"),
                  needle=b" reverify_failures=0\n") for s in samples]
    if golden is not None:
        ops = [dataclasses.replace(op, digest=golden[workload][op.key]) for op in ops]
    random.Random(seed).shuffle(ops)
    return ops


def run_op(op: Op, tmp: str):
    """Run one operation; returns (start, end, ok, stdout bytes)."""
    from polynorm import cli

    argv = [a.replace("{tmp}", tmp) for a in op.argv]
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit):
        rc = None
        print(f"# {op.key}: raised\n{traceback.format_exc()}", file=sys.stderr)
    end = time.perf_counter()
    out.flush()
    data = out.buffer.getvalue()
    ok = (rc == 0
          and (op.digest is None or hashlib.sha256(data).hexdigest() == op.digest)
          and (op.needle is None or op.needle in data))
    return start, end, ok, data


class Tally:
    """Operation counts and the details of the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, op: Op, ok: bool, data: bytes):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.key}: {data[-300:].decode(errors='replace')!r}")


def run_pass(ops, tmp: str, tally: Tally) -> list[tuple[str, float, float]]:
    """One pass over the operations; returns (key, start, end) per operation."""
    intervals = []
    for op in ops:
        start, end, ok, data = run_op(op, tmp)
        tally.record(op, ok, data)
        intervals.append((op.key, start, end))
    return intervals


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under TMP_ROOT; removed afterwards, with TMP_ROOT
    when that is left empty."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()


def run_round(ops, warm_repeats: int, tally: Tally):
    """A cold pass in a fresh directory, then `warm_repeats` warm passes in it.

    Returns (cold pass, [warm passes]) as lists of operation intervals.
    """
    with scratch_dir() as tmp:
        cold = run_pass(ops, tmp, tally)
        warm = [run_pass(ops, tmp, tally) for _ in range(warm_repeats)]
    return cold, warm


def rounds_within(seconds: float, at_least: int):
    """Yield once per round: `at_least` times, then while another round as
    long as the last one would still end within `seconds` of the start."""
    start = begun = time.perf_counter()
    for count in itertools.count():
        now = time.perf_counter()
        if count >= at_least and 2 * now - start - begun > seconds:
            return
        begun = now
        yield


def pass_seconds(sampler: speed.SpeedSampler, intervals) -> tuple[float, float]:
    """(raw, normalised) seconds of one pass: the sum over its operations."""
    pairs = [sampler.normalise(start, end) for _, start, end in intervals]
    return sum(raw for raw, _ in pairs), sum(norm for _, norm in pairs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(ops, warm_repeats: int, seconds: float, tally: Tally):
    """Untraced rounds within `seconds`: one at least, two without warm passes.

    With `warm_repeats` > 0 every cold pass is followed by that many passes
    over the cache it filled.  With 0 no operation reads the cache, so the
    passes after the first count as warm: they run in a process that one
    pass has already warmed.  An operation's latency is its median over
    every pass of the run, cold and warm.  Returns the end-to-end metrics,
    all times speed-normalised, and the raw times with the machine's speed.
    """
    cold, warm = [], []
    with speed.SpeedSampler() as sampler:
        for _ in rounds_within(seconds, 1 if warm_repeats else 2):
            c, w = run_round(ops, warm_repeats, tally)
            cold.append(c)
            warm.extend(w)
    if not warm_repeats:
        warm = cold[1:]
    latencies = {}
    for intervals in cold + warm if warm_repeats else cold:
        for key, start, end in intervals:
            latencies.setdefault(key, []).append(sampler.normalise(start, end)[1])
    per_op_ms = [1000 * statistics.median(v) for v in latencies.values()]
    cold_s = [pass_seconds(sampler, p) for p in cold]
    warm_s = [pass_seconds(sampler, p) for p in warm]
    metrics = {
        "wall_s": statistics.median(norm for _, norm in cold_s),
        "warm_wall_s": statistics.median(norm for _, norm in warm_s),
        "op_ms_p50": statistics.median(per_op_ms),
        "op_ms_p90": statistics.quantiles(per_op_ms, n=10, method="inclusive")[8],
        "ops_per_s": sum(map(len, cold)) / sum(norm for _, norm in cold_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {
        "raw_wall_s": statistics.median(r for r, _ in cold_s),
        "raw_warm_wall_s": statistics.median(r for r, _ in warm_s),
        "machine_speed": sampler.speed(),
    }
    return metrics, raw


def measure_traced(ops, warm_repeats: int, seconds: float, tally: Tally):
    """Untraced and traced rounds in pairs; per-layer metrics per traced round."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    with speed.SpeedSampler() as sampler:
        for _ in rounds_within(seconds, 1):
            c, w = run_round(ops, warm_repeats, tally)
            plain.append([c, *w])
            with tracing.installed(tracer):
                c, w = run_round(ops, warm_repeats, tally)
            traced.append([c, *w])

    def normalised(rounds):
        return statistics.median(
            sum(pass_seconds(sampler, p)[1] for p in passes) for passes in rounds)

    rounds = len(traced)
    metrics = {f"{name}.self_s": tracer.self_s.get(name, 0.0) / rounds
               for name in SELF_S_SPANS}
    metrics.update({name: tracer.counts.get(name, 0) / rounds for name in COUNTS})
    for name, (num, den) in RATIOS.items():
        metrics[name] = tracer.counts[num] / tracer.counts[den] if tracer.counts[den] else 0.0
    total_self = sum(tracer.self_s.values())
    metrics["trace.overhead_frac"] = normalised(traced) / normalised(plain) - 1
    # Wall time of the traced operations as the spans saw it, speed samples included.
    metrics["trace.wall_s"] = sum(end - start for passes in traced for p in passes
                                  for _, start, end in p) / rounds
    metrics["trace.self_s_sum"] = total_self / rounds
    metrics["trace.other.self_s"] = (total_self - sum(
        tracer.self_s.get(name, 0.0) for name in SELF_S_SPANS)) / rounds
    return metrics, {"machine_speed": sampler.speed()}


def record_golden() -> dict:
    """Digests of every operation's stdout at the current commit."""
    golden = {}
    for workload in WORKLOADS:
        digests = {}
        with scratch_dir() as tmp:
            for op in build_ops(workload, DEFAULT_SEED):
                _, _, ok, data = run_op(op, tmp)
                if not ok:
                    raise SystemExit(f"cannot record golden output: {op.key} failed")
                digests[op.key] = hashlib.sha256(data).hexdigest()
        golden[workload] = dict(sorted(digests.items()))
    return golden


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import polynorm, make the inputs and exit")
    parser.add_argument("--record-golden", action="store_true",
                        help=f"rewrite {GOLDEN_PATH.name} from the current program")
    args = parser.parse_args(argv)
    if args.record_golden:
        GOLDEN_PATH.write_text(json.dumps(record_golden(), indent=1) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    if args.setup_only:
        speed_before, spent_before = speed.spot_speed()

    import polynorm.cli  # noqa: F401  (part of set-up: the entry point's import)

    ops = build_ops(args.workload, args.seed, load_golden())
    if args.setup_only:
        speed_after, spent_after = speed.spot_speed()
        print(json.dumps({"speed": (speed_before + speed_after) / 2,
                          "sampling_s": spent_before + spent_after}))
        return 0
    tally = Tally()
    if args.trace:
        metrics, raw = measure_traced(ops, WARM_REPEATS[args.workload], args.seconds, tally)
        units = per_layer_units()
    else:
        metrics, raw = measure(ops, WARM_REPEATS[args.workload], args.seconds, tally)
        units = END_TO_END_UNITS
    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "raw": raw,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

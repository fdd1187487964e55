"""Trace each input of a fixed-input workload on its own and show where its time goes.

    python3 perfbench/per_input.py families
    python3 perfbench/per_input.py check-deep

Prints a markdown table: per input, the traced wall time, the inclusive time
of the pipeline stages (children included, so a stage's lattice-point
enumeration counts in it) and the three spans with the most self time.
"""

from __future__ import annotations

import argparse

import tracer as tracing
import worker

STAGES = ("invariants.compute_d_P", "invariants.compute_nu_P", "semigroup.compute_m_P",
          "invariants.compute_k_P", "invariants.is_k_normal")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("families", "check-deep"))
    args = parser.parse_args(argv)
    ops = worker.build_ops(args.workload, worker.DEFAULT_SEED, worker.load_golden())
    names = [s.split(".")[1] for s in STAGES]
    print("| input | ok | traced ms | " + " | ".join(f"{n} ms" for n in names)
          + " | top self time (ms) |")
    print("|---" * (len(STAGES) + 4) + "|")
    for op in sorted(ops, key=lambda o: o.key):
        tracer = tracing.Tracer()
        with worker.scratch_dir() as tmp, tracing.installed(tracer):
            start, end, ok, _ = worker.run_op(op, tmp)
        stages = " | ".join(f"{1000 * tracer.total_s.get(s, 0.0):.0f}" for s in STAGES)
        top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:3]
        shown = ", ".join(f"{name} {1000 * t:.0f}" for name, t in top)
        print(f"| {op.key} | {'yes' if ok else 'NO'} | {1000 * (end - start):.0f} | {stages} | {shown} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

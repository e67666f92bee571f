"""``python -m bench`` — the repository's performance benchmark.

* ``python -m bench [--seed N] [--seconds S]`` — all four workloads in
  five interleaved rounds, then one traced worker per workload; prints
  every metric by name with its unit, checks the outputs, writes
  ``bench/out/results.json`` and ``bench/out/trace-<workload>.json``.
* ``python -m bench --quick`` — one round of three ops per workload, no
  trace; the smoke test's mode.
* ``python -m bench --selfcheck [--seed N]`` — the same checkout
  measured twice; non-zero exit if the two sets disagree by more than a
  metric's bound.
* ``python -m bench --workload W --seed N --seconds S --trace 0|1`` —
  one workload, the last line of output being the JSON object
  ``BENCHMARK.json``'s contract asks for.
"""

from __future__ import annotations

import argparse
import sys

from bench import harness


def main(argv: list[str] | None = None) -> int:
    spec = harness.load_spec()
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="timed seconds per workload, split over its rounds",
    )
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true")
    mode.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return harness.run_one(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    if args.selfcheck:
        return harness.selfcheck(args.seed, args.seconds)
    if args.quick:
        return harness.run_all(args.seed, 0.0, rounds=1, trace=False)
    return harness.run_all(
        args.seed, args.seconds, rounds=harness.ROUNDS, trace=True
    )


if __name__ == "__main__":
    sys.exit(main())

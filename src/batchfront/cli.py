"""Command line interface: gen, pareto, oracle, verify, bench.

Outputs are UTF-8 text with LF line endings.  Exit codes: 0 on success,
1 when verification finds a mismatch, 2 on input errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench as bench_mod
from .bounded import UNBOUNDED
from .fileio import emit_instance, load_instance, parse_instance_bytes
from .frontier import frontier_csv, pareto_front
from .generate import PROFILES, gen_random
from .model import InstanceError
from .oracle import OracleSizeError, oracle_pareto
from .verify import SIZE_CAPS, run_verification


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read_instance(path: str):
    if path == "-":
        return parse_instance_bytes(sys.stdin.buffer.read(), "<stdin>")
    return load_instance(path)


def _parse_sizes(text: str) -> list[int]:
    """"10,20,30" or a "2-8" range."""
    try:
        if "-" not in text or "," in text:
            sizes = [int(part) for part in text.split(",") if part]
        else:
            lo, hi = map(int, text.split("-", 1))
            sizes = list(range(lo, hi + 1))
        if sizes:
            return sizes
    except ValueError:
        pass
    raise ValueError(f"--sizes must be a list such as 10,20,30 or a range such as 2-8, got {text!r}")


def _parse_algorithms(text: str) -> list[str]:
    """"main1,main2"; each name is checked by ``bench.run_bench``."""
    algorithms = [part for part in text.split(",") if part]
    if not algorithms:
        raise ValueError(f"--algorithms must be a comma list from {','.join(bench_mod.ALGORITHMS)}, got {text!r}")
    return algorithms


def cmd_gen(args) -> int:
    instance = gen_random(args.n, args.seed, profile=args.profile, capacity=args.capacity)
    _write(emit_instance(instance), args.out)
    return 0


def cmd_pareto(args) -> int:
    instance = _read_instance(args.instance)
    trace = on_step = None
    if args.trace:
        def trace(line):
            print(line, file=sys.stderr)

        def on_step(before, threshold, schedule, after):
            cap = "inf" if threshold == UNBOUNDED else str(threshold)
            trace(f"step threshold={cap} feasible={schedule is not None}")
            for line in after.dump().splitlines():
                trace(f"  {line}")

    _write(pareto_front(instance, trace=trace, on_step=on_step).to_csv(), args.out)
    return 0


def cmd_oracle(args) -> int:
    instance = _read_instance(args.instance)
    reference = oracle_pareto(instance)
    rows = ((c_max, f_max, reference.witnesses[c_max, f_max]) for c_max, f_max in reference.points)
    _write(frontier_csv(rows), args.out)
    return 0


def cmd_verify(args) -> int:
    sizes = _parse_sizes(args.sizes) if args.sizes is not None else [2, SIZE_CAPS[args.variant]]
    report = run_verification(args.variant, args.count, min(sizes), max(sizes), args.seed)
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def cmd_bench(args) -> int:
    algorithms = _parse_algorithms(args.algorithms)
    records = bench_mod.run_bench(
        algorithms, _parse_sizes(args.sizes), args.reps, args.seed, profile=args.profile, capacity=args.capacity
    )
    _write(bench_mod.to_csv(records), args.out)
    for line in bench_mod.summary_lines(records):
        print(line, file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchfront",
        description="Pareto frontiers of (makespan, max cost) for serial-batch scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a seeded random instance")
    gen.add_argument("--n", type=int, required=True, help="number of jobs")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--profile", choices=PROFILES, default="paper")
    gen.add_argument("--capacity", type=int, default=None, help="override the profile's batch capacity")
    gen.add_argument("--out", default=None, help="output file (default stdout)")
    gen.set_defaults(func=cmd_gen)

    pareto = sub.add_parser("pareto", help="compute the full Pareto frontier of an instance file")
    pareto.add_argument("instance", help="instance JSON path, or - for stdin")
    pareto.add_argument("--trace", action="store_true", help="solver adjustment log on stderr")
    pareto.add_argument("--out", default=None)
    pareto.set_defaults(func=cmd_pareto)

    oracle = sub.add_parser("oracle", help="brute-force frontier of a small instance file")
    oracle.add_argument("instance")
    oracle.add_argument("--out", default=None)
    oracle.set_defaults(func=cmd_oracle)

    verify = sub.add_parser("verify", help="differential check of the solvers against the oracle")
    verify.add_argument("--count", type=int, default=200, help="number of instances")
    caps = ", ".join(f"2-{cap} for {variant}" for variant, cap in SIZE_CAPS.items())
    verify.add_argument("--sizes", help=f"job-count range such as 2-6, default {caps} (the oracle's MAX_JOBS_BOUNDED and MAX_JOBS_PRECEDENCE)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--variant", choices=tuple(SIZE_CAPS), default="bounded")
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="timing table over instance sizes")
    bench.add_argument("--sizes", default="10,20,30,40,50,60,70,80,90,100")
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--algorithms", default="main1", help=f"comma list from {','.join(bench_mod.ALGORITHMS)}")
    bench.add_argument(
        "--profile", choices=PROFILES, default=None, help="instance profile (default: paper for main1, prec for main2)"
    )
    bench.add_argument("--capacity", type=int, default=None, help="override the profile's batch capacity")
    bench.add_argument("--out", default=None)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, OracleSizeError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

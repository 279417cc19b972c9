"""Command-line front end: simplify, bench, gen, verify.

Exit codes: 0 ok, 1 I/O or parse failure, 2 usage, 3 verification
mismatch (or a dominance violation in bench).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .engine import EngineConfig, simplify
from .presentation import ParseError, parse_presentation, serialize_presentation
from .randgen import PROFILES, random_presentation
from .skip import POLICY_NAMES
from .strategies import STRATEGIES
from .verify import abelian_invariants


def _read_presentation(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return parse_presentation(f.read())


def _flag_strategy(args) -> str:
    """The registry name the validated engine flags select."""
    flags = (args.match,
             args.bloom_bits if args.bloom_bits is not None else 3,
             args.automata if args.automata is not None else "two")
    return next(name for name, spec in STRATEGIES.items() if spec.flags == flags)


def _engine_config(args, parser, strategy: str, skip: str) -> EngineConfig:
    """The EngineConfig of one run; an invalid flag value is a usage error."""
    try:
        return EngineConfig(
            match_strategy=strategy,
            skip_policy=skip,
            bloom_log2_size=args.bloom_log2 if args.bloom_log2 is not None else 16,
            long_elim_enabled=args.long_elim == "on",
            growth_limit=args.growth_limit,
            max_passes=args.max_passes,
            seed=args.seed,
        )
    except ValueError as e:
        parser.error(str(e))


def _validate_flags(args, parser) -> None:
    if args.match != "kr-bloom" and (args.bloom_bits is not None or args.bloom_log2 is not None):
        parser.error("--bloom-bits/--bloom-log2 require --match kr-bloom")
    if args.match != "automaton" and args.automata is not None:
        parser.error("--automata requires --match automaton")


def stats_report(cfg: EngineConfig, stats, wall_ms: float) -> dict:
    _, bloom_bits, automata = STRATEGIES[cfg.match_strategy].flags
    return {
        "tool_version": __version__,
        "config": {
            "match_strategy": cfg.match_strategy,
            "skip_policy": cfg.skip_policy,
            "bloom_bits": bloom_bits,
            "bloom_log2_size": cfg.bloom_log2_size,
            "automata": automata,
            "long_elim_enabled": cfg.long_elim_enabled,
            "growth_limit": cfg.growth_limit,
            "max_passes": cfg.max_passes,
            "seed": cfg.seed,
        },
        "stats": stats.to_dict(),
        "counters": stats.counters.to_dict(),
        "timings_ms": {"total": wall_ms},
    }


def _write_output(path: str | None, text: str) -> None:
    """Write ``text`` to the ``-o`` file, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_simplify(args, parser) -> int:
    _validate_flags(args, parser)
    cfg = _engine_config(args, parser, _flag_strategy(args), args.skip)
    pres = _read_presentation(args.input)
    t0 = time.perf_counter()
    pres, stats = simplify(pres, cfg)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    _write_output(args.output, serialize_presentation(pres))
    if args.stats:
        _write_output(args.stats, json.dumps(stats_report(cfg, stats, wall_ms), indent=2) + "\n")
    return 0


def cmd_bench(args, parser) -> int:
    if not args.all_strategies:
        _validate_flags(args, parser)
    elif args.bloom_bits is not None or args.automata is not None:
        # the grid runs every registry entry; --bloom-log2 still shapes its Bloom runs
        parser.error("--bloom-bits/--automata do not apply to --all-strategies")
    strategies = STRATEGIES if args.all_strategies else (_flag_strategy(args),)
    skips = POLICY_NAMES if args.all_skip else (args.skip,)
    configs = [_engine_config(args, parser, strategy, skip)
               for strategy in strategies for skip in skips]
    base = _read_presentation(args.input)
    reports = []
    for cfg in configs:
        pres = base.clone()
        t0 = time.perf_counter()
        _, stats = simplify(pres, cfg)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        reports.append(stats_report(cfg, stats, wall_ms))

    header = f"{'strategy':<14}{'skip':<13}{'searched':>10}{'skipped':>10}" \
             f"{'success':>9}{'fp_false':>9}{'bloom_false':>12}{'ms':>9}"
    lines = [header, "-" * len(header)]
    for rep in reports:
        s, c = rep["stats"], rep["counters"]
        lines.append(
            f"{rep['config']['match_strategy']:<14}{rep['config']['skip_policy']:<13}"
            f"{s['searches_performed']:>10}{s['searches_skipped']:>10}"
            f"{s['searches_successful']:>9}{c['fingerprint_false_matches']:>9}"
            f"{c['bloom_false_hits']:>12}{rep['timings_ms']['total']:>9.1f}"
        )
    print("\n".join(lines))

    violations = []
    if args.all_skip:
        # the timestamp theorem: ts-unsorted ends where all-pairs ends, with no more searches
        cells = {(rep["config"]["match_strategy"], rep["config"]["skip_policy"]): rep["stats"]
                 for rep in reports}
        for strat in strategies:
            ts, full = cells[strat, "ts-unsorted"], cells[strat, "all-pairs"]
            for key in ("searches_successful", "passes", "total_length_after", "gens_after"):
                if ts[key] != full[key]:
                    violations.append(f"{strat}: {key}(ts-unsorted) != {key}(all-pairs)")
            if ts["searches_performed"] > full["searches_performed"]:
                violations.append(f"{strat}: searches(ts-unsorted) > searches(all-pairs)")
    summary = {"reports": reports, "dominance_violations": violations}
    if args.stats:
        _write_output(args.stats, json.dumps(summary, indent=2) + "\n")
    if violations:
        for v in violations:
            print(f"dominance violation: {v}", file=sys.stderr)
        return 3
    return 0


def cmd_gen(args, parser) -> int:
    try:
        pres = random_presentation(args.seed, args.gens, args.rels, args.maxlen, args.profile)
    except ValueError as e:
        parser.error(str(e))
    _write_output(args.output, serialize_presentation(pres))
    return 0


def cmd_verify(args, parser) -> int:
    a = abelian_invariants(_read_presentation(args.first))
    b = abelian_invariants(_read_presentation(args.second))
    print(f"{args.first}: torsion={a[0]} free_rank={a[1]}")
    print(f"{args.second}: torsion={b[0]} free_rank={b[1]}")
    if a != b:
        print("abelian invariants differ", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tietze",
                                     description="Simplify finitely presented groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine_flags(p):
        p.add_argument("--match", default="brute",
                       choices=tuple(dict.fromkeys(s.flags[0] for s in STRATEGIES.values())))
        p.add_argument("--automata", choices=("one", "two"), default=None)
        p.add_argument("--skip", choices=POLICY_NAMES, default="ts-sorted")
        p.add_argument("--bloom-bits", type=int, choices=(3, 4), default=None)
        p.add_argument("--bloom-log2", type=int, default=None)
        p.add_argument("--long-elim", choices=("on", "off"), default="on")
        p.add_argument("--growth-limit", type=float, default=1.5, metavar="G",
                       help="bound each long elimination to G times the total length before it")
        p.add_argument("--max-passes", type=int, default=100, metavar="N",
                       help="passes in the whole run, not per round; then only eliminations run")
        p.add_argument("--seed", type=int, default=0,
                       help="picks the fingerprint base of the kr-bloom strategies; "
                            "every other strategy, kr-hash included, ignores it")
        p.add_argument("--stats", metavar="FILE", default=None)

    p = sub.add_parser("simplify", help="simplify one presentation")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    add_engine_flags(p)
    p.set_defaults(func=cmd_simplify, parser=p)

    p = sub.add_parser("bench", help="compare configurations on one input")
    p.add_argument("input")
    p.add_argument("--all-strategies", action="store_true")
    p.add_argument("--all-skip", action="store_true")
    add_engine_flags(p)
    p.set_defaults(func=cmd_bench, parser=p)

    p = sub.add_parser("gen", help="generate a random presentation")
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--rels", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=PROFILES, default="generic")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen, parser=p)

    p = sub.add_parser("verify", help="compare abelian invariants of two presentations")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_verify, parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, args.parser)  # errors print the subcommand's usage
    except SystemExit as e:  # usage errors, from parsing or flag validation
        return int(e.code or 0)
    except (ParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of ``tietze simplify`` on seeded corpora, driven in-process.

    python3 perfbench/run.py --workload {motif,eliminate,dense} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Set-up generates the workload's corpus
from the seed, writes it as presentation files and imports ``tietze``
from ``src/``.  A round then calls ``tietze.cli.main(["simplify", IN, "-o",
OUT, "--stats", S, <workload flags>])`` once per presentation and checks
every output.  Rounds repeat until the next one would end after
``--seconds``; there are always at least three (four when tracing).

``--trace 0`` installs no wrapper and reports the end-to-end metrics;
``wall_s`` and ``setup_s`` are rescaled to a nominal host speed measured
by a reference task timed around every call (see Reference).
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics (see tracer.py) plus the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Exit status 2 means the program could not be set up.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, Tracer
from workloads import WORKLOADS, make_corpus, presentation_text, read_presentation, reduce_word

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
MODULES = ("cli", "engine", "presentation", "strategies", "randgen", "verify")
SETUP_REPEATS = 7
MIN_ROUNDS = 3  # 4 with --trace 1, so that two traced rounds can be compared
# verify.smith_normal_form blows up on large exponent matrices (see
# NOTES.md); an output with more generators than this is a failed check
# rather than a hang.
MAX_CHECKED_GENS = 12
# Nominal time of the reference task; timings are rescaled to a host on
# which the task takes exactly this long (see Reference).
REFERENCE_S = 0.025


class Reference:
    """A fixed pure-Python task that shares no code with the program.

    The host runs this code 1.5-2x slower in some stretches of seconds to
    minutes than in others, in CPU time as much as in wall time.  Timing
    this task right before and after each measured call and rescaling the
    call by REFERENCE_S / (mean task time) cancels most of that: on
    repeated simplify calls it cut the coefficient of variation from about
    0.20 to 0.08.
    """

    def __init__(self):
        rng = random.Random(0)
        self.words = [tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(40))
                      for _ in range(2500)]

    def seconds(self) -> float:
        t0 = perf_counter()
        lengths: dict[int, int] = {}
        for w in self.words:
            n = len(reduce_word(w + w[::-1]))
            lengths[n] = lengths.get(n, 0) + 1
        return perf_counter() - t0


def import_tietze() -> dict:
    """Import the program afresh from src/ and return its modules by short name."""
    for name in [m for m in sys.modules if m == "tietze" or m.startswith("tietze.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"tietze.{name}") for name in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"tietze was imported from {mods['cli'].__file__}, not {SRC}")
    return mods


def set_up(workload, seed: int, work: Path):
    """Import, generate the corpus and write its files; timed as setup_s."""
    tietze = import_tietze()
    corpus = make_corpus(workload, seed, tietze["randgen"])
    jobs = []
    for i, (d, rels) in enumerate(corpus):
        inp, out, stats = (work / f"{i:03d}.{ext}" for ext in ("in.pres", "out.pres", "stats.json"))
        inp.write_text(presentation_text(d, rels), encoding="utf-8")
        jobs.append((["simplify", str(inp), "-o", str(out), "--stats", str(stats),
                      *workload.flags], out, stats))
    return tietze, corpus, jobs


def expected_invariants(tietze, workload, corpus):
    if workload.known_invariants is not None:
        return [workload.known_invariants] * len(corpus)
    return [tietze["verify"].abelian_invariants(tietze["presentation"].make_presentation(d, rels))
            for d, rels in corpus]


def run_round(tietze, jobs, reference: Reference, tracer: Tracer | None
              ) -> tuple[list[tuple[float, float]], list]:
    """Simplify the whole corpus through cli.main.

    Returns (seconds, mean reference-task seconds around the call) and the
    exit code, per file.
    """
    cli = tietze["cli"]
    times: list[tuple[float, float]] = []
    codes: list = []
    for _, out, stats in jobs:  # so that a stale file from the last round is never checked
        out.unlink(missing_ok=True)
        stats.unlink(missing_ok=True)
    gc.collect()
    before = reference.seconds()
    for i, (argv, _, _) in enumerate(jobs):
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        try:
            codes.append(cli.main(argv))
        except Exception:  # a crash is a failed presentation, not a failed benchmark
            codes.append(traceback.format_exc())
        elapsed = perf_counter() - t0
        after = reference.seconds()
        times.append((elapsed, (before + after) / 2))
        before = after
    return times, codes


def corpus_seconds(rounds, rescale: bool) -> float:
    """Time to simplify the corpus: each presentation's median over rounds, summed.

    The median per presentation votes out a burst that slowed a few calls
    in one round; a round total would average it in.  With ``rescale``
    each call is first rescaled to the nominal host speed (see Reference).
    """
    value = rescaled if rescale else (lambda t: t[0])
    return sum(statistics.median(map(value, per_file)) for per_file in zip(*rounds))


def rescaled(timing: tuple[float, float]) -> float:
    """Seconds rescaled to a host on which the reference task takes REFERENCE_S."""
    seconds, reference_seconds = timing
    return seconds * REFERENCE_S / reference_seconds


class Checker:
    """Checks each round's outputs and that they repeat exactly across rounds."""

    def __init__(self, tietze, expected):
        self.tietze = tietze
        self.expected = expected
        self.first: list = [None] * len(expected)  # (output bytes, stats) of round one
        self.attempted = 0
        self.failed = 0

    def check_round(self, jobs, codes) -> list:
        """Counts failures; returns per presentation ((gens, rels, length), stats
        report), or None where a check failed."""
        results = []
        for i, ((_, out, stats_path), code) in enumerate(zip(jobs, codes)):
            self.attempted += 1
            try:
                problem, result = self.check_one(i, out, stats_path, code)
            except Exception:  # an unreadable output is a failed check
                problem, result = traceback.format_exc(), None
            if problem:
                self.failed += 1
                print(f"presentation {i:03d}: {problem}", file=sys.stderr)
            results.append(result)
        return results

    def check_one(self, i, out: Path, stats_path: Path, code):
        if code != 0:
            return f"simplify failed: {code}", None
        data = out.read_bytes()
        report = json.loads(stats_path.read_text(encoding="utf-8"))
        d, rels = read_presentation(data.decode("utf-8"))
        counts = (d, len(rels), sum(map(len, rels)))
        s = report["stats"]
        if (s["gens_after"], s["rels_after"], s["total_length_after"]) != counts:
            return f"stats {s} disagree with the output file {counts}", None
        exact = {"stats": s, "counters": report["counters"]}
        if self.first[i] is None:
            self.first[i] = (data, exact)
        elif self.first[i][0] != data:
            return "output differs from the first round", None
        elif self.first[i][1] != exact:
            return "stats counters differ from the first round", None
        if counts[0] > MAX_CHECKED_GENS:
            return f"{counts[0]} generators left; too many for the abelian check", None
        pres = self.tietze["presentation"].make_presentation(d, rels)
        got = self.tietze["verify"].abelian_invariants(pres)
        if tuple(got) != tuple(self.expected[i]):
            return f"abelian invariants {got}, expected {self.expected[i]}", None
        return None, (counts, report)


def layer_metrics(per_round: list[dict], results, tracer_counts: dict,
                  plain_rounds, traced_rounds) -> dict:
    """The per-layer metrics of a traced run (counts from the --stats JSON)."""
    reports = [r for _, r in results]

    def total(section: str, key: str) -> int:
        return sum(r[section][key] for r in reports)

    t = {layer: statistics.median([r[layer] for r in per_round]) for layer in per_round[0]}
    searches = total("stats", "searches_performed")
    values = {
        "presentation.parse_s": t["presentation.parse"],
        "presentation.serialize_s": t["presentation.serialize"],
        "presentation.dedup_s": t["presentation.dedup"],
        "presentation.duplicates_removed": tracer_counts["duplicates_removed"],
        "words.canonical_s": t["words.canonical"],
        "words.canonical_calls": tracer_counts["canonical_calls"],
        "skip.self_s": t["skip"],
        "skip.passes": total("stats", "passes"),
        "skip.pairs_considered": total("stats", "pairs_considered"),
        "skip.searches": searches,
        "skip.searches_skipped": total("stats", "searches_skipped"),
        "skip.search_yield": total("stats", "searches_successful") / searches if searches else 0.0,
        "skip.reorders": tracer_counts["reorders"],
        "match.search_s": t["match.search"],
        "match.windows_scanned": total("counters", "windows_scanned"),
        "match.filter_hits": total("counters", "filter_hits"),
        "fingerprint.index_build_s": t["fingerprint.index_build"],
        "fingerprint.indexes_built": tracer_counts["indexes_built"],
        "automaton.build_s": t["automaton.build"],
        "automaton.automata_built": total("counters", "automata_built"),
        "engine.short_elim_s": t["engine.short_elim"],
        "engine.long_elim_s": t["engine.long_elim"],
        "engine.rewrite_s": t["engine.rewrite"],
        "engine.rewrites": total("stats", "searches_successful"),
        "engine.short_elims": total("stats", "short_elims"),
        "engine.long_elims": total("stats", "long_elims"),
        "engine.self_s": t["engine"],
        "engine.pass_budget_used": max(r["stats"]["passes"] / r["config"]["max_passes"]
                                       for r in reports),
        "cli.self_s": t["cli"],
        "verify.check_s": t["verify.check"],
        "trace.wall_s": corpus_seconds(traced_rounds, False),
        # rescaled: untraced and traced rounds run in different stretches
        # of host speed
        "trace.overhead_s": corpus_seconds(traced_rounds, True) - corpus_seconds(plain_rounds, True),
    }
    return {name: {"value": v, "unit": "s" if name.endswith("_s") else
                   "share" if name in ("skip.search_yield", "engine.pass_budget_used")
                   else "count"} for name, v in values.items()}


def measure(args, workload, tietze, jobs, checker: Checker, reference: Reference):
    """Run rounds until the next would overrun --seconds; returns the metrics."""
    tracer = Tracer() if args.trace else None
    plain_rounds, traced_rounds, per_round, tracer_counts = [], [], [], []
    results = None
    deadline = perf_counter() + args.seconds
    longest = 0.0
    n = 0
    min_rounds = MIN_ROUNDS + (tracer is not None)
    while n < min_rounds or perf_counter() + longest <= deadline:
        start = perf_counter()
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.reset()
            tracer.install(tietze)
            try:
                times, codes = run_round(tietze, jobs, reference, tracer)
                tracer.request = -1
                results = tracer.wrap("verify.check", checker.check_round)(jobs, codes)
            finally:
                tracer.uninstall()
            traced_rounds.append(times)
            per_round.append({layer: tracer.layer_self_s(layer) for layer in LAYERS})
            tracer_counts.append({
                "canonical_calls": tracer.layer_calls("words.canonical"),
                "indexes_built": tracer.layer_calls("fingerprint.index_build"),
                "duplicates_removed": tracer.duplicates_removed,
                "reorders": sum(tracer.reorders),
            })
        else:
            times, codes = run_round(tietze, jobs, reference, None)
            results = checker.check_round(jobs, codes)
            plain_rounds.append(times)
        longest = max(longest, perf_counter() - start)
        n += 1

    results = [r for r in results if r is not None]  # failures are counted by the checker
    if not results:
        return None
    if tracer is None:
        print(f"corpus time as measured: {corpus_seconds(plain_rounds, False):.4f} s",
              file=sys.stderr)
        gens = sum(counts[0] for counts, _ in results)
        length = sum(counts[2] for counts, _ in results)
        return {
            "wall_s": {"value": corpus_seconds(plain_rounds, True), "unit": "s"},
            "output_length": {"value": length + 1, "unit": "count"},
            "output_gens": {"value": gens + 1, "unit": "count"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "unit": "MiB"},
        }
    if any(c != tracer_counts[0] for c in tracer_counts):
        print(f"traced counters differ between rounds: {tracer_counts}", file=sys.stderr)
        return None
    OUT.mkdir(exist_ok=True)
    spans = tracer.write_spans(str(OUT / f"spans-{workload.name}.csv.gz"))
    print(f"wrote {spans} spans of the last traced round to {OUT}", file=sys.stderr)
    return layer_metrics(per_round, results, tracer_counts[0], plain_rounds, traced_rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "tietze").is_dir():
        print(f"error: {SRC / 'tietze'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{workload.name}-{args.seed}"
    reference = Reference()
    try:
        setup_times = []  # (seconds, mean reference-task seconds around it)
        before = reference.seconds()
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            t0 = perf_counter()
            tietze, corpus, jobs = set_up(workload, args.seed, work)
            elapsed = perf_counter() - t0
            after = reference.seconds()
            setup_times.append((elapsed, (before + after) / 2))
            before = after
        checker = Checker(tietze, expected_invariants(tietze, workload, corpus))
        metrics = measure(args, workload, tietze, jobs, checker, reference)
    except ImportError as e:
        print(f"error: cannot import tietze: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    correct = metrics is not None and checker.failed == 0
    if metrics is None:
        metrics = {}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(map(rescaled, setup_times)), "unit": "s"}
    print(f"{workload.name} seed {args.seed}: {checker.attempted} simplify runs, "
          f"{checker.failed} failed (failed_share {checker.failed / checker.attempted:.4f})",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Mutation check: every mutant in ``MUTANTS`` must make tier-1 fail.

    python tests/mutants.py

Each mutant names a file under ``src/tietze``, a text that occurs in it
exactly once, the text that replaces it, and what the change breaks.  For
each one, the tree is copied to a temporary directory, the mutant is
applied there, and tier-1 runs in the copy with ``-x``.  One line per
mutant reports killed or survived, the seconds taken and the first
failing test.  An unmutated copy runs first: if it fails, every mutant
would look killed, so the check stops there.

The exit status is 1 if a mutant survives without an ``equivalent``
reason, or one that has a reason is killed (the reason no longer holds),
and 2 if a mutant's text does not occur exactly once (checked before any
run) or the unmutated tree fails.  A change to a guarded rule adds its
mutants here.  A mutant that starts to survive is not deleted: a test is
missing, or the mutant is listed as equivalent with the reason.

The pytest run of the suite does not collect this file as a test (no
``test_`` prefix); it only imports it, for the doctests, which runs nothing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600
TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/tietze
    old: str
    new: str
    breaks: str
    equivalent: str | None = None  # why no test can see it, if none can


MUTANTS = (
    # the change list's one reader and the driver around it
    Mutant("pass-rewrites-marked", "engine.py",
           "ended_early = any(eliminable(r.word) for r in pres.take_changes())",
           "ended_early = any(eliminable(r.word) for r in pres.rel)",
           "a pass's rewrites stay on the change list and are marked after the "
           "next short elimination, though the pass drivers stamped them"),
    Mutant("sweep-always-on", "engine.py",
           "long_eliminate(pres, cfg, length, not pass_rewrote)",
           "long_eliminate(pres, cfg, length, True)",
           "a lonely sweep runs on while a pass's rewrites await normalization"),
    Mutant("normalize-only-first-step", "engine.py",
           "    while True:\n        normalize_involutions(pres)\n",
           "    normalize_involutions(pres)\n    while True:\n",
           "short elimination reads words that an elimination left holding an "
           "involution's inverse or a new square"),
    Mutant("early-end-break", "engine.py",
           "            if ended_early:\n                break\n",
           "            if ended_early:\n                pass\n",
           "passes go on after a rewrite leaves a relator eliminable"),
    Mutant("start-up-take-dropped", "engine.py",
           "    pres.take_changes()  # every relator is marked next\n", "",
           "the input's duplicates and normalized relators are marked twice",
           equivalent="init_pass_state marks every relator with tp = -1 anyway; a second "
                      "mark only raises ts, and every later stamp is larger still"),
    Mutant("rewrite-guard-dropped", "engine.py",
           "if len(new) >= len(text.word):", "if False:",
           "a rewrite that does not shorten its text is applied"),
    Mutant("rewrite-guard-strict", "engine.py",
           "if len(new) >= len(text.word):", "if len(new) > len(text.word):",
           "a rewrite that keeps its text's length is applied"),
    Mutant("lonely-holder-length", "engine.py",
           "                if len(s.word) > 2:\n", "                if len(s.word) > 0:\n",
           "the lonely sweep deletes a holder of one or two symbols, which the driver "
           "never leaves it but a direct call may"),
    # the skip policies and the match level
    Mutant("unsorted-changed-clause", "skip.py",
           "[t for t in seen if tp > t.tp or tp <= t.ts]", "[t for t in seen if tp <= t.ts]",
           "ts-unsorted skips a text whose roles were reversed in the previous pass"),
    Mutant("sorted-stamp-compare", "skip.py",
           "at = [i for i in scan if tp <= rel[i].ts]", "at = [i for i in scan if tp < rel[i].ts]",
           "ts-sorted skips a text changed in the pattern's own last loop"),
    Mutant("early-end-mark-range", "skip.py",
           "for r in snapshot[p:]:", "for r in snapshot[p + 1:]:",
           "ts-unsorted leaves unmarked the first relator its early-ended pass did not reach"),
    Mutant("usefulness-threshold", "words.py",
           "return (l_p + 2) // 2", "return (l_p + 1) // 2",
           "a common substring of half the pattern counts as useful"),
    # label compaction and the exponent matrix
    Mutant("compact-every-label", "presentation.py",
           "for h in p.occurrences().keys() | p.involutions}",
           "for h in range(1, p.d + len(gaps) + 1) if h not in p.eliminated}",
           "compaction maps every declared label, in memory proportional to the "
           "generator count"),
    Mutant("compact-without-involutions", "presentation.py",
           "for h in p.occurrences().keys() | p.involutions}",
           "for h in p.occurrences().keys()}",
           "an involution that occurs in no relator has no new label"),
    Mutant("compact-gap-bound", "presentation.py",
           "h - bisect(gaps, h)", "h - bisect(gaps, h - 1)",
           "a label counts the gaps below it and itself",
           equivalent="a mapped label is live, so it is never in gaps, and the gaps "
                      "at most h - 1 are the gaps below h"),
    Mutant("matrix-every-generator", "verify.py",
           "column = {g: j for j, g in enumerate(sorted(p.occurrences()))}",
           "column = {g: g - 1 for g in range(1, p.d + 1)}",
           "the exponent matrix gets a column for every declared generator"),
    Mutant("matrix-columns-unsorted", "verify.py",
           "enumerate(sorted(p.occurrences()))", "enumerate(p.occurrences())",
           "the exponent matrix's columns follow first occurrence, not the labels"),
)


def _copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".perfbench_*", "*.egg-info"))


def _tier1(tree: Path) -> tuple[bool, float, str]:
    """(passed, seconds, first failing test) of tier-1 with ``-x`` in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = perf_counter()
    try:
        run = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                             capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, perf_counter() - start, f"timeout after {TIMEOUT_S} s"
    seconds = perf_counter() - start
    first = next((line.split(" - ")[0] for line in run.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), f"exit {run.returncode}")
    return run.returncode == 0, seconds, first


def _source(tree: Path, mutant: Mutant) -> Path:
    return tree / "src" / "tietze" / mutant.file


def main() -> int:
    unfound = [m.name for m in MUTANTS
               if _source(ROOT, m).read_text(encoding="utf-8").count(m.old) != 1]
    if unfound:
        print(f"text not found exactly once: {', '.join(unfound)}", flush=True)
        return 2
    with tempfile.TemporaryDirectory(prefix="tietze-mutants-") as tmp:
        base = Path(tmp, "base")
        _copy_tree(base)
        passed, seconds, first = _tier1(base)
        verdict = "passed" if passed else f"FAILED, {first}"
        print(f"unmutated  {verdict}  {seconds:6.1f} s", flush=True)
        if not passed:
            return 2
        status = 0
        for mutant in MUTANTS:
            tree = Path(tmp, mutant.name)
            _copy_tree(tree)
            path = _source(tree, mutant)
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                            encoding="utf-8")
            survived, seconds, first = _tier1(tree)
            shutil.rmtree(tree)
            if survived:
                verdict = "survived (equivalent)" if mutant.equivalent else "SURVIVED"
                first = mutant.equivalent or mutant.breaks
            else:
                verdict = "KILLED, listed as equivalent" if mutant.equivalent else "killed"
            print(f"{mutant.name}  {verdict}  {seconds:6.1f} s  {first}", flush=True)
            if survived != bool(mutant.equivalent):
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

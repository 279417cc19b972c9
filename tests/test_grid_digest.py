"""Byte identity of every (strategy, policy) run on two seeded inputs.

One digest covers the output file and the ``--stats`` report (without
``timings_ms``) of ``tietze simplify`` for each ``STRATEGIES`` entry under
each ``POLICY_NAMES`` entry.  A change meant to keep outputs and counters
as they are must keep this digest; a change that moves them on purpose
says so and pins the new value.
"""

import hashlib
import json
import random

from helpers import squares_words
from tietze.cli import main
from tietze.presentation import make_presentation, serialize_presentation
from tietze.randgen import random_presentation
from tietze.skip import POLICY_NAMES
from tietze.strategies import STRATEGIES

GRID_DIGEST = "c02e5ef3fd4c2974215760bab6bbbc17be12844d94e0d80532b5bef994f718d6"


def strategy_flags(name: str) -> list[str]:
    """The CLI flags that select the registry entry ``name``."""
    match, bloom_bits, automata = STRATEGIES[name].flags
    flags = ["--match", match]
    if match == "kr-bloom":
        # small tables keep the grid fast and make false Bloom hits likely
        flags += ["--bloom-bits", str(bloom_bits), "--bloom-log2", "10"]
    if match == "automaton":
        flags += ["--automata", automata]
    return flags


def grid_inputs() -> dict[str, str]:
    # long patterns over 2 generators: thresholds well above 16 symbols
    long_pattern = random_presentation(random.Random(41), 2, 10, 56, "small-alphabet-long")
    d, words = squares_words(random.Random(40), d_max=5, q_max=12, l_max=30)
    return {"small-alphabet-long": serialize_presentation(long_pattern),
            "involutions": serialize_presentation(make_presentation(d, words))}


def test_strategy_policy_grid_digest(tmp_path):
    digest = hashlib.sha256()
    out, stats = tmp_path / "out.pres", tmp_path / "stats.json"
    for label, text in grid_inputs().items():
        inp = tmp_path / f"{label}.pres"
        inp.write_text(text)
        for name in STRATEGIES:
            for policy in POLICY_NAMES:
                argv = ["simplify", str(inp), "-o", str(out), "--stats", str(stats),
                        "--skip", policy, "--seed", "3", *strategy_flags(name)]
                assert main(argv) == 0
                report = json.loads(stats.read_text())
                del report["timings_ms"]
                digest.update(f"{label} {name} {policy}\n".encode())
                digest.update(out.read_bytes())
                digest.update(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == GRID_DIGEST

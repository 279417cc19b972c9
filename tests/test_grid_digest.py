"""Byte identity of every (strategy, policy) run on four inputs.

Two digests cover ``tietze simplify`` for each ``STRATEGIES`` entry under
each ``POLICY_NAMES`` entry.  ``GRID_DIGEST`` covers the output file and
the ``--stats`` report without ``timings_ms`` and ``counters``;
``COUNTERS_DIGEST`` covers the report's ``counters``, the strategies' work
counts.  A change meant to keep outputs and counters as they are must keep
both digests; a change that moves either on purpose says so and pins the
new value.  Some counters (the ``signature`` hash's) read label values, so
a change of internal labelling can move ``COUNTERS_DIGEST`` alone.
"""

import hashlib
import json
import random
from pathlib import Path

from helpers import squares_words
from tietze.cli import main
from tietze.presentation import make_presentation, serialize_presentation
from tietze.randgen import random_presentation, random_reduced_word
from tietze.skip import POLICY_NAMES
from tietze.strategies import STRATEGIES

GRID_DIGEST = "58df3d1a67d7f17653549d4cc08fff0e2cc7b88451b692ff9415868823a7e9ff"
COUNTERS_DIGEST = "2c64f92800afb88d4cbffb2aa4864f771e00c3ad12c77ece1fa06236283f7244"


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
    # short random relators on 4 generators, as on the benchmark's dense
    # workload: about 8.5k rewrites over the grid
    rng = random.Random(42)
    dense = [random_reduced_word(rng, 4, rng.randint(6, 16)) for _ in range(40)]
    # obfuscated F(2,7), as on the benchmark's eliminate workload: about
    # 1.7k long eliminations over the grid, 94% of them of a lonely generator
    obfuscated = Path(__file__).parent / "data" / "fibonacci_2_7_obfuscated_67.pres"
    return {"small-alphabet-long": serialize_presentation(long_pattern),
            "involutions": serialize_presentation(make_presentation(d, words)),
            "dense": serialize_presentation(make_presentation(4, dense)),
            "obfuscated": obfuscated.read_text()}


def test_strategy_policy_grid_digest(tmp_path):
    digest, counters = hashlib.sha256(), hashlib.sha256()
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
                key = f"{label} {name} {policy}\n".encode()
                counters.update(key)
                counters.update(json.dumps(report.pop("counters"), sort_keys=True).encode())
                digest.update(key)
                digest.update(out.read_bytes())
                digest.update(json.dumps(report, sort_keys=True).encode())
    assert (digest.hexdigest(), counters.hexdigest()) == (GRID_DIGEST, COUNTERS_DIGEST)

"""Byte identity of every (strategy, policy) run on four inputs.

Two digests cover ``tietze simplify`` for each ``STRATEGIES`` entry under
each ``POLICY_NAMES`` entry.  ``GRID_DIGEST`` covers the output file and
the ``--stats`` report without ``timings_ms`` and ``counters``;
``COUNTERS_DIGEST`` covers the report's ``counters``, the strategies' work
counts.  A change meant to keep outputs and counters as they are must keep
both digests; a change that moves either on purpose says so and pins the
new value.  Some counters (the ``signature`` hash's) read label values, so
a change of internal labelling can move ``COUNTERS_DIGEST`` alone.

``OUTPUT_DIGEST`` covers the output files alone: those of the grid, and
those of 300-relator presentations like the benchmark's dense workload
under every policy.  A change of which searches run, or in which order,
moves the first two digests but must keep this one.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from helpers import squares_words
from tietze.cli import main
from tietze.engine import EngineConfig, simplify
from tietze.presentation import make_presentation, serialize_presentation
from tietze.randgen import random_presentation, random_reduced_word
from tietze.skip import POLICY_NAMES
from tietze.strategies import STRATEGIES

GRID_DIGEST = "7c128aca029c54310709127f140c9b9ca984425b3fe638df33ba0774b64efb02"
COUNTERS_DIGEST = "c7125e890fce504a7bc92aff57bc69ade98518b4155a77a4f3e9421e202f1cc4"
OUTPUT_DIGEST = "2660781a4725861a280226d60c5fa69207d568975a4ba592e332ff43a1699753"


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


@pytest.fixture(scope="module")
def grid_digests(tmp_path_factory):
    """The grid's (stats digest, counters digest, output-files hash)."""
    tmp_path = tmp_path_factory.mktemp("grid")
    digest, counters, outputs = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
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
                outputs.update(key)
                outputs.update(out.read_bytes())
    return digest.hexdigest(), counters.hexdigest(), outputs


def test_strategy_policy_grid_digest(grid_digests):
    assert grid_digests[:2] == (GRID_DIGEST, COUNTERS_DIGEST)


def test_output_files_alone_digest(grid_digests):
    # the grid's outputs, then three 300-relator presentations on 4
    # generators, as on the benchmark's dense workload, under every policy
    outputs = grid_digests[2].copy()
    rng = random.Random(300)
    for n in range(3):
        words = [random_reduced_word(rng, 4, rng.randint(6, 16)) for _ in range(300)]
        for name in ("automaton-two", "brute"):
            for policy in POLICY_NAMES:
                pres, _ = simplify(make_presentation(4, words),
                                   EngineConfig(match_strategy=name, skip_policy=policy))
                outputs.update(f"dense-300 {n} {name} {policy}\n".encode())
                outputs.update(serialize_presentation(pres).encode())
    assert outputs.hexdigest() == OUTPUT_DIGEST

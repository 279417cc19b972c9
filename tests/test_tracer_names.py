"""The module-level names the benchmark's tracer wraps must stay live.

``perfbench/tracer.py`` replaces names in the program's modules and counts
the calls that reach its wrappers.  A name that is renamed, or bound once
at import time instead of looked up at call time, silently reads 0.
"""

import importlib.util
from pathlib import Path

from tietze import cli, engine, presentation, strategies

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_called(tmp_path):
    tracer_mod = load_tracer()
    inp = str(tmp_path / "in.pres")
    assert cli.main(["gen", "--gens", "3", "--rels", "20", "--maxlen", "40", "--seed", "3",
                     "--profile", "small-alphabet-long", "-o", inp]) == 0
    tracer = tracer_mod.Tracer()
    tracer.install({"cli": cli, "engine": engine, "presentation": presentation,
                    "strategies": strategies})
    # every --match choice: brute, signature, kr-hash, kr-bloom, automaton
    matches = tuple(dict.fromkeys(spec.flags[0] for spec in strategies.STRATEGIES.values()))
    index_builds = {}
    try:
        for match in matches:
            before = tracer.layer_calls("fingerprint.index_build")
            out = str(tmp_path / f"{match}.pres")
            assert cli.main(["simplify", inp, "-o", out, "--match", match]) == 0
            index_builds[match] = tracer.layer_calls("fingerprint.index_build") - before
    finally:
        tracer.uninstall()
    layers = {layer for _, _, layer in tracer_mod.TRACED_NAMES} | {"match.search"}
    uncalled = sorted(layer for layer in layers if tracer.layer_calls(layer) == 0)
    assert uncalled == []
    assert len(tracer.reorders) == len(matches)  # the simplify shim saw every run
    # both backings build their indexes through the traced name
    assert index_builds["kr-hash"] > 0 and index_builds["kr-bloom"] > 0

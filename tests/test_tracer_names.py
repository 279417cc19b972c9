"""The module-level names the benchmark's tracer wraps must stay live.

``perfbench/tracer.py`` replaces names in the program's modules and counts
the calls that reach its wrappers.  A name that is renamed, or bound once
at import time instead of looked up at call time, silently reads 0.
"""

import importlib.util
import json
from pathlib import Path

from tietze import cli, engine, presentation, strategies

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_called(tmp_path, monkeypatch):
    tracer_mod = load_tracer()
    inp = str(tmp_path / "in.pres")
    assert cli.main(["gen", "--gens", "3", "--rels", "20", "--maxlen", "40", "--seed", "3",
                     "--profile", "small-alphabet-long", "-o", inp]) == 0
    # a rotated copy of the first relator shares its duplicate key, so
    # duplicate removal builds canonical forms (words.canonical)
    with open(inp, encoding="utf-8") as f:
        first = next(line.split()[1:] for line in f if line.startswith("rel "))
    with open(inp, "a", encoding="utf-8") as f:
        f.write(f"rel {' '.join(first[1:] + first[:1])}\n")
    # pattern loops that can search: every position of a pass but the last
    loops = [0]
    run_pass = engine.run_pass

    def counting_run_pass(pres, *args):
        loops[0] += len(pres.rel) - 1
        return run_pass(pres, *args)

    monkeypatch.setattr(engine, "run_pass", counting_run_pass)
    tracer = tracer_mod.Tracer()
    tracer.install({"cli": cli, "engine": engine, "presentation": presentation,
                    "strategies": strategies})
    # every --match choice: brute, signature, kr-hash, kr-bloom, automaton
    # (the default --automata two), then the automaton with --automata one
    runs = {match: ["--match", match] for match in
            dict.fromkeys(spec.flags[0] for spec in strategies.STRATEGIES.values())}
    runs["automaton-one"] = ["--match", "automaton", "--automata", "one"]
    counted = ("fingerprint.index_build", "automaton.build", "match.search")
    calls, searches = {}, {}
    try:
        for name, flags in runs.items():
            before = [tracer.layer_calls(layer) for layer in counted]
            loops[0] = 0
            out, stats = str(tmp_path / f"{name}.pres"), tmp_path / f"{name}.json"
            assert cli.main(["simplify", inp, "-o", out, "--stats", str(stats), *flags]) == 0
            calls[name] = [tracer.layer_calls(layer) - b for layer, b in zip(counted, before)]
            searches[name] = (json.loads(stats.read_text())["stats"]["searches_performed"],
                              loops[0])
    finally:
        tracer.uninstall()
    layers = {layer for _, _, layer in tracer_mod.TRACED_NAMES} | {"match.search"}
    uncalled = sorted(layer for layer in layers if tracer.layer_calls(layer) == 0)
    assert uncalled == []
    assert len(tracer.reorders) == len(runs)  # the simplify shim saw every run
    # both backings build their indexes through the traced name, and so do
    # both automaton modes
    assert calls["kr-hash"][0] > 0 and calls["kr-bloom"][0] > 0
    assert calls["automaton"][1] > 0 and calls["automaton-one"][1] > 0
    # the match level gets one call per pattern loop with searchable texts,
    # through the name the tracer wraps, so the calls number fewer than the
    # searches they carry
    for name, (performed, pattern_loops) in searches.items():
        batches = calls[name][2]
        assert 0 < batches <= pattern_loops, (name, batches, pattern_loops)
        assert batches < performed, (name, batches, performed)

import hashlib
import json
from pathlib import Path

import pytest

from tietze.cli import main
from tietze.presentation import parse_presentation


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_simplify_roundtrip(tmp_path, capsys):
    inp = write(tmp_path, "in.pres", "gens 2\nrelw b\nrelw abab\n")
    out = str(tmp_path / "out.pres")
    stats = str(tmp_path / "stats.json")
    code = main(["simplify", inp, "-o", out, "--match", "kr-bloom",
                 "--skip", "ts-sorted", "--seed", "7", "--stats", stats])
    assert code == 0
    assert (tmp_path / "out.pres").read_text() == "gens 1\nrel 1 1\n"
    rep = json.loads((tmp_path / "stats.json").read_text())
    s, c = rep["stats"], rep["counters"]
    assert s["searches_performed"] + s["searches_skipped"] == s["pairs_considered"]
    assert c["filter_hits"] == c["fingerprint_matches"] + c["bloom_false_hits"]
    assert rep["config"]["match_strategy"] == "kr-bloom3"
    assert rep["config"]["seed"] == 7


def test_simplify_writes_stdout_by_default(tmp_path, capsys):
    inp = write(tmp_path, "in.pres", "gens 2\nrel 1 2\n")
    assert main(["simplify", inp]) == 0
    assert capsys.readouterr().out == "gens 1\n"


def test_simplify_deterministic_output(tmp_path):
    inp = write(tmp_path, "in.pres", "gens 3\nrel 1 2 3 1 2\nrel 2 3 1\nrel 3 3 2\n")
    outs = []
    for i in (1, 2):
        out = str(tmp_path / f"out{i}.pres")
        assert main(["simplify", inp, "-o", out, "--seed", "11"]) == 0
        outs.append((tmp_path / f"out{i}.pres").read_text())
    assert outs[0] == outs[1]


def test_missing_input_is_io_error(tmp_path, capsys):
    assert main(["simplify", str(tmp_path / "absent.pres")]) == 1
    assert "error" in capsys.readouterr().err


def test_parse_error_reports_line(tmp_path, capsys):
    inp = write(tmp_path, "bad.pres", "gens 1\nrel 2\n")
    assert main(["simplify", inp]) == 1
    assert "line 2" in capsys.readouterr().err


def test_invalid_flag_combination(tmp_path, capsys):
    inp = write(tmp_path, "in.pres", "gens 2\nrel 1 2\n")
    for command in ("simplify", "bench"):
        assert main([command, inp, "--match", "brute", "--bloom-bits", "3"]) == 2
        assert main([command, inp, "--match", "brute", "--bloom-bits", "4"]) == 2
        assert main([command, inp, "--match", "brute", "--automata", "one"]) == 2
    # the grid runs every strategy, so the flags that pick one are rejected;
    # --bloom-log2 still shapes the grid's Bloom runs
    assert main(["bench", inp, "--all-strategies", "--bloom-bits", "4"]) == 2
    assert main(["bench", inp, "--all-strategies", "--automata", "one"]) == 2
    assert main(["bench", inp, "--all-strategies", "--bloom-log2", "10"]) == 0


def test_usage_error_exit_code():
    assert main(["simplify"]) == 2
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("flags", [
    ["--growth-limit", "0.5"],
    ["--growth-limit", "nan"],
    ["--max-passes", "0"],
    ["--match", "kr-bloom", "--bloom-log2", "2"],
    ["--match", "kr-bloom", "--bloom-log2", "31"],
])
def test_bad_flag_value_is_usage_error(tmp_path, capsys, flags):
    # the input collapses without a single search, so only up-front
    # validation can catch a bad value
    inp = write(tmp_path, "in.pres", "gens 2\nrel 1\n")
    for command in ("simplify", "bench"):
        assert main([command, inp, *flags]) == 2
        # the configuration is checked before the input is read
        assert main([command, str(tmp_path / "absent.pres"), *flags]) == 2
    assert "usage:" in capsys.readouterr().err


def test_automaton_flag_reflected_in_stats(tmp_path):
    inp = write(tmp_path, "in.pres", "gens 2\nrel 1 2 1 2 2\nrel 2 1 2\n")
    stats = str(tmp_path / "s.json")
    code = main(["simplify", inp, "--match", "automaton", "--automata", "one",
                 "--stats", stats])
    assert code == 0
    rep = json.loads((tmp_path / "s.json").read_text())
    assert rep["config"]["match_strategy"] == "automaton-one"


def test_gen_deterministic_and_valid(tmp_path):
    a = str(tmp_path / "a.pres")
    b = str(tmp_path / "b.pres")
    args = ["gen", "--gens", "4", "--rels", "6", "--maxlen", "20", "--seed", "3"]
    assert main(args + ["-o", a]) == 0
    assert main(args + ["-o", b]) == 0
    assert (tmp_path / "a.pres").read_text() == (tmp_path / "b.pres").read_text()
    p = parse_presentation((tmp_path / "a.pres").read_text())
    assert p.d == 4 and len(p.rel) == 6


def test_gen_stress_profile(tmp_path):
    out = str(tmp_path / "stress.pres")
    assert main(["gen", "--gens", "4", "--rels", "5", "--maxlen", "600",
                 "--seed", "1", "--profile", "small-alphabet-long", "-o", out]) == 0
    p = parse_presentation((tmp_path / "stress.pres").read_text())
    assert p.d == 4
    assert all(len(r.word) >= 540 for r in p.rel)


def test_gen_zero_relators(tmp_path, capsys):
    assert main(["gen", "--gens", "3", "--rels", "0", "--maxlen", "5"]) == 0
    assert capsys.readouterr().out == "gens 3\n"


def test_verify_accepts_simplified_output(tmp_path, capsys):
    inp = write(tmp_path, "in.pres", "gens 2\nrel 1 1 2\nrel 2 2 2 1\n")
    out = str(tmp_path / "out.pres")
    assert main(["simplify", inp, "-o", out]) == 0
    assert main(["verify", inp, out]) == 0
    assert main(["verify", inp, inp]) == 0


def test_verify_accepts_collapsed_output(tmp_path, capsys):
    # a = b^-1 and b = c, so a.c.c = b collapses the group
    inp = write(tmp_path, "in.pres", "gens 3\nrel 1 2\nrel 2 -3\nrel 1 3 3\n")
    out = str(tmp_path / "out.pres")
    assert main(["simplify", inp, "-o", out]) == 0
    assert (tmp_path / "out.pres").read_text() == "gens 0\n"
    assert main(["verify", inp, out]) == 0
    assert main(["verify", out, out]) == 0


def test_kr_hash_golden_output(tmp_path):
    """Output and counters of kr-hash on a motif presentation, pinned."""
    inp = str(tmp_path / "in.pres")
    out = str(tmp_path / "out.pres")
    stats = str(tmp_path / "stats.json")
    assert main(["gen", "--gens", "3", "--rels", "40", "--maxlen", "60", "--seed", "3",
                 "--profile", "small-alphabet-long", "-o", inp]) == 0
    assert main(["simplify", inp, "-o", out, "--match", "kr-hash", "--stats", stats]) == 0
    digest = hashlib.sha256((tmp_path / "out.pres").read_bytes()).hexdigest()
    assert digest == "a0cf30a960e092bcdd45a7498713a5ea0bfc0cca9f9308a6becf0b49bc03afab"
    rep = json.loads((tmp_path / "stats.json").read_text())
    assert rep["stats"] == {
        "pairs_considered": 2820, "searches_performed": 1101, "searches_skipped": 1719,
        "searches_successful": 83, "short_elims": 0, "long_elims": 0, "passes": 5,
        "total_length_before": 2282, "total_length_after": 1678, "gens_before": 3,
        "gens_after": 3, "rels_before": 40, "rels_after": 40,
    }
    assert rep["counters"] == {
        "windows_scanned": 46837, "filter_hits": 83, "fingerprint_matches": 83,
        "fingerprint_false_matches": 0, "bloom_false_hits": 0, "confirmations": 83,
        "successes": 83, "automata_built": 0,
    }



def test_automaton_golden_output(tmp_path):
    """Output and counters of automaton-two with ts-unsorted, pinned."""
    inp = str(tmp_path / "in.pres")
    out = str(tmp_path / "out.pres")
    stats = str(tmp_path / "stats.json")
    assert main(["gen", "--gens", "3", "--rels", "40", "--maxlen", "60", "--seed", "3",
                 "--profile", "small-alphabet-long", "-o", inp]) == 0
    assert main(["simplify", inp, "-o", out, "--match", "automaton", "--automata", "two",
                 "--skip", "ts-unsorted", "--stats", stats]) == 0
    digest = hashlib.sha256((tmp_path / "out.pres").read_bytes()).hexdigest()
    assert digest == "77eb9e58250bff107b76cd2205349e7d1b3362797cfb094c49382fb83338d6ab"
    rep = json.loads((tmp_path / "stats.json").read_text())
    assert rep["stats"] == {
        "pairs_considered": 2229, "searches_performed": 1031, "searches_skipped": 1198,
        "searches_successful": 79, "short_elims": 0, "long_elims": 0, "passes": 3,
        "total_length_before": 2282, "total_length_after": 1679, "gens_before": 3,
        "gens_after": 3, "rels_before": 40, "rels_after": 40,
    }
    assert rep["counters"] == {
        "windows_scanned": 125326, "filter_hits": 0, "fingerprint_matches": 0,
        "fingerprint_false_matches": 0, "bloom_false_hits": 0, "confirmations": 0,
        "successes": 79, "automata_built": 154,
    }


def test_brute_golden_output(tmp_path):
    """Output and counters of the CLI defaults (brute, ts-sorted), pinned."""
    inp = str(Path(__file__).parent / "data" / "fibonacci_2_7_obfuscated_67.pres")
    out = str(tmp_path / "out.pres")
    stats = str(tmp_path / "stats.json")
    assert main(["simplify", inp, "-o", out, "--stats", stats]) == 0
    digest = hashlib.sha256((tmp_path / "out.pres").read_bytes()).hexdigest()
    assert digest == "49397b2bbdc0ff3fe976da9b737e28243d90d300cd4afbb4c138488def7e4b50"
    rep = json.loads((tmp_path / "stats.json").read_text())
    assert rep["config"]["match_strategy"] == "brute"
    assert rep["stats"] == {
        "pairs_considered": 54144, "searches_performed": 4797, "searches_skipped": 49347,
        "searches_successful": 131, "short_elims": 2, "long_elims": 62, "passes": 69,
        "total_length_before": 1167, "total_length_after": 19, "gens_before": 67,
        "gens_after": 3, "rels_before": 67, "rels_after": 3,
    }
    assert rep["counters"] == {
        "windows_scanned": 58205, "filter_hits": 0, "fingerprint_matches": 0,
        "fingerprint_false_matches": 0, "bloom_false_hits": 0, "confirmations": 0,
        "successes": 131, "automata_built": 0,
    }


@pytest.mark.parametrize("flags, windows_scanned, filter_hits", [
    (["--match", "signature"], 38039, 0),
    (["--match", "kr-bloom", "--bloom-bits", "3"], 58235, 131),
])
def test_label_sensitive_golden_output(tmp_path, flags, windows_scanned, filter_hits):
    """signature and kr-bloom3 hash generator labels, so their counters
    would move if an elimination renumbered generators differently."""
    inp = str(Path(__file__).parent / "data" / "fibonacci_2_7_obfuscated_67.pres")
    out = str(tmp_path / "out.pres")
    stats = str(tmp_path / "stats.json")
    assert main(["simplify", inp, "-o", out, "--skip", "ts-sorted", "--stats", stats] + flags) == 0
    digest = hashlib.sha256((tmp_path / "out.pres").read_bytes()).hexdigest()
    assert digest == "49397b2bbdc0ff3fe976da9b737e28243d90d300cd4afbb4c138488def7e4b50"
    rep = json.loads((tmp_path / "stats.json").read_text())
    assert rep["stats"] == {
        "pairs_considered": 54144, "searches_performed": 4797, "searches_skipped": 49347,
        "searches_successful": 131, "short_elims": 2, "long_elims": 62, "passes": 69,
        "total_length_before": 1167, "total_length_after": 19, "gens_before": 67,
        "gens_after": 3, "rels_before": 67, "rels_after": 3,
    }
    assert rep["counters"] == {
        "windows_scanned": windows_scanned, "filter_hits": filter_hits,
        "fingerprint_matches": filter_hits, "fingerprint_false_matches": 0,
        "bloom_false_hits": 0, "confirmations": filter_hits, "successes": 131,
        "automata_built": 0,
    }


def test_verify_detects_mismatch(tmp_path, capsys):
    a = write(tmp_path, "a.pres", "gens 1\nrel 1 1\n")
    b = write(tmp_path, "b.pres", "gens 1\nrel 1 1 1\n")
    assert main(["verify", a, b]) == 3
    out = capsys.readouterr()
    assert "torsion=[2]" in out.out and "torsion=[3]" in out.out


def test_bench_all_skip_dominance_and_report(tmp_path, capsys):
    inp = write(tmp_path, "in.pres",
                "gens 3\nrel 1 2 3 1 2\nrel 2 3 1\nrel 3 3 2\nrel 1 2 3\n")
    stats = str(tmp_path / "bench.json")
    code = main(["bench", inp, "--all-skip", "--stats", stats, "--seed", "5"])
    assert code == 0
    table = capsys.readouterr().out
    assert "ts-sorted" in table and "all-pairs" in table
    rep = json.loads((tmp_path / "bench.json").read_text())
    assert rep["dominance_violations"] == []
    assert len(rep["reports"]) == 4
    for r in rep["reports"]:
        s = r["stats"]
        assert s["searches_performed"] + s["searches_skipped"] == s["pairs_considered"]


def test_bench_all_strategies(tmp_path):
    inp = write(tmp_path, "in.pres", "gens 3\nrel 1 2 3 1 2\nrel 2 3 1\nrel 3 3 2\n")
    stats = str(tmp_path / "bench.json")
    assert main(["bench", inp, "--all-strategies", "--all-skip", "--stats", stats]) == 0
    rep = json.loads((tmp_path / "bench.json").read_text())
    # the grid's order and every config key, in key order
    strategies = [("brute", 3, "two"), ("signature", 3, "two"), ("kr-hash", 3, "two"),
                  ("kr-bloom3", 3, "two"), ("kr-bloom4", 4, "two"),
                  ("automaton-two", 3, "two"), ("automaton-one", 3, "one")]
    expected = [[("match_strategy", name), ("skip_policy", skip), ("bloom_bits", bits),
                 ("bloom_log2_size", 16), ("automata", automata),
                 ("long_elim_enabled", True), ("growth_limit", 1.5), ("max_passes", 100),
                 ("seed", 0)]
                for name, bits, automata in strategies
                for skip in ("all-pairs", "flags", "ts-sorted", "ts-unsorted")]
    assert [list(r["config"].items()) for r in rep["reports"]] == expected


def test_bench_single_configuration_degenerates(tmp_path):
    inp = write(tmp_path, "in.pres", "gens 2\nrel 1 2 1\nrel 2 1 1 2\n")
    stats = str(tmp_path / "bench.json")
    assert main(["bench", inp, "--stats", stats]) == 0
    rep = json.loads((tmp_path / "bench.json").read_text())
    assert len(rep["reports"]) == 1
    assert rep["dominance_violations"] == []

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from tietze import cli
from tietze.cli import main
from tietze.presentation import make_presentation, parse_presentation, serialize_presentation
from tietze.randgen import random_reduced_word
from tietze.verify import abelian_invariants


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


def test_simplify_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    f = tmp_path / "bom.pres"
    f.write_text("gens 2\nrel 1 2\n", encoding="utf-8-sig")
    assert f.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["simplify", str(f)]) == 0
    assert capsys.readouterr().out == "gens 1\n"


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


COMMANDS = ("simplify", "bench", "gen", "verify")
OWN_FLAGS = {
    "simplify": ("input", "--output", "--match", "--stats"),
    "bench": ("input", "--all-strategies", "--all-skip", "--match", "--stats"),
    "gen": ("--gens", "--rels", "--maxlen", "--profile", "--output"),
    "verify": ("first", "second"),
}


def test_usage_error_exit_code(capsys):
    assert main(["simplify"]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    # an unknown subcommand is told every choice
    err = capsys.readouterr().err
    assert "invalid choice" in err and "frobnicate" in err
    assert all(name in err.split("invalid choice")[1] for name in COMMANDS), err


def test_top_level_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: tietze [-h] {simplify,bench,gen,verify} ...")
    assert all(f"\n    {name} " in out for name in COMMANDS), out


@pytest.mark.parametrize("command", COMMANDS)
def test_each_subcommand_help_shows_its_own_flags(capsys, command):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: tietze {command} [-h]")
    assert all(flag in out for flag in OWN_FLAGS[command])
    others = {f for flags in OWN_FLAGS.values() for f in flags if f.startswith("--")}
    assert not any(f in out for f in others - set(OWN_FLAGS[command])), out


def test_a_run_builds_only_its_own_subparser(tmp_path, capsys, monkeypatch):
    # each call builds a parser of its own; a top-level usage error still
    # lists every subcommand
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def recording(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
    inp = write(tmp_path, "in.pres", "gens 2\nrel 1 2\n")
    for command in COMMANDS:
        main([command, "--help"])
        assert built == [command]
        built.clear()
    assert main(["simplify", inp]) == 0 and main(["simplify", inp]) == 0
    assert built == ["simplify", "simplify"]
    capsys.readouterr()
    assert main(["simplify", inp, "extra"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tietze [-h] {simplify,bench,gen,verify} ...")
    assert "unrecognized arguments: extra" in err


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    inp = write(tmp_path, "in.pres", "gens 2\nrel 1 2\n")
    monkeypatch.setattr(sys, "argv", ["tietze", "simplify", inp])
    assert main() == 0
    assert capsys.readouterr().out == "gens 1\n"
    monkeypatch.setattr(sys, "argv", ["tietze"])
    assert main() == 2
    assert "required: command" in capsys.readouterr().err


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


@pytest.mark.parametrize("flags", [
    ["--gens", "0", "--rels", "3", "--maxlen", "5"],
    ["--gens", "2", "--rels", "-1", "--maxlen", "5"],
    ["--gens", "2", "--rels", "3", "--maxlen", "0"],
])
def test_bad_gen_value_is_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "out.pres"
    assert main(["gen", *flags, "-o", str(out)]) == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["simplify", "IN", "--match", "brute", "--bloom-bits", "3"],
    ["simplify", "IN", "--max-passes", "0"],
    ["gen", "--gens", "3", "--rels", "2", "--maxlen", "3", "--profile", "small-alphabet-long"],
])
def test_usage_errors_after_parsing_show_the_subcommand_usage(tmp_path, capsys, args):
    # like argparse's own errors (an unknown --match), checks made after
    # parsing print the usage of the subcommand, not of the top level
    inp = write(tmp_path, "in.pres", "gens 2\nrel 1\n")
    args = [inp if a == "IN" else a for a in args]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: tietze {args[0]} ")
    assert f"\ntietze {args[0]}: error: " in err
    assert main([args[0], "--match", "nope"] if args[0] == "simplify" else [args[0]]) == 2
    assert capsys.readouterr().err.startswith(f"usage: tietze {args[0]} ")


def test_gen_small_alphabet_long_needs_maxlen_4(tmp_path, capsys):
    out = tmp_path / "out.pres"
    args = ["gen", "--gens", "3", "--rels", "2", "--profile", "small-alphabet-long"]
    assert main([*args, "--maxlen", "3", "-o", str(out)]) == 2
    assert "small-alphabet-long needs maxlen >= 4" in capsys.readouterr().err
    assert not out.exists()
    assert main([*args, "--maxlen", "4", "-o", str(out)]) == 0
    assert all(len(r.word) == 4 for r in parse_presentation(out.read_text()).rel)


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
        "pairs_considered": 2040, "searches_performed": 1101, "searches_skipped": 939,
        "searches_successful": 83, "short_elims": 0, "long_elims": 0, "passes": 4,
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
        "pairs_considered": 1449, "searches_performed": 1031, "searches_skipped": 418,
        "searches_successful": 79, "short_elims": 0, "long_elims": 0, "passes": 2,
        "total_length_before": 2282, "total_length_after": 1679, "gens_before": 3,
        "gens_after": 3, "rels_before": 40, "rels_after": 40,
    }
    assert rep["counters"] == {
        "windows_scanned": 64590, "filter_hits": 0, "fingerprint_matches": 0,
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
        "pairs_considered": 11446, "searches_performed": 4578, "searches_skipped": 6868,
        "searches_successful": 130, "short_elims": 2, "long_elims": 62, "passes": 12,
        "total_length_before": 1167, "total_length_after": 19, "gens_before": 67,
        "gens_after": 3, "rels_before": 67, "rels_after": 3,
    }
    assert rep["counters"] == {
        "windows_scanned": 59069, "filter_hits": 0, "fingerprint_matches": 0,
        "fingerprint_false_matches": 0, "bloom_false_hits": 0, "confirmations": 0,
        "successes": 130, "automata_built": 0,
    }


def test_the_pass_budget_is_not_spent_on_idle_passes(tmp_path):
    """A long elimination that only drops a lonely generator's relator
    leaves no pass to run.  When such rounds still ran one pass each, the
    CLI defaults spent all 100 passes on this input and ended at 6
    generators and total length 517."""
    inp = str(Path(__file__).parent / "data" / "fibonacci_2_7_obfuscated_127.pres")
    out = tmp_path / "out.pres"
    stats = tmp_path / "stats.json"
    assert main(["simplify", inp, "-o", str(out), "--stats", str(stats)]) == 0
    pres = parse_presentation(out.read_text())
    assert pres.d <= 3 and pres.total_length() <= 22
    assert abelian_invariants(pres) == ([29], 0)
    assert json.loads(stats.read_text())["stats"]["passes"] < 100


@pytest.mark.parametrize("flags, windows_scanned, filter_hits", [
    (["--match", "signature"], 39395, 0),
    (["--match", "kr-bloom", "--bloom-bits", "3"], 59100, 130),
])
def test_label_sensitive_golden_output(tmp_path, flags, windows_scanned, filter_hits):
    """signature and kr-bloom3 hash generator labels, so their counters
    move if eliminations label generators differently: labels stay fixed
    during the run and are compacted once at its end."""
    inp = str(Path(__file__).parent / "data" / "fibonacci_2_7_obfuscated_67.pres")
    out = str(tmp_path / "out.pres")
    stats = str(tmp_path / "stats.json")
    assert main(["simplify", inp, "-o", out, "--skip", "ts-sorted", "--stats", stats] + flags) == 0
    digest = hashlib.sha256((tmp_path / "out.pres").read_bytes()).hexdigest()
    assert digest == "49397b2bbdc0ff3fe976da9b737e28243d90d300cd4afbb4c138488def7e4b50"
    rep = json.loads((tmp_path / "stats.json").read_text())
    assert rep["stats"] == {
        "pairs_considered": 11446, "searches_performed": 4578, "searches_skipped": 6868,
        "searches_successful": 130, "short_elims": 2, "long_elims": 62, "passes": 12,
        "total_length_before": 1167, "total_length_after": 19, "gens_before": 67,
        "gens_after": 3, "rels_before": 67, "rels_after": 3,
    }
    assert rep["counters"] == {
        "windows_scanned": windows_scanned, "filter_hits": filter_hits,
        "fingerprint_matches": filter_hits, "fingerprint_false_matches": 0,
        "bloom_false_hits": 0, "confirmations": filter_hits, "successes": 130,
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


def _n75(tmp_path):
    """75 random relators on 5 generators, lengths 6-16.

    75 such relators on 4 generators collapse in two passes, each ended
    early by a rewrite that leaves a relator eliminable, and ts-unsorted,
    which marks every relator such a pass did not reach, skips nothing
    there; on 5 generators it skips searches."""
    rng = random.Random(4075)
    words = [random_reduced_word(rng, 5, rng.randint(6, 16)) for _ in range(75)]
    return write(tmp_path, "n75.pres", serialize_presentation(make_presentation(5, words)))


def test_bench_all_skip_accepts_policies_that_search_more_than_flags(tmp_path, capsys):
    # ts-sorted searches more than flags and all-pairs here (it re-inserts
    # shortened texts mid-pass), and flags is lossy: neither is a violation
    stats = str(tmp_path / "bench.json")
    assert main(["bench", _n75(tmp_path), "--match", "kr-hash", "--all-skip",
                 "--stats", stats]) == 0
    rep = json.loads((tmp_path / "bench.json").read_text())
    s = {r["config"]["skip_policy"]: r["stats"]["searches_performed"] for r in rep["reports"]}
    assert s["ts-sorted"] > s["all-pairs"] and s["ts-sorted"] > s["flags"]
    assert s["ts-unsorted"] < s["all-pairs"]
    assert rep["dominance_violations"] == []
    assert "dominance violation" not in capsys.readouterr().err


def test_bench_all_skip_reports_a_ts_unsorted_mismatch(tmp_path, capsys, monkeypatch):
    simplify = cli.simplify

    def skewed(pres, cfg):
        pres, stats = simplify(pres, cfg)
        if cfg.skip_policy == "ts-unsorted":
            stats.passes += 1
            stats.searches_performed = 10**6
        return pres, stats

    monkeypatch.setattr(cli, "simplify", skewed)
    inp = write(tmp_path, "in.pres", "gens 3\nrel 1 2 3 1 2\nrel 2 3 1\nrel 3 3 2\n")
    stats = str(tmp_path / "bench.json")
    assert main(["bench", inp, "--all-skip", "--stats", stats]) == 3
    expected = ["brute: passes(ts-unsorted) != passes(all-pairs)",
                "brute: searches(ts-unsorted) > searches(all-pairs)"]
    rep = json.loads((tmp_path / "bench.json").read_text())
    assert rep["dominance_violations"] == expected
    err = capsys.readouterr().err
    assert all(f"dominance violation: {v}" in err for v in expected)


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

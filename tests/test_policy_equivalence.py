"""The timestamp theorems on full engine runs, checked by equivalence.

A timestamp policy skips a search only when no change since the pair's
last search could make it succeed.  If that holds, a full run under the
policy ends exactly where a run that searches every pair in the same
order ends: the same output, the same successful searches and the same
number of passes.  Any difference proves an unsound skip.

- ``ts-unsorted`` freezes positions for a pass, as ``all-pairs`` does,
  with the same length guard, so the two runs must agree.
- ``ts-sorted`` re-inserts changed texts mid-pass; its reference is the
  same driver with every ``tp`` set to -1 before each pass, which makes
  every pair searchable.

The corpus has short and long eliminations, duplicate relators and
involutions, and passes that end early, at the pattern loop whose rewrite
leaves a relator eliminable; every strategy in ``STRATEGIES`` runs it.
"""

import random
import sys
from collections import Counter

import pytest

from helpers import dense_presentation, sparse_presentation, squares_words
from tietze import engine, skip
from tietze.engine import EngineConfig, simplify
from tietze.presentation import RelatorRecord, make_presentation, serialize_presentation
from tietze.randgen import random_presentation
from tietze.strategies import STRATEGIES
from tietze.words import eliminable, reduce_cyclic_word


def _corpus():
    rng = random.Random(1994)
    out = []
    for i in range(40):
        out.append(dense_presentation(rng, d_max=5, q_max=12, l_max=10))
        out.append(sparse_presentation(rng.getrandbits(32)))
        out.append(make_presentation(*squares_words(rng)))
        if i % 2:
            out.append(random_presentation(rng, rng.randint(2, 5), rng.randint(4, 12), 10))
    return out


CORPUS = _corpus()


def _outcome(pres, policy, strategy):
    out, stats = simplify(pres.clone(), EngineConfig(match_strategy=strategy, skip_policy=policy))
    return serialize_presentation(out), stats.searches_successful, stats.passes


def _sorted_all_pairs(pres, ctx, searcher, record=None):
    """ts-sorted searching every pair: every tp is -1 when the pass starts."""
    for r in pres.rel:
        r.tp = -1
    return skip.pass_sorted(pres, ctx, searcher, record)


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_ts_unsorted_equals_all_pairs(strategy):
    for n, pres in enumerate(CORPUS):
        assert _outcome(pres, "ts-unsorted", strategy) == _outcome(pres, "all-pairs", strategy), n


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_ts_sorted_equals_sorted_all_pairs(monkeypatch, strategy):
    policy_runs = [_outcome(pres, "ts-sorted", strategy) for pres in CORPUS]
    with monkeypatch.context() as m:
        m.setattr(engine, "run_pass", _sorted_all_pairs)
        reference_runs = [_outcome(pres, "ts-sorted", strategy) for pres in CORPUS]
    for n, (got, want) in enumerate(zip(policy_runs, reference_runs)):
        assert got == want, n


def test_equivalence_corpus_is_not_vacuous(monkeypatch):
    # the runs eliminate generators both ways, remove duplicates, carry
    # involutions, end passes early, and the timestamp policies skip searches
    removed = []
    remove_duplicates = engine.remove_duplicates
    run_pass = engine.run_pass
    early = Counter()

    def counting(pres):
        found = remove_duplicates(pres)
        removed.extend(found)
        return found

    def watching(pres, ctx, searcher, record=None):
        # no pass starts with an eliminable relator, so one after the pass
        # was left by its last pattern loop's rewrite
        assert not any(eliminable(r.word) for r in pres.rel)
        tally = run_pass(pres, ctx, searcher, record)
        early[ctx.policy] += any(eliminable(r.word) for r in pres.rel)
        return tally

    monkeypatch.setattr(engine, "remove_duplicates", counting)
    monkeypatch.setattr(engine, "run_pass", watching)
    short = long = skipped = involutions = 0
    for pres in CORPUS:
        involutions += any(len(r.word) == 2 and r.word[0] == r.word[1] for r in pres.rel)
        for policy in skip.POLICY_NAMES:
            _, stats = simplify(pres.clone(), EngineConfig(skip_policy=policy))
            short += stats.short_elims
            long += stats.long_elims
            skipped += stats.searches_skipped
    assert short > 0 and long > 0 and skipped > 0
    assert len(removed) > 0 and involutions > 0
    assert min(early.values()) > 50 and len(early) == len(skip.POLICY_NAMES), early


def test_every_word_written_in_a_run_is_reduced(monkeypatch):
    # the engine reduces its input once, when read, and no word after that
    # but where it is built, so every word that a run writes must come in
    # freely and cyclically reduced, from every writer
    set_word = RelatorRecord.set_word
    writers = Counter()

    def checked(rec, word):
        assert reduce_cyclic_word(word) == word, word
        writers[sys._getframe(1).f_code.co_name] += 1
        set_word(rec, word)

    monkeypatch.setattr(RelatorRecord, "set_word", checked)
    for pres in CORPUS:
        for policy in skip.POLICY_NAMES:
            simplify(pres.clone(), EngineConfig(skip_policy=policy))
    assert min(writers.values()) > 20 and set(writers) == {
        "substitute", "__call__", "normalize_involutions", "long_eliminate",
        "remove_duplicates", "compact_labels"}, writers

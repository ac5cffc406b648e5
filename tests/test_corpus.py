"""Every op of the output corpus (tests/corpus.txt) reproduces its digest,
whatever the order of the ops and the state of psi's memo store.  See
tests/corpus.py for the corpus and the rule for updating it."""

import random

import corpus
from psifoc import psi


def _moved(entries, out_path, clear_before=()):
    """The ops whose digest differs from the stored one, clearing the memo
    store before the entries whose index is in clear_before."""
    moved = []
    for i, (op, want) in enumerate(entries):
        if i in clear_before:
            psi._memo.clear()
        if corpus.digest(op, out_path) != want:
            moved.append(op)
    return moved


def test_corpus_reproduces_in_any_order_and_cache_state(tmp_path,
                                                        monkeypatch,
                                                        cold_tables):
    monkeypatch.delenv("PSIFOC_TRUNC", raising=False)
    out_path = str(tmp_path / "out.txt")
    entries = corpus.load()
    assert len(entries) == len(dict(entries)) > 4000
    rng = random.Random("corpus-order")
    shuffled = rng.sample(entries, len(entries))
    clears = {i for i in range(len(entries)) if rng.random() < 0.05}
    # listed from a cold store, reversed, shuffled with the store cleared
    # before about 5% of the ops, and listed once more warm
    runs = {"listed cold": _moved(entries, out_path),
            "reversed": _moved(entries[::-1], out_path),
            "shuffled": _moved(shuffled, out_path, clears),
            "listed warm": _moved(entries, out_path)}
    assert {order: ops[:5] for order, ops in runs.items() if ops} == {}

"""The golden report corpus (``tests/golden/corpus.json``): each case's
CLI runs must reproduce its exit codes and parsed files by the comparison
rule of ``golden_corpus``.  A value that moves on purpose is moved by
rewriting the corpus with ``tests/golden_corpus.py``."""

import json

import pytest

from golden_corpus import CASES, CORPUS, differences, run_case

STORED = json.loads(CORPUS.read_text())


def test_the_corpus_holds_every_case():
    assert list(STORED) == list(CASES)
    for name, commands in CASES.items():
        assert STORED[name]["commands"] == commands


@pytest.mark.parametrize("name", CASES)
def test_case_reproduces_the_corpus(name, tmp_path):
    got = run_case(CASES[name], tmp_path)
    want = STORED[name]
    assert got["exit_codes"] == want["exit_codes"]
    assert differences(want["files"], got["files"]) == []

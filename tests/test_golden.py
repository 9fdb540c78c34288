"""The golden corpus: every pinned output of every case, byte for byte."""

import json

import pytest

from golden.make_golden import CORPUS, cases, render

EXPECTED = json.loads(CORPUS.read_text(encoding="utf-8"))
CASES = cases()


def test_corpus_covers_every_case():
    assert sorted(EXPECTED) == sorted(CASES)
    assert len(CASES) >= 200


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name):
    assert render(CASES[name]) == EXPECTED[name]

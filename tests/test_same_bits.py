"""The seeded corpus of ``same_bits.py`` must hash to the committed digest
with the compiled library and without it (the numpy kernel and the Python
text parser and formatter): every principal, mismatch cell, residual, op
count, error text and CLI output stays byte for byte."""

import pytest

import same_bits
from maxplus_sylvester import instance_io, matrix


@pytest.mark.parametrize("kernel", ["live", "numpy"])
def test_corpus_digest_is_unchanged(kernel, monkeypatch):
    if kernel == "numpy":
        monkeypatch.setattr(matrix, "_kernel", matrix._product)
        monkeypatch.setattr(instance_io, "_scan", None)
        monkeypatch.setattr(instance_io, "_write", None)
    assert same_bits.digest()[0] == same_bits.DIGEST_FILE.read_text().strip()

"""The seeded corpus of ``same_bits.py`` must hash to the committed digest
with the compiled library and without it (the numpy kernel and the Python
text parser and formatter): every principal, mismatch cell, residual, op
count, error text and CLI output stays byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import same_bits
from maxplus_sylvester import ckernel


@pytest.mark.parametrize("kernel", ["live", "numpy"])
def test_corpus_digest_is_unchanged(kernel, monkeypatch):
    if kernel == "numpy":
        monkeypatch.setattr(ckernel, "LIBRARY", ckernel.NUMPY)
    assert same_bits.digest()[0] == same_bits.DIGEST_FILE.read_text().strip()


_NO_COMPILER = """
import sys
builds = []
sys.addaudithook(lambda event, args: builds.append(args[1]) if event == "subprocess.Popen" else None)
from maxplus_sylvester import ckernel
import same_bits
assert len(builds) == 1, builds  # the import tries to build the library once
assert ckernel.LIBRARY is ckernel.NUMPY
print(same_bits.digest()[0])
"""


def test_corpus_digest_in_a_copy_with_no_compiler(tmp_path):
    # a fresh copy has no cached build and an empty PATH has no gcc, as in an
    # install on a machine without a compiler: every path runs in Python
    shutil.copytree(Path(ckernel.__file__).parent, tmp_path / "maxplus_sylvester",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "empty").mkdir()
    env = {**os.environ, "PATH": str(tmp_path / "empty"),
           "PYTHONPATH": os.pathsep.join([str(tmp_path), str(Path(same_bits.__file__).parent)])}
    run = subprocess.run([sys.executable, "-c", _NO_COMPILER], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == same_bits.DIGEST_FILE.read_text().strip()

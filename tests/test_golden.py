"""Every CLI run over the tests/data corpus reproduces its recorded bytes,
and every check-norms norm value its recorded bits.

The digests in tests/data/golden_digests.json cover exit code, stdout,
stderr and every artifact file; tests/data/golden_norms.json holds the
_mpf_ tuples of every norm report of the golden check-norms runs (see
tests/record_golden.py, which rewrites both on known-good code).
"""

import json

import pytest

from .record_golden import GOLDEN, GOLDEN_NORMS, digest, norm_runs, norm_values, runs

_GOLDEN = json.loads(GOLDEN.read_text(encoding="utf-8"))
_RUNS = runs()
_GOLDEN_NORMS = json.loads(GOLDEN_NORMS.read_text(encoding="utf-8"))
_NORM_RUNS = norm_runs()


def test_golden_covers_every_run():
    assert sorted(_GOLDEN) == sorted(name for name, _ in _RUNS)
    assert sorted(_GOLDEN_NORMS) == sorted(name for name, _ in _NORM_RUNS)


@pytest.mark.parametrize("name, argv", _RUNS, ids=[name for name, _ in _RUNS])
def test_golden_digest(name, argv):
    assert digest(argv) == _GOLDEN[name]


@pytest.mark.parametrize("name, argv", _NORM_RUNS, ids=[name for name, _ in _NORM_RUNS])
def test_golden_norm_values(name, argv):
    got = norm_values(argv)
    want = _GOLDEN_NORMS[name]
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"record {i}"

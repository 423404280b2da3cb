"""Every CLI run over the tests/data corpus reproduces its recorded bytes.

The digests in tests/data/golden_digests.json cover exit code, stdout,
stderr and every artifact file (see tests/record_golden.py, which rewrites
them on known-good code).
"""

import json

import pytest

from .record_golden import GOLDEN, digest, runs

_GOLDEN = json.loads(GOLDEN.read_text(encoding="utf-8"))
_RUNS = runs()


def test_golden_covers_every_run():
    assert sorted(_GOLDEN) == sorted(name for name, _ in _RUNS)


@pytest.mark.parametrize("name, argv", _RUNS, ids=[name for name, _ in _RUNS])
def test_golden_digest(name, argv):
    assert digest(argv) == _GOLDEN[name]

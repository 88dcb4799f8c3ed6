from __future__ import annotations

import os

import pytest

from outhom.cli import main
from outhom.enumerator import ResourceCapError
from outhom.exactla import nullspace_of
from outhom.parallel import pmap

_CALLER = os.getpid()


def _die(x):
    # Only ever kill a pool worker, never the test process itself.
    if os.getpid() == _CALLER:
        raise RuntimeError("ran in the calling process")
    os._exit(1)


def _die_in_worker(job):
    if os.getpid() != _CALLER:
        os._exit(1)
    return nullspace_of(*job)


def test_serial_map_is_lazy():
    seen = []
    results = pmap(seen.append, [1, 2, 3], 1)
    assert seen == []
    list(results)
    assert seen == [1, 2, 3]


def test_dead_worker_is_a_resource_cap():
    with pytest.raises(ResourceCapError, match="worker died"):
        list(pmap(_die, [1, 2], 2))


def test_dead_worker_leaves_a_hole_not_a_traceback(capsys, monkeypatch):
    monkeypatch.setattr("outhom.exactla._block_nullspace", _die_in_worker)
    code = main(["homology", "--n", "3", "--threads", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "holes (resource caps):" in captured.out
    assert "worker died" in captured.err

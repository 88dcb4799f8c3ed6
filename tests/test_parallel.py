from __future__ import annotations

import os

import pytest

from outhom.cli import main
from outhom.enumerator import ResourceCapError, _children
from outhom.parallel import pmap

_CALLER = os.getpid()


def _die(x):
    # Only ever kill a pool worker, never the test process itself.
    if os.getpid() == _CALLER:
        raise RuntimeError("ran in the calling process")
    os._exit(1)


def _die_in_worker(parent):
    if os.getpid() != _CALLER:
        os._exit(1)
    return _children(parent)


def _oserror_in_worker(x):
    if os.getpid() != _CALLER:
        raise OSError("disk full in worker")
    return x


def test_serial_map_is_lazy():
    seen = []
    results = pmap(seen.append, [1, 2, 3], 1)
    assert seen == []
    list(results)
    assert seen == [1, 2, 3]


def test_dead_worker_is_a_resource_cap():
    with pytest.raises(ResourceCapError, match="worker died"):
        list(pmap(_die, [1, 2], 2))


def test_pool_that_cannot_be_created_runs_serially(capsys, monkeypatch):
    def no_pool(max_workers):
        raise OSError("no semaphores")

    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", no_pool)
    assert list(pmap(abs, [-1, -2], 2)) == [1, 2]
    assert "process pool unavailable (no semaphores); running serially" in capsys.readouterr().err


def test_job_oserror_in_worker_propagates(capsys):
    # the job's own error is not a pool that failed to start: no serial rerun
    with pytest.raises(OSError, match="disk full in worker"):
        list(pmap(_oserror_in_worker, [1, 2, 3], 2))
    assert capsys.readouterr().err == ""


def test_dead_worker_leaves_a_hole_not_a_traceback(capsys, monkeypatch):
    # enumeration runs before any level, so a dead worker ends the run with
    # exit 2; with every rank step pooled, the steps from rank 4 on have
    # several parents, so the map uses the pool
    monkeypatch.setattr("outhom.enumerator.POOL_MIN_PARENTS", 1)
    monkeypatch.setattr("outhom.enumerator._children", _die_in_worker)
    code = main(["homology", "--n", "5", "--threads", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "worker died" in captured.err
    assert "Traceback" not in captured.err


def test_worker_death_during_submission_is_a_resource_cap(monkeypatch):
    # a worker that dies before map has submitted every chunk makes the
    # next submit raise; that too is a dead worker, not a traceback
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    def broken(self, *args, **kwargs):
        raise BrokenProcessPool("a worker died during submission")

    monkeypatch.setattr(ProcessPoolExecutor, "submit", broken)
    with pytest.raises(ResourceCapError, match="worker died"):
        pmap(abs, [1, -2, 3], 2)

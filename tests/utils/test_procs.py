"""Child-process reaping: alive, exited and SIGTERM-ignoring children."""

import multiprocessing as mp
import os
import signal
import time

from repro.utils.procs import reap_processes


def _sleep():
    time.sleep(60)


def _ignore_term(ready):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    ready.set()
    time.sleep(60)


CTX = mp.get_context("fork")


def test_terminates_a_sleeping_child():
    p = CTX.Process(target=_sleep)
    p.start()
    reap_processes([p], grace=5.0)
    assert not p.is_alive()
    assert p.exitcode == -signal.SIGTERM


def test_kills_a_child_that_ignores_sigterm():
    ready = CTX.Event()
    p = CTX.Process(target=_ignore_term, args=(ready,))
    p.start()
    assert ready.wait(10)
    reap_processes([p], grace=0.2)
    assert not p.is_alive()
    assert p.exitcode == -signal.SIGKILL


def test_exited_child_keeps_its_exit_code():
    p = CTX.Process(target=os._exit, args=(3,))
    p.start()
    p.join(10)
    reap_processes([p])
    assert p.exitcode == 3


def test_idempotent_and_empty():
    p = CTX.Process(target=_sleep)
    p.start()
    reap_processes([p], grace=5.0)
    reap_processes([p], grace=5.0)
    reap_processes([])
    assert not p.is_alive()

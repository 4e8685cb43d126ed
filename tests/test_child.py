"""The one child-process primitive: spawn, feed, reap and stop."""

from __future__ import annotations

import os
import time
from multiprocessing.connection import wait as mp_wait

import pytest

from repro.parallel.child import Child, stop

pytestmark = pytest.mark.process


def _sleeper(cmd, out) -> None:
    """Never reads its command pipe."""
    time.sleep(60)


def _slow_stopper(cmd, out) -> None:
    """Says it is up, then takes 0.3 s to exit after ``("stop",)``."""
    out.send(("ready",))
    cmd.recv()
    time.sleep(0.3)


def _echo(cmd, out) -> None:
    for msg in iter(cmd.recv, ("stop",)):
        out.send(msg)


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_a_child_that_never_reads_is_terminated_and_reaped():
    child = Child(_sleeper, name="sleeper", daemon=True)
    child.spawn()
    pid = child.pid
    timeout = 0.3
    start = time.monotonic()
    stop([child], timeout)
    assert time.monotonic() - start < 2 * timeout + 0.2
    assert not child.alive()
    assert _reaped(pid)  # no zombie left behind
    assert child.cmd is None and child.out is None


def test_stop_joins_children_in_parallel():
    children = [Child(_slow_stopper, name=f"slow-{i}", daemon=True)
                for i in range(4)]
    for child in children:
        child.spawn()
    for child in children:
        assert child.out.poll(10.0) and child.out.recv() == ("ready",)
    start = time.monotonic()
    stop(children)
    assert time.monotonic() - start < 0.6  # serial would be >= 1.2 s
    assert all(_reaped(child.pid) for child in children)


def test_kill_and_respawn_leaks_no_descriptor():
    child = Child(_echo, name="echo", daemon=True)
    child.spawn()
    fds = len(os.listdir("/proc/self/fd"))
    pids = {child.pid}
    for _ in range(20):
        child.kill()
        child.spawn()
        pids.add(child.pid)
    try:
        assert len(os.listdir("/proc/self/fd")) == fds
        assert len(pids) == 21 and child.respawns == 20
    finally:
        stop([child])


def test_messages_drain_and_eof_leaves_the_wait_set():
    child = Child(_echo, name="echo", daemon=True)
    child.spawn()
    try:
        child.send(("ping", 1))
        child.send(("ping", 2))
        got = []
        while len(got) < 2:
            mp_wait([child.out], 10.0)
            got += child.messages()
        assert got == [("ping", 1), ("ping", 2)]
        child.kill()
        child.send(("ping", 3))  # the dead child's sentinel tells, not this
        assert list(child.messages()) == []
        assert child.out is None and not child.alive()
    finally:
        stop([child])


@pytest.mark.parametrize("daemon", (True, False))
def test_spawn_honours_the_daemon_flag(daemon):
    child = Child(_echo, name="echo", daemon=daemon)
    child.spawn()
    try:
        assert child.proc.daemon is daemon and child.proc.name == "echo"
    finally:
        stop([child])

"""One forked child process: a fleet job worker or a process-backend rank."""

from __future__ import annotations

import multiprocessing as mp
from multiprocessing.connection import wait as mp_wait
from typing import Any, Callable, Iterable, Iterator

#: Exit code of a chaos-killed child (distinguishes injected deaths).
KILLED_EXIT_CODE = 17


class Child:
    """A forked child, its two one-way pipes and its sentinel.

    Every parent↔child channel in ``src/repro`` is a one-way ``Pipe`` per
    child per direction, written synchronously, and the parent waits on
    the pipes beside the children's sentinels in one
    :func:`multiprocessing.connection.wait`: commands go down ``cmd``,
    beats and outcomes come up :attr:`out`.  There is no
    ``multiprocessing.Queue``: its feeder thread holds a write lock every
    writer shares, and a writer killed while holding it wedged every
    later writer.  A dead child's pipe reads EOF and is closed with it,
    so nothing it left half sent can reach a successor, and a message
    under ``select.PIPE_BUF`` goes in one ``write(2)``, which a kill
    cannot tear.

    ``target(*args, cmd, out)`` runs in the child; :attr:`respawns`
    counts every :meth:`spawn` after the first.
    """

    def __init__(self, target: Callable[..., None], *args: Any,
                 name: str, daemon: bool) -> None:
        self.target, self.args, self.name, self.daemon = (
            target, args, name, daemon)
        self.proc: Any = None
        self.cmd: Any = None  # write end of the command pipe
        self.out: Any = None  # read end of the outcome pipe; None at EOF
        self.respawns = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    @property
    def sentinel(self) -> int:
        return self.proc.sentinel

    def spawn(self) -> None:
        """Fork a fresh child, reaping any earlier one."""
        if self.proc is not None:
            self.join()
            self.respawns += 1
        self.close()  # a dead child's ends, and what is left in them
        commands, self.cmd = mp.Pipe(duplex=False)
        self.out, outcomes = mp.Pipe(duplex=False)
        self.proc = mp.get_context("fork").Process(
            target=self.target, args=(*self.args, commands, outcomes),
            name=self.name, daemon=self.daemon,
        )
        self.proc.start()
        commands.close()  # the child's ends: later forks must not hold them
        outcomes.close()

    def alive(self) -> bool:
        """Spawned and not exited, read from the sentinel: ``is_alive()``
        lags it until the process is reaped."""
        return self.proc is not None and not mp_wait([self.sentinel], 0)

    def send(self, msg: Any) -> None:
        """Send one command; a dead child's sentinel reports its death."""
        try:
            self.cmd.send(msg)
        except OSError:
            pass

    def messages(self) -> Iterator[Any]:
        """Every message ready on :attr:`out` now.  At EOF the pipe would
        read as ready forever, so it is closed and leaves the wait set."""
        while self.out is not None and self.out.poll():
            try:
                msg = self.out.recv()
            except (EOFError, OSError):
                self.out.close()
                self.out = None
                return
            yield msg

    def join(self, timeout: float = 1.0) -> int | None:
        """Reap an exiting child; its exit code (``None`` while running)."""
        self.proc.join(timeout)
        return self.proc.exitcode

    def kill(self) -> None:
        """SIGKILL the child and reap it."""
        self.proc.kill()
        self.join(5.0)

    def close(self) -> None:
        """Close the parent's pipe ends."""
        for end in (self.cmd, self.out):
            if end is not None:
                end.close()
        self.cmd = self.out = None


def stop(children: Iterable[Child], timeout: float = 5.0) -> None:
    """Stop ``children`` together: ``("stop",)`` to every live one and
    every end closed before the first join, so they exit in parallel;
    one still running after ``timeout`` is terminated."""
    children = [c for c in children if c.proc is not None]
    for child in children:
        if child.alive():
            child.send(("stop",))
    for child in children:
        child.close()
    for child in children:
        if child.join(timeout) is None:
            child.proc.terminate()
            child.join(timeout)

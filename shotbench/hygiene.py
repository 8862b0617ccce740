"""Run hygiene: every process and shared-memory segment a run starts must be
gone when it ends, also when the run is stopped by SIGTERM or SIGINT.

* :func:`install_stop_handlers` turns SIGTERM/SIGINT into a
  :class:`Stopped` exception in the main thread, so cleanup runs in the
  ``finally`` blocks on the way out.  While ``JobPool.run`` drives a batch
  it installs its own drain handlers; :meth:`Hygiene.note_drain` turns a
  drained batch into the same exception once ``run`` has returned.
* :class:`Hygiene` snapshots ``/dev/shm`` at start, records every
  descendant process it sees, reaps the stdlib ``multiprocessing`` resource
  tracker (it otherwise outlives the interpreter, reparented to PID 1) and
  finally reports whatever is still alive.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

SHM_DIR = Path("/dev/shm")


class Stopped(BaseException):
    """The run was asked to stop (SIGTERM/SIGINT or a drained batch)."""

    def __init__(self, signum: int):
        super().__init__(f"stopped by signal {signum}")
        self.signum = int(signum)


def install_stop_handlers() -> None:
    def handler(signum, frame):
        raise Stopped(signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, handler)


def _children(pid: int) -> list:
    kids = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            kids += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            continue
    return kids


def descendants(pid: int) -> set:
    found, todo = set(), [pid]
    while todo:
        for kid in _children(todo.pop()):
            if kid not in found:
                found.add(kid)
                todo.append(kid)
    return found


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def _shm_names() -> set:
    """Names of the POSIX shared-memory segments ``multiprocessing`` makes
    (``psm_`` prefix) — the only kind the program creates."""
    try:
        return {p.name for p in SHM_DIR.glob("psm_*")}
    except OSError:
        return set()


class Hygiene:
    def __init__(self):
        self.pid = os.getpid()
        self.shm_before = _shm_names()
        self.seen: set = set()

    def sample(self) -> None:
        """Record the current descendants (call while daemons may be up)."""
        self.seen |= descendants(self.pid)

    @staticmethod
    def note_drain(report) -> None:
        if report.drained:
            raise Stopped(signal.SIGTERM)

    def leftovers(self, wait: float = 5.0) -> list:
        """Processes and ``/dev/shm`` segments of this run still alive after
        waiting up to *wait* seconds for each kind to go.  They are then
        killed and unlinked, so nothing outlives the run, and reported.

        Segments are looked at while the resource tracker still runs: at
        shutdown it unlinks what it tracks, which would hide a leak.  The
        tracker is stopped last, once no other process can hold its pipe
        open (it exits on end-of-file)."""
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        self.sample()
        shm = _settle(lambda: sorted(_shm_names() - self.shm_before), wait)

        def alive():
            for pid in self.seen:
                try:  # reap our own exited children
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
            pids = (self.seen | descendants(self.pid)) - {tracker._pid}
            return sorted(p for p in pids if _alive(p))

        procs = _settle(alive, wait)
        for pid in procs:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        for name in shm:
            (SHM_DIR / name).unlink(missing_ok=True)
        tracker._stop()  # joins it
        return [f"process {p}" for p in procs] + [f"/dev/shm/{n}" for n in shm]


def _settle(probe, wait: float) -> list:
    """Poll *probe* until it returns an empty list or *wait* seconds pass."""
    deadline = time.monotonic() + wait
    while True:
        found = probe()
        if not found or time.monotonic() > deadline:
            return found
        time.sleep(0.05)

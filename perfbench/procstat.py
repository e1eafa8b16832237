"""Process accounting read from outside the program, through ``/proc``.

CPU time and resident memory cover the benchmark process plus every
process it started (the persistent pool's workers, raw fault-plan
workers).  The census lists what an operation left behind: descendant
processes, listening sockets and block buffers.
"""

from __future__ import annotations

import os
import resource
import threading

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> "list[str] | None":
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2:].split()


def descendants(root: "int | None" = None) -> "set[int]":
    """Live descendant pids of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: "dict[int, list[int]]" = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None or fields[0] == "Z":
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found: "set[int]" = set()
    frontier = [root]
    while frontier:
        for child in children.get(frontier.pop(), []):
            if child not in found:
                found.add(child)
                frontier.append(child)
    return found


def process_cpu_seconds(pid: int) -> float:
    """utime + stime of a live process (0 once it is gone)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


class CpuMeter:
    """CPU seconds spent by this process and its descendants since start.

    Live processes are read from ``/proc``; processes reaped meanwhile
    are picked up from ``getrusage(RUSAGE_CHILDREN)``.  A descendant that
    starts and exits within one interval without being reaped by this
    process is not seen.
    """

    def __init__(self):
        self._live = self._snapshot()
        self._reaped = self._children_rusage()

    @staticmethod
    def _snapshot() -> "dict[int, float]":
        pids = descendants() | {os.getpid()}
        return {pid: process_cpu_seconds(pid) for pid in pids}

    @staticmethod
    def _children_rusage() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def elapsed(self) -> float:
        now = self._snapshot()
        live = sum(now[pid] - self._live.get(pid, 0.0) for pid in now)
        # A process live at start but gone now: its final time is in
        # RUSAGE_CHILDREN, which already counts what it had at start.
        gone = sum(cpu for pid, cpu in self._live.items() if pid not in now)
        return live - gone + (self._children_rusage() - self._reaped)


def rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


#: Seconds between two RSS samples of :class:`PeakRss`.
RSS_INTERVAL = 0.05
#: The process tree is re-read every this many samples only, which keeps
#: the sampler's share of this process's CPU near 1 %.
RSS_RESCAN = 10


class PeakRss:
    """Peak of summed RSS over this process and its descendants, sampled
    every :data:`RSS_INTERVAL` seconds on a background thread while open.
    """

    def __init__(self):
        self.peak = 0
        self._pids: "set[int]" = set()
        self._samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        if self._samples % RSS_RESCAN == 0:
            self._pids = descendants() | {os.getpid()}
        self._samples += 1
        self.peak = max(self.peak, sum(rss_bytes(pid) for pid in self._pids))

    def _run(self) -> None:
        while not self._stop.wait(RSS_INTERVAL):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def listening_sockets(pids: "set[int]") -> "list[str]":
    """``pid:port`` for every listening TCP socket held by ``pids``."""
    listening: "dict[str, int]" = {}
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table, "r", encoding="ascii") as handle:
                next(handle)
                for line in handle:
                    fields = line.split()
                    if fields[3] == "0A":  # TCP_LISTEN
                        listening[fields[9]] = int(fields[1].rsplit(":", 1)[1], 16)
        except OSError:
            continue
    found = []
    for pid in sorted(pids):
        try:
            fds = os.listdir(f"/proc/{pid}/fd")
        except OSError:
            continue
        for fd in fds:
            try:
                target = os.readlink(f"/proc/{pid}/fd/{fd}")
            except OSError:
                continue
            if target.startswith("socket:["):
                inode = target[8:-1]
                if inode in listening:
                    found.append(f"{pid}:{listening[inode]}")
    return found


def block_buffers(directories: "tuple[str, ...]") -> "set[str]":
    """``repro-block-*`` files (BlockBuffer backing files) in ``directories``."""
    found = set()
    for directory in directories:
        try:
            names = os.listdir(directory)
        except OSError:
            continue
        found.update(
            os.path.join(directory, name)
            for name in names
            if name.startswith("repro-block-")
        )
    return found

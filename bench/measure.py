"""Statistics, process and output helpers shared by every workload.

Nothing here imports :mod:`repro`: these helpers are what the harness
uses to judge the program, so they must not change when it does.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space inside the checkout: server logs, trace dumps and the
#: trained-model cache of ``paper_pipeline`` (listed in ``.gitignore``).
WORK = ROOT / ".bench_build"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: The p90 of fewer samples has fewer than ten observations beyond it.
TAIL_SAMPLES = 10
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Host speed probes before and after each set-up.
SETUP_PROBES = 5
#: The environment of every measured process, on top of the caller's.
#: One BLAS thread: OpenBLAS defaults to one thread per core, and on a
#: two-core host its worker spins on the core the load generator, the
#: server's HTTP loop and its session threads need: ``serve_cnn``'s p90
#: then ranged 44-134 ms over ten seeds, against 38-50 ms (one outlier)
#: with one thread.  One malloc arena: glibc gives each of a server's
#: session threads an arena of its own, and which threads happened to run
#: forwards decided how many arenas held a forward's buffers --
#: ``serve_cnn``'s peak memory ranged 213-272 MB over ten seeds, against
#: 97-100 MB with one arena.
RUN_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_ARENA_MAX": "1",
}
#: CPU seconds :func:`reference_s` takes on a quiet 2-vCPU host; times
#: "at nominal speed" are scaled to a host on which it takes this long.
NOMINAL_REFERENCE_S = 1.5e-3
#: Seconds between two probes of one core by :class:`CoreProbes`: ~1.5 ms
#: of work every 50 ms, 3% of the core.
CORE_PROBE_PERIOD = 0.05
#: :class:`CoreProbes` judges a core's speed over pieces of an interval
#: this long, from the probes taken within :data:`CORE_PROBE_PAD` of it.
CORE_PROBE_STEP = 0.5
CORE_PROBE_PAD = 0.3


class BenchError(RuntimeError):
    """A run that cannot produce valid metrics (bad setup, invalid run)."""


def load_spec() -> Dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def percentile(values: Sequence[float], q: float, smoke: bool = False) -> float:
    """The ``q``-th percentile (linear interpolation between ranks).

    Refuses a sample too small to put :data:`TAIL_SAMPLES` observations
    beyond the percentile -- a p90 needs at least 100 -- because such a
    tail is one or two unlucky requests, not a property of the system.
    ``smoke`` lifts the rule for the few-second plumbing check.
    """
    data = sorted(values)
    if not data:
        raise BenchError(f"p{q:g} of an empty sample")
    beyond = len(data) * (100.0 - q) / 100.0
    if not smoke and beyond < TAIL_SAMPLES and q > 50:
        raise BenchError(
            f"p{q:g} needs at least {math.ceil(TAIL_SAMPLES * 100 / (100 - q))} "
            f"samples, got {len(data)}"
        )
    rank = (len(data) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the relative spread ``(q3 - q1) / median``.

    Uses :func:`statistics.quantiles` (exclusive method) so the spread
    matches what a reader recomputes from the raw runs.
    """
    data = list(values)
    median = statistics.median(data)
    if len(data) >= 2:
        q1, _, q3 = statistics.quantiles(data, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(data),
    }


@functools.lru_cache(maxsize=1)
def _reference_matrix():
    import numpy as np  # not at import time: run.py sets RUN_ENV first

    return np.random.default_rng(0).random((32, 32))


def reference_s() -> float:
    """CPU seconds this thread spends on a fixed reference computation.

    An interpreter loop and small matrix products, the two kinds of work
    the measured code does, taking ~1.5 ms.  Each core of the shared
    host this was built on runs up to 40% slower at times, for half a
    second to tens of seconds, and both kinds of work slow down together
    (their 2-second medians correlate at 0.95), so the reference
    measures the speed of the core it ran on at that moment.  Thread CPU
    time, not wall time: a thread waiting for a core is not a slow host.
    """
    import numpy as np

    matrix = _reference_matrix()
    started = time.thread_time()
    total = 0
    for value in range(20000):
        total += value * value
    product = matrix
    for _ in range(30):
        product = np.tanh(product @ matrix * 0.01)
    return time.thread_time() - started


class HostSpeed:
    """Times scaled to a host of nominal speed by interleaved probes.

    The caller runs :meth:`probe` between pieces of work that run alone
    on the host.  A time is multiplied by ``NOMINAL_REFERENCE_S`` over
    the median reference time of the probes taken around it, so the
    same work reads about the same time whatever speed the host had at
    that moment, and by the share of the host's CPU time meanwhile that
    was not stolen (:func:`unstolen`).  Intervals timed with
    :meth:`mark` and :meth:`since` exclude the probes' own time.  With
    ``probing`` off every time passes through unscaled, for runs whose
    spans must not contain probes.
    """

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.samples: List[float] = []  # reference CPU seconds per probe
        self._ticks: List[Tuple[int, int]] = []  # cpu_ticks() after each probe
        self._probe_wall = 0.0

    def probe(self, repeats: int = 1) -> None:
        if self.probing:
            started = time.perf_counter()
            for _ in range(repeats):
                self.samples.append(reference_s())
                self._ticks.append(cpu_ticks())
            self._probe_wall += time.perf_counter() - started

    def mark(self) -> tuple:
        return (
            time.perf_counter(), self._probe_wall, len(self.samples),
            cpu_ticks() if self.probing else None,
        )

    def since(self, mark: tuple, last: int = 0) -> float:
        """Seconds since ``mark``, scaled by the probes taken since.

        With ``last``, by the last ``last`` probes instead, and by the
        steal time since the probe before them: for an interval too
        short for the probes and ticks within it alone.
        """
        started, probe_wall, first, ticks = mark
        raw = time.perf_counter() - started - (self._probe_wall - probe_wall)
        if not self.probing:
            return raw
        if last:
            window = self.samples[-last:]
            ticks = self._ticks[-last - 1] if len(self._ticks) > last else ticks
        else:
            window = self.samples[first:]
        if not window:
            raise BenchError("a timed interval has no host speed probe")
        speed = NOMINAL_REFERENCE_S / statistics.median(window)
        return raw * speed * unstolen(ticks, cpu_ticks())


class CoreProbes:
    """The speed of each core while another process does the work.

    On the shared host this was built on, each core switches on its own
    between a fast state and one ~40% slower, for half a second to a few
    seconds at a time, and the two cores' switches are uncorrelated
    (correlation 0.0 between simultaneous half-second medians).  A
    server's threads run on both cores, so one probe in the load
    generator's thread cannot tell how fast the server ran.  Instead, as
    a context manager, this runs one probe process pinned to each core,
    each timing :func:`reference_s` every :data:`CORE_PROBE_PERIOD`
    seconds, and scales an interval by the host speed these probes saw
    (:meth:`factor`).  With ``probing`` off no process starts and every
    factor is 1.

    Each probe also reads its core's :func:`cpu_ticks`, so that an
    interval is scaled by the share of its work's time that was stolen
    too (:meth:`unstolen`).
    """

    def __init__(self, probing: bool = True):
        self.probing = probing
        self._procs: List[subprocess.Popen] = []
        self._times: List[List[float]] = []  # per core, ascending
        self._refs: List[List[float]] = []
        self._ticks: List[List[Tuple[int, int]]] = []  # per core, cpu_ticks()

    def __enter__(self) -> "CoreProbes":
        if not self.probing:
            return self
        try:
            for core in sorted(os.sched_getaffinity(0)):
                proc = subprocess.Popen(
                    [sys.executable, __file__, "--probe-core", str(core)],
                    stdout=subprocess.PIPE,
                    text=True,
                )
                self._procs.append(proc)
                if not proc.stdout.readline():  # a line once its first probe is taken
                    raise BenchError(f"the probe of core {core} did not start")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            output, _ = proc.communicate()
            samples = json.loads(output) if output.strip() else []
            self._times.append([when for when, _, _ in samples])
            self._refs.append([ref for _, ref, _ in samples])
            self._ticks.append([tuple(ticks) for _, _, ticks in samples])
        self._procs = []

    def factor(self, start: float, end: float) -> float:
        """Nominal seconds per wall second during ``[start, end]``.

        ``NOMINAL_REFERENCE_S`` over the reference time, times the share
        of the work's time that was not stolen (:meth:`unstolen`).

        Wall-clock (``time.time``) bounds.  The interval is cut into
        pieces of at most :data:`CORE_PROBE_STEP` seconds; a piece's
        reference time is the mean over cores of each core's *median*
        probe within :data:`CORE_PROBE_PAD` of it, and the interval's is
        the mean over its pieces.  The median rather than the fastest
        probe: a slow spell that a window only partly covers still moves
        the median, and the fastest probe of ~20 is an extreme value that
        itself varies.  On four closed phases of ``serve_cnn`` scaled both
        ways, ``queries_per_s`` ranged over 8% with the fastest probe and
        4% with the median, and one-second slices of them spread 11% and
        8% (standard deviation of the logarithm; 14% unscaled).
        """
        if not self.probing:
            return 1.0
        pieces = max(1, math.ceil((end - start) / CORE_PROBE_STEP))
        width = (end - start) / pieces
        refs = []
        for piece in range(pieces):
            low = start + piece * width - CORE_PROBE_PAD
            high = start + (piece + 1) * width + CORE_PROBE_PAD
            typical = []
            for times, core_refs in zip(self._times, self._refs):
                window = core_refs[bisect.bisect_left(times, low):bisect.bisect_right(times, high)]
                if not window:
                    raise BenchError("a timed interval has no core probe")
                typical.append(statistics.median(window))
            refs.append(statistics.mean(typical))
        return NOMINAL_REFERENCE_S / statistics.mean(refs) * self.unstolen(start, end)

    def unstolen(self, start: float, end: float) -> float:
        """:func:`unstolen` of all cores during ``[start, end]``.

        The ticks each core's first and last probe within
        :data:`CORE_PROBE_PAD` of the interval read, summed over cores.
        """
        before, after = [0, 0], [0, 0]
        for times, ticks in zip(self._times, self._ticks):
            first = bisect.bisect_left(times, start - CORE_PROBE_PAD)
            last = bisect.bisect_right(times, end + CORE_PROBE_PAD) - 1
            if last > first:
                for total, reading in ((before, ticks[first]), (after, ticks[last])):
                    total[0] += reading[0]
                    total[1] += reading[1]
        return unstolen(before, after)


def cpu_ticks(line: str = "cpu") -> Tuple[int, int]:
    """``(busy, stolen)`` clock ticks since boot of a ``/proc/stat`` line.

    ``cpu`` is the whole host, ``cpuN`` one core.  Busy is user, nice,
    system, irq and softirq time; stolen is steal time, the time the
    hypervisor ran another guest while this one had work for the core.
    """
    with open("/proc/stat") as handle:
        for row in handle:
            fields = row.split()
            if fields[0] == line:
                user, nice, system, _, _, irq, softirq, steal = map(int, fields[1:9])
                return user + nice + system + irq + softirq, steal
    raise BenchError(f"/proc/stat has no {line!r} line")


def unstolen(before: Sequence[int], after: Sequence[int]) -> float:
    """The share of the time work was ready to run that it ran.

    From two :func:`cpu_ticks` readings: busy over busy plus stolen
    ticks between them, 1 when there was no work.  Thread CPU time --
    and so :func:`reference_s` -- leaves steal time out (the guest
    kernel accounts it apart from a task's runtime), so the probes
    cannot see a core that is slow because it is shared, while the work
    on it takes longer by the inverse of this share.  Steal time accrues
    only while a core has work, so it is taken as a share of the time
    the cores were busy or stolen, not of wall time.  On the 2-vCPU host
    this was built on, in three ``cluster_shared`` open phases during
    which neighbours loaded it, 36-42% of that time was stolen against
    17-23% of wall time, and the median session latency rose by 34-85%.
    """
    busy = after[0] - before[0]
    stolen = after[1] - before[1]
    return busy / (busy + stolen) if busy + stolen > 0 else 1.0


def _probe_core(core: int) -> None:
    """Probe ``core`` until SIGTERM or the parent's exit; print the samples.

    Writes one line once the first probe is taken, then, at the end, the
    ``[wall time, reference seconds, (busy, stolen) ticks]`` triples as
    one JSON list.
    """
    os.sched_setaffinity(0, {core})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    samples = []
    while not stop and os.getppid() == parent:
        samples.append((time.time(), reference_s(), cpu_ticks(f"cpu{core}")))
        if len(samples) == 1:
            print("probing", flush=True)
        time.sleep(CORE_PROBE_PERIOD)
    json.dump(samples, sys.stdout)


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def src_env() -> Dict[str, str]:
    """The caller's environment with the checkout's ``src`` importable."""
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + previous if previous else "")
    return env


def _descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it (from ``/proc``)."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [pid], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        tree.extend(children)
        frontier.extend(children)
    return tree


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM summed over ``pid``'s process tree (this process by default)."""
    pids = [os.getpid()] if pid is None else _descendants(pid)
    total_kb = 0
    for member in pids:
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def _await_group_exit(pgid: int, timeout: float) -> None:
    """Wait until no process of group ``pgid`` is left (workers included)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Service:
    """A server CLI run as a child process in its own process group.

    ``start`` returns the seconds from spawn until ``ready()`` first
    holds; ``stop`` sends SIGTERM (the graceful drain every CLI here
    implements) and escalates to SIGKILL on the whole group, so no
    worker outlives the run.
    """

    def __init__(self, argv: Sequence[str], log_name: str):
        self.argv = list(argv)
        self.log_path = WORK / "logs" / log_name
        self.proc: Optional[subprocess.Popen] = None
        self._log = None

    def start(self, ready, timeout: float = 60.0) -> float:
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(self.log_path, "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            cwd=ROOT,
            env=src_env(),
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        while time.perf_counter() - started < timeout:
            if self.proc.poll() is not None:
                break
            if ready():
                return time.perf_counter() - started
            time.sleep(0.005)
        self.stop()
        raise BenchError(
            f"{self.argv[:4]} did not become ready; see {self.log_path}"
        )

    def stop(self, timeout: float = 30.0) -> None:
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout)
                except subprocess.TimeoutExpired:
                    pass
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait(timeout)
            _await_group_exit(self.proc.pid, timeout)
        finally:
            self.proc = None
            if self._log is not None:
                self._log.close()
                self._log = None


@dataclass
class RunResult:
    """One workload run: counts, the correctness verdict and metrics."""

    attempted: int
    failed: int
    #: Correctness violations; any one of them withholds the metrics.
    violations: List[str]
    #: Hash of the run's deterministic outputs, for comparing commits.
    fingerprint: str
    metrics: Dict[str, float] = field(default_factory=dict)


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict) -> str:
    """The one-line JSON verdict a run ends with."""
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def outcome(result) -> tuple:
    """An attack result as compared across runs and against direct runs.

    ``result`` is an ``AttackResult`` or the ``result`` object of a served
    session.  Every field an attack decides is compared: success, queries,
    the pixel location, the perturbation written there and the class the
    model then predicts.
    """
    if not isinstance(result, dict):
        result = {
            "success": result.success,
            "queries": result.queries,
            "location": result.location,
            "perturbation": result.perturbation,
            "adversarial_class": result.adversarial_class,
        }
    location = result["location"]
    perturbation = result["perturbation"]
    adversarial = result["adversarial_class"]
    return (
        bool(result["success"]),
        int(result["queries"]),
        None if location is None else [int(value) for value in location],
        None if perturbation is None else [float(value) for value in perturbation],
        None if adversarial is None else int(adversarial),
    )


def fingerprint(records) -> str:
    text = json.dumps(records, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


if __name__ == "__main__":
    if sys.argv[1:2] != ["--probe-core"] or len(sys.argv) != 3:
        sys.exit("usage: measure.py --probe-core CORE")
    _probe_core(int(sys.argv[2]))

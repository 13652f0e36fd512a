"""In-memory spans around calls into the program's public functions.

The traced runs wrap *instance* attributes (a model's ``forward``, a
broker's ``evaluate``, a classifier's ``batch``) or a module attribute
(``oppsla.evaluate_program``) with timing closures; no file of the
program changes.  Spans are aggregated online per thread -- count, total
time, self time (duration minus the time of wrapped calls nested inside
it on the same thread) and items -- so a long run costs constant memory,
and the aggregates are merged when the run ends.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Callable, Dict, List

perf_counter = time.perf_counter

#: ``repro.nn`` layer classes grouped into the reported kinds; any
#: other module (activations, containers, the model root) is "other".
NN_KINDS = {
    "Conv2d": "conv",
    "MaxPool2d": "pool",
    "AvgPool2d": "pool",
    "GlobalAvgPool2d": "pool",
    "BatchNorm2d": "norm",
    "Linear": "linear",
    "Concat": "concat",
}
NN_REPORTED = ("conv", "pool", "norm", "linear", "concat", "other")


class _ThreadState:
    __slots__ = ("name", "stack", "aggs")

    def __init__(self, name: str):
        self.name = name
        self.stack: List[List[float]] = []
        #: name -> [count, total seconds, self seconds, items]
        self.aggs: Dict[str, List[float]] = {}


class Tracer:
    """Per-thread span stacks with online aggregation."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def begin(self) -> List[float]:
        """Open a span on this thread; returns its frame."""
        frame = [perf_counter(), 0.0]
        self.state().stack.append(frame)
        return frame

    def end(self, name: str, frame: List[float], items: float = 1) -> float:
        """Close ``frame`` as a span called ``name``; returns its duration."""
        duration = perf_counter() - frame[0]
        state = self.state()
        state.stack.pop()
        if state.stack:
            state.stack[-1][1] += duration
        agg = state.aggs.get(name)
        if agg is None:
            agg = state.aggs[name] = [0, 0.0, 0.0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[1]
        agg[3] += items
        return duration

    def timed(self, name: str, fn: Callable, items: Callable = None) -> Callable:
        """``fn`` wrapped in a span; ``items(*args)`` counts its work."""

        def wrapper(*args, **kwargs):
            frame = self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(name, frame, items(*args) if items else 1)

        return wrapper

    def thread_total(self, name: str) -> float:
        """Seconds of closed ``name`` spans on the calling thread so far."""
        agg = self.state().aggs.get(name)
        return agg[1] if agg else 0.0

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Aggregates merged over threads: name -> count/total/self/items."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, agg in state.aggs.items():
                into = merged.setdefault(name, [0, 0.0, 0.0, 0])
                for position in range(4):
                    into[position] += agg[position]
        return {
            name: {"count": c, "total_s": t, "self_s": s, "items": i}
            for name, (c, t, s, i) in merged.items()
        }

    def span_count(self) -> int:
        return int(sum(agg["count"] for agg in self.summary().values()))


def span_cost(samples: int = 20000) -> float:
    """Seconds one span adds to a call, measured on this machine."""

    def noop():
        return None

    wrapped = Tracer().timed("calibration", noop)
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        for _ in range(samples):
            noop()
        bare = perf_counter() - started
        started = perf_counter()
        for _ in range(samples):
            wrapped()
        best = min(best, (perf_counter() - started - bare) / samples)
    return max(best, 0.0)


class TimedClassifier:
    """A classifier whose ``__call__`` and ``batch`` are spans.

    Exposes ``batch`` only when the wrapped classifier has one, so
    :func:`repro.classifier.blackbox.batch_scores` takes the same path
    it would without the wrapper.  Hashes every scored image to count
    how often the model is asked the same question twice (``repeats``).
    """

    def __init__(self, inner, tracer: Tracer, profiler=None):
        self._inner = inner
        self._tracer = tracer
        self._profiler = profiler
        self._seen = set()
        self.repeats = 0
        self.images = 0
        if hasattr(inner, "batch"):
            self.batch = self._span(inner.batch, batched=True)
        self._call = self._span(inner.__call__, batched=False)

    def _span(self, fn, batched: bool):
        tracer = self._tracer

        def call(images):
            self._note(images if batched else [images])
            frame = tracer.begin()
            try:
                if self._profiler is not None:
                    return self._profiler.run(fn, images)
                return fn(images)
            finally:
                tracer.end("classifier", frame, len(images) if batched else 1)

        return call

    def _note(self, images) -> None:
        self.images += len(images)
        for image in images:
            digest = hashlib.blake2b(image.tobytes(), digest_size=16).digest()
            if digest in self._seen:
                self.repeats += 1
            else:
                self._seen.add(digest)

    def __call__(self, image):
        return self._call(image)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ModelProfiler:
    """Spans around every ``repro.nn`` module forward of a model.

    Profiles one forward in ``every``: the module wrappers are installed
    as instance attributes for that forward only, so unprofiled forwards
    run at full speed.  Self times per module kind give each layer
    kind's share of the forward.
    """

    def __init__(self, model, tracer: Tracer, every: int = 1):
        self.tracer = tracer
        self.every = every
        self._calls = 0
        self._wrappers = []
        for module in model.modules():
            kind = NN_KINDS.get(type(module).__name__, "other")
            self._wrappers.append(
                (module, tracer.timed(f"nn.{kind}", module.forward))
            )

    def run(self, fn, images):
        self._calls += 1
        if self._calls % self.every:
            return fn(images)
        for module, wrapper in self._wrappers:
            module.forward = wrapper
        try:
            return fn(images)
        finally:
            for module, _ in self._wrappers:
                del module.forward


def nn_shares(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Each layer kind's share of the profiled forward time."""
    selves = {kind: summary.get(f"nn.{kind}", {}).get("self_s", 0.0) for kind in NN_REPORTED}
    total = sum(selves.values())
    return {
        f"nn.{kind}.share": (value / total if total else 0.0)
        for kind, value in selves.items()
    }

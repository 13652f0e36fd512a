"""``repro.serve`` with spans around its layers, for the traced run.

Builds the same :class:`~repro.serve.server.AttackServer` the real CLI
builds from the same flags, wraps instance attributes only -- the
broker's classifier (``batch``/``__call__``), ``broker.evaluate``,
``submit`` and ``submit_many``, ``sessions.drive``, each session's
``start`` and ``advance`` and every ``repro.nn`` module forward -- and
serves until SIGTERM.  The span
aggregates are written to ``--trace-out`` after the graceful drain::

    PYTHONPATH=src python bench/traced_serve.py --trace-out T.json [serve flags]
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import json
import sys
import threading
import time

from tracing import ModelProfiler, TimedClassifier, Tracer, span_cost

#: Flusher evaluations remembered for attributing forwards to ``submit``.
_FLUSH_MEMORY = 4096


class ServeTrace:
    """The spans of one traced server and the attributions they need."""

    def __init__(self, server):
        self.tracer = Tracer()
        self.start_waits = []  # seconds from submission to driver start
        self.broker_images = 0
        self.broker_wait_s = 0.0  # call time not spent in its own forward
        self._flushes = collections.deque(maxlen=_FLUSH_MEMORY)
        self._lock = threading.Lock()
        broker = server.broker
        model = getattr(broker.classifier, "model", None)
        profiler = ModelProfiler(model, self.tracer) if model is not None else None
        self.classifier = TimedClassifier(
            broker.classifier, self.tracer, profiler=profiler
        )
        broker.classifier = self.classifier
        broker.evaluate = self._evaluate(broker.evaluate)
        broker.submit = self._broker_call("broker.submit", broker.submit, False)
        broker.submit_many = self._broker_call(
            "broker.submit_many", broker.submit_many, True
        )
        server.sessions.drive = self._drive(server.sessions.drive)

    def _evaluate(self, evaluate):
        tracer = self.tracer

        def wrapper(images):
            images = list(images)
            frame = tracer.begin()
            try:
                return evaluate(images)
            finally:
                forward = frame[1]  # the classifier is its only wrapped child
                tracer.end("broker.evaluate", frame, len(images))
                if threading.current_thread().name == "broker-flusher":
                    with self._lock:
                        self._flushes.append(
                            (frame[0], time.perf_counter(), forward)
                        )

        return wrapper

    def _flush_forward(self, start: float, end: float) -> float:
        """Forward time of the last flush that ran inside ``[start, end]``."""
        with self._lock:
            for flush_start, flush_end, forward in reversed(self._flushes):
                if flush_end <= end and flush_start >= start:
                    return forward
                if flush_end < start:
                    break
        return 0.0

    def _broker_call(self, name, call, batched):
        tracer = self.tracer

        def wrapper(arg):
            images = len(arg) if batched else 1
            before = tracer.thread_total("classifier")
            frame = tracer.begin()
            try:
                return call(arg)
            finally:
                started = frame[0]
                duration = tracer.end(name, frame, images)
                # submit_many evaluates on the caller's thread; a scalar
                # submit waits for the flusher thread's evaluation
                forward = (
                    tracer.thread_total("classifier") - before
                    if batched
                    else self._flush_forward(started, started + duration)
                )
                with self._lock:
                    self.broker_images += images
                    self.broker_wait_s += duration - forward

        return wrapper

    def _drive(self, drive):
        tracer = self.tracer

        def wrapper(session):
            with self._lock:
                self.start_waits.append(time.time() - session.created_at)
            # the attack's own work: priming and resuming its generator
            session.start = tracer.timed("attack.step", session.start)
            session.advance = tracer.timed("attack.step", session.advance)
            frame = tracer.begin()
            try:
                return drive(session)
            finally:
                tracer.end("sessions.drive", frame)

        return wrapper

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.tracer.summary(),
            "span_cost_s": span_cost(),
            "start_waits_s": self.start_waits,
            "broker": {
                "images": self.broker_images,
                "wait_s": self.broker_wait_s,
            },
            "classifier": {
                "images": self.classifier.images,
                "repeats": self.classifier.repeats,
            },
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def main(argv=None) -> int:
    from repro.serve.server import AttackServer, ServeConfig, build_parser, serve

    outer = argparse.ArgumentParser(add_help=False)
    outer.add_argument("--trace-out", required=True)
    known, rest = outer.parse_known_args(argv)
    options = vars(build_parser().parse_args(rest))
    if options.pop("cluster"):
        raise SystemExit("traced_serve.py serves one process; trace clusters via /metrics")
    server = AttackServer(ServeConfig(**options))
    trace = ServeTrace(server)
    try:
        asyncio.run(serve(server))
    except KeyboardInterrupt:
        pass
    trace.dump(known.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

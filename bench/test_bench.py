"""Tests of the benchmark harness itself: ``pytest bench/``."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import measure
from measure import ROOT, SRC, BenchError, load_spec, percentile, quartiles

sys.path.insert(0, str(SRC))

import loadgen  # noqa: E402
import serving  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _toy_classifier():
    from repro.serve.server import ServeConfig, build_classifier

    return build_classifier(ServeConfig(**workloads.WORKLOADS["serve_toy"].model))


class TestInputsArePure:
    def test_arrival_schedule_depends_only_on_seed(self):
        first = workloads.arrival_offsets(30.0, 200, seed=4)
        assert first == workloads.arrival_offsets(30.0, 200, seed=4)
        assert first != workloads.arrival_offsets(30.0, 200, seed=5)
        assert first == sorted(first)
        # every seed offers the same load: 200 arrivals in 200 / 30 seconds
        for seed in range(20):
            offsets = workloads.arrival_offsets(30.0, 200, seed)
            assert 0.0 <= offsets[0] and offsets[-1] <= 200 / 30.0

    def test_every_seed_gets_the_same_mix_of_gaps(self):
        # gaps under a tenth of the mean: ~19 of 199 for every seed, where
        # independent exponential gaps would give 19 +- 4
        short = [
            int(np.sum(np.diff(workloads.arrival_offsets(30.0, 200, seed)) < 0.1 / 30.0))
            for seed in range(20)
        ]
        assert max(short) - min(short) <= 2

    @pytest.mark.parametrize("name", ["serve_toy", "cluster_shared"])
    def test_request_bodies_depend_only_on_seed_and_index(self, name):
        workload = workloads.WORKLOADS[name]
        classifier = _toy_classifier()
        _, forward, closed = workloads.sources(workload, 7, classifier)
        _, backward, _ = workloads.sources(workload, 7, classifier)
        bodies = [forward(index).body for index in range(20)]
        assert bodies == [backward(index).body for index in reversed(range(20))][::-1]
        _, other, _ = workloads.sources(workload, 8, classifier)
        assert bodies != [other(index).body for index in range(20)]
        assert bodies != [closed(index).body for index in range(20)]

    def test_labels_are_the_served_models_decision(self):
        workload = workloads.WORKLOADS["serve_toy"]
        classifier = _toy_classifier()
        _, source, _ = workloads.sources(workload, 1, classifier)
        for index in range(10):
            request = source(index)
            assert request.true_class == int(np.argmax(classifier(request.image)))
            assert request.budget == workload.budget


class TestStatistics:
    def test_p90_refuses_fewer_than_100_samples(self):
        with pytest.raises(BenchError, match="at least 100"):
            percentile(list(range(99)), 90)
        assert percentile(list(range(100)), 90) == pytest.approx(89.1)
        assert percentile(list(range(99)), 90, smoke=True) == pytest.approx(88.2)

    def test_median_needs_no_minimum(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_quartile_spread(self):
        stats = quartiles([10.0, 11.0, 12.0, 13.0, 14.0])
        assert stats["median"] == 12.0
        assert stats["spread"] == pytest.approx((stats["q3"] - stats["q1"]) / 12.0)


def test_unstolen_is_the_share_of_busy_or_stolen_time_that_ran():
    assert measure.unstolen((100, 20), (130, 30)) == pytest.approx(0.75)
    assert measure.unstolen((100, 20), (100, 20)) == 1.0  # no work, nothing lost
    busy, stolen = measure.cpu_ticks()
    assert busy > 0 and stolen >= 0
    assert measure.cpu_ticks("cpu0")[0] <= busy


class TestHostSpeed:
    NOMINAL = measure.NOMINAL_REFERENCE_S

    @pytest.fixture
    def host(self, monkeypatch):
        """A fake clock and CPU tick counters; probes take 1 s at half speed."""
        host = types.SimpleNamespace(clock=0.0, ticks=(0, 0))
        monkeypatch.setattr(
            measure, "time",
            types.SimpleNamespace(perf_counter=lambda: host.clock, time=lambda: host.clock),
        )
        monkeypatch.setattr(measure, "cpu_ticks", lambda line="cpu": host.ticks)

        def half_speed_reference():
            host.clock += 1.0
            return 2 * self.NOMINAL

        monkeypatch.setattr(measure, "reference_s", half_speed_reference)
        return host

    def test_intervals_exclude_probes_and_scale_by_them(self, host):
        for probing, expected in ((True, 1.5), (False, 3.0)):
            speed = measure.HostSpeed(probing=probing)
            mark = speed.mark()
            host.clock += 3.0  # the work
            speed.probe(2)
            assert speed.since(mark) == pytest.approx(expected)

    def test_stolen_time_is_taken_out(self, host):
        speed = measure.HostSpeed()
        mark = speed.mark()
        host.clock += 3.0
        host.ticks = (240, 60)  # a fifth of the time work was ready, it waited
        speed.probe(2)
        assert speed.since(mark) == pytest.approx(1.5 * 0.8)

    def test_since_last_uses_the_last_probes_and_the_ticks_before_them(self, host):
        speed = measure.HostSpeed()
        speed.samples = [4 * self.NOMINAL, 2 * self.NOMINAL, 2 * self.NOMINAL, self.NOMINAL]
        speed._ticks = [(0, 0), (100, 100), (200, 100), (300, 100)]
        host.ticks = (300, 100)
        mark = speed.mark()
        host.clock += 3.0
        assert speed.since(mark, last=1) == pytest.approx(3.0)
        # a half-speed host, and a quarter of the ticks since the probe
        # before the last three stolen
        assert speed.since(mark, last=3) == pytest.approx(1.5 * 0.75)
        # no probe before the last four: steal since the mark, none
        assert speed.since(mark, last=4) == pytest.approx(1.5)

    def test_an_interval_without_probes_is_refused(self):
        speed = measure.HostSpeed()
        with pytest.raises(BenchError):
            speed.since(speed.mark())


class TestCoreProbes:
    NOMINAL = measure.NOMINAL_REFERENCE_S

    def _probes(self, per_core, ticks=None):
        """Probes as if ``per_core[c]`` were core ``c``'s (time, ref) samples.

        ``ticks[c]``, if given, holds core ``c``'s ``(busy, stolen)`` tick
        counters at each sample; no core is stolen otherwise.
        """
        probes = measure.CoreProbes()
        probes._times = [[when for when, _ in samples] for samples in per_core]
        probes._refs = [[ref for _, ref in samples] for samples in per_core]
        probes._ticks = ticks or [[(index, 0) for index in range(len(s))] for s in per_core]
        return probes

    def test_median_probe_per_core_averaged_over_cores_and_pieces(self):
        n = self.NOMINAL
        fast = [(t / 10, n) for t in range(41)]  # 0.0 .. 4.0 s
        # the other core runs at half speed for the first two seconds, and
        # one probe there read slower still
        slow = [(t / 10, 2 * n if t <= 20 else n) for t in range(41)]
        slow[2] = (0.2, 4 * n)
        probes = self._probes([fast, slow])
        # one piece among the slow probes: the outlier does not move it
        assert probes.factor(0.3, 0.4) == pytest.approx(1 / 1.5)
        # four pieces; the second one's window is mostly slow probes, the
        # third one's mostly fast ones
        assert probes.factor(1.0, 3.0) == pytest.approx(1 / ((1.5 + 1.5 + 1 + 1) / 4))

    def test_stolen_time_is_not_nominal_time(self):
        n = self.NOMINAL
        samples = [(t / 10, n) for t in range(41)]  # 0.0 .. 4.0 s
        # one core busy throughout, 10 ticks per probe period, and from 2 s
        # on it runs for only half of them; the other core is idle
        busy = [(min(t, 20) * 10 + max(t - 20, 0) * 5, max(t - 20, 0) * 5) for t in range(41)]
        probes = self._probes([samples, samples], ticks=[busy, [(0, 0)] * 41])
        assert probes.factor(0.5, 1.5) == pytest.approx(1.0)
        assert probes.factor(2.5, 3.5) == pytest.approx(0.5)
        # window 1.2 .. 2.8 s: 8 periods of 10 busy ticks, 8 of 5 busy + 5 stolen
        assert probes.unstolen(1.5, 2.5) == pytest.approx(120 / 160)

    def test_an_interval_without_probes_is_refused(self):
        probes = self._probes([[(0.0, self.NOMINAL)], [(10.0, self.NOMINAL)]])
        with pytest.raises(BenchError):
            probes.factor(5.0, 5.1)

    def test_probe_processes_start_and_stop(self):
        import time

        with measure.CoreProbes() as probes:
            procs = list(probes._procs)
            start = time.time()
            time.sleep(0.3)
            end = time.time()
        assert len(procs) == len(os.sched_getaffinity(0))
        assert all(proc.poll() is not None for proc in procs)
        assert 0.0 < probes.factor(start, end) < 10.0
        assert measure.CoreProbes(probing=False).factor(start, end) == 1.0


class TestFirstPoll:
    def test_waits_for_the_low_quantile_of_earlier_durations_of_the_attack(self):
        first = loadgen.FirstPoll()
        assert first.delay("random") == 0.0
        for duration in range(1, 21):  # 0.01 .. 0.20 s
            session = loadgen.Session(request=types.SimpleNamespace(attack="random"), due=0.0)
            session.sent = 5.0
            session.final = {"state": "done", "finished_at": 5.0 + duration / 100}
            first.observe(session)
        assert first.delay("random") == pytest.approx(0.03)
        assert first.delay("fixed") == 0.0  # no history of its own yet


class TestSelfTime:
    def test_nested_spans_subtract_their_children(self, monkeypatch):
        clock = iter([0.0, 1.0, 4.0, 5.0, 7.0, 10.0])
        monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))
        tracer = tracing.Tracer()
        inner = tracer.timed("inner", lambda: None)

        def outer():
            inner()  # 1.0 -> 4.0
            inner()  # 5.0 -> 7.0

        tracer.timed("outer", outer)()  # 0.0 -> 10.0
        summary = tracer.summary()
        assert summary["inner"]["count"] == 2
        assert summary["inner"]["total_s"] == 5.0
        assert summary["inner"]["self_s"] == 5.0
        assert summary["outer"]["total_s"] == 10.0
        assert summary["outer"]["self_s"] == 5.0

    def test_threads_keep_separate_stacks(self):
        import threading

        tracer = tracing.Tracer()
        worker = threading.Thread(target=tracer.timed("other", lambda: None))

        def outer():
            worker.start()
            worker.join(5)

        tracer.timed("outer", outer)()
        summary = tracer.summary()
        # a span on another thread is not the outer span's child
        assert summary["outer"]["self_s"] == summary["outer"]["total_s"]
        assert summary["other"]["count"] == 1

    def test_model_profiler_shares_cover_the_forward(self):
        from repro.classifier.blackbox import NetworkClassifier
        from repro.models.registry import build_model

        tracer = tracing.Tracer()
        classifier = NetworkClassifier(build_model("googlenet", num_classes=10))
        profiler = tracing.ModelProfiler(classifier.model, tracer, every=2)
        timed = tracing.TimedClassifier(classifier, tracer, profiler=profiler)
        images = np.random.default_rng(0).random((4, 8, 8, 3))
        expected = classifier.batch(images)
        for _ in range(4):
            assert np.array_equal(timed.batch(images), expected)
        summary = tracer.summary()
        assert summary["classifier"]["count"] == 4
        assert summary["classifier"]["items"] == 16
        assert summary["nn.concat"]["count"] == 2 * 3  # 2 profiled x 3 modules
        shares = tracing.nn_shares(summary)
        assert sum(shares.values()) == pytest.approx(1.0)
        # unprofiled forwards leave no wrapper behind
        assert all("forward" not in vars(m) for m in classifier.model.modules())


def _served(requests, classifier):
    """Sessions as the load generator records them, answered directly."""
    from repro.core.stepping import drive_steps
    from repro.serve.protocol import build_attack

    sessions = []
    for request in requests:
        result = drive_steps(
            build_attack(request.attack, request.params).steps(
                request.image, request.true_class, budget=request.budget
            ),
            classifier,
        )
        session = loadgen.Session(request=request, due=0.0)
        session.final = {
            "state": "done",
            "queries": result.queries,
            "result": {
                "success": result.success,
                "queries": result.queries,
                "location": list(result.location) if result.location else None,
                "perturbation": None
                if result.perturbation is None
                else np.asarray(result.perturbation, dtype=np.float64).tolist(),
                "adversarial_class": result.adversarial_class,
                "error": result.error,
            },
        }
        sessions.append(session)
    return sessions


class TestCorrectnessGate:
    """The gate as a ``serve_toy`` run applies it, on that workload's inputs."""

    SEED = 3

    @pytest.fixture
    def runs(self):
        classifier = _toy_classifier()
        workload = workloads.WORKLOADS["serve_toy"]
        _, source, _ = workloads.sources(workload, self.SEED, classifier)
        measured = _served([source(index) for index in range(24)], classifier)
        replayed = _served(workloads.replay_requests(workload, self.SEED, classifier), classifier)
        return measured, replayed

    def _gate(self, runs, classifier):
        measured, replayed = runs
        return serving.replay(serving.sample(measured, self.SEED) + replayed, classifier)

    def test_faithful_results_pass(self, runs):
        measured, replayed = runs
        assert serving.check_sessions(measured + replayed) == []
        assert self._gate(runs, _toy_classifier()) == []

    def test_replay_requests_reach_the_success_path(self, runs):
        _, replayed = runs
        assert len(replayed) == workloads.REPLAY_REQUESTS
        results = [session.final["result"] for session in replayed]
        assert all(result["success"] for result in results)
        assert all(result["adversarial_class"] is not None for result in results)

    def test_perturbed_reference_fails(self, runs):
        classifier = _toy_classifier()

        def perturbed(image):
            scores = np.array(classifier(image))
            return scores[::-1]  # a different model's decisions

        violations = self._gate(runs, perturbed)
        assert violations and all("served" in line for line in violations)

    def test_a_changed_perturbation_fails(self, runs):
        _, replayed = runs
        result = replayed[0].final["result"]
        result["perturbation"] = [1.0 - value for value in result["perturbation"]]
        violations = self._gate(runs, _toy_classifier())
        assert len(violations) == 1 and "replay" in violations[0]

    def test_accounting_mismatch_fails(self, runs):
        measured, _ = runs
        measured[0].final["queries"] += 1
        measured[1].final["state"] = "failed"
        violations = serving.check_sessions(measured)
        assert len(violations) == 2


class TestSpec:
    def test_benchmark_json_is_within_its_format_limits(self):
        spec = load_spec()
        assert set(spec) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        }
        assert 2 <= len(spec["workloads"]) <= 8
        assert 1 <= len(spec["end_to_end"]) <= 16
        assert 1 <= len(spec["per_layer"]) <= 128
        assert 1 <= spec["run_seconds"] <= 60
        names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        for entry in spec["workloads"]:
            assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
        for entry in spec["end_to_end"]:
            assert set(entry) == {"name", "unit", "better", "bound"}
            assert 0 < entry["bound"] <= 0.25
        for entry in spec["per_layer"]:
            assert set(entry) == {"name", "unit", "better"}
        for entry in spec["end_to_end"] + spec["per_layer"]:
            assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")
        bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
        assert bounds["setup_s"]["unit"] == "s" and bounds["setup_s"]["better"] == "lower"
        assert bounds["setup_s"]["bound"] == max(e["bound"] for e in spec["end_to_end"])
        assert [entry["name"] for entry in spec["workloads"]] == list(workloads.WORKLOADS)

    def test_runs_fail_without_the_program(self, tmp_path):
        (tmp_path / "bench").mkdir()
        for path in (ROOT / "bench").glob("*.py"):
            (tmp_path / "bench" / path.name).write_text(path.read_text())
        (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "serve_toy", "--seed", "1",
             "--seconds", "2", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace, metric", [(0, "setup_s"), (1, "trace.overhead_frac")])
def test_smoke_runs_every_workload(trace, metric):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    assert verdict["correct"] and verdict["failed"] == 0
    for name in workloads.WORKLOADS:
        assert f"{name}.{metric}" in verdict["metrics"]

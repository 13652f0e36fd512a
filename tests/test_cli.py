"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.runtime.events import RunLog

TINY = [
    "--image-size", "8",
    "--train-per-class", "10",
    "--epochs", "1",
]


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "cifar"
        assert args.arch == "vgg16bn"

    def test_rejects_unknown_arch(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--arch", "alexnet"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table1"])
        assert args.name == "table1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table9"])

    def test_attack_cache_size_zero_accepted(self):
        args = build_parser().parse_args(["attack", "--cache-size", "0"])
        assert args.cache_size == 0

    def test_attack_cache_size_negative_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "--cache-size", "-5"])

    def test_attack_freeze_flag(self, capsys):
        """``repro attack --freeze`` is gone: a zoo classifier is frozen
        already, so the flag changed no score and no query count."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["attack", "--freeze"])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "usage:" in error
        assert "unrecognized arguments: --freeze" in error


class TestCommands:
    def test_train_then_attack(self, cache_dir, capsys):
        assert main(["train", *TINY, "--cache-dir", cache_dir]) == 0
        output = capsys.readouterr().out
        assert "train accuracy" in output

        assert main(
            ["attack", *TINY, "--cache-dir", cache_dir,
             "--images", "3", "--budget", "50"]
        ) == 0
        output = capsys.readouterr().out
        assert "Sketch+False" in output

    def test_attack_with_cache_disabled(self, cache_dir, capsys):
        """Regression: ``--cache-size 0`` used to crash with ``ValueError:
        maxsize must be positive``; it now means "no cache"."""
        main(["train", *TINY, "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(
            ["attack", *TINY, "--cache-dir", cache_dir,
             "--images", "2", "--budget", "40",
             "--cache-size", "0"]
        ) == 0
        assert "Sketch+False" in capsys.readouterr().out

    def test_synthesize_saves_program(self, cache_dir, tmp_path, capsys):
        out = str(tmp_path / "program.json")
        assert main(
            ["synthesize", *TINY, "--cache-dir", cache_dir,
             "--iterations", "1", "--train-images", "2",
             "--per-image-budget", "40", "--out", out]
        ) == 0
        with open(out) as handle:
            payload = json.load(handle)
        assert "best_program" in payload
        output = capsys.readouterr().out
        assert "[B1]" in output

    def test_synthesize_reports_forward_passes(self, cache_dir, tmp_path, capsys):
        log_path = str(tmp_path / "synth.jsonl")
        assert main(
            ["synthesize", *TINY, "--cache-dir", cache_dir,
             "--iterations", "3", "--train-images", "2",
             "--per-image-budget", "40", "--run-log", log_path]
        ) == 0
        output = capsys.readouterr().out
        match = re.search(
            r"# synthesis queries: (\d+) \(forward passes: (\d+)\)", output
        )
        assert match, output
        queries, forwards = map(int, match.groups())
        (summary,) = [
            event for event in RunLog.read(log_path)
            if event["event"] == "synthesis_summary"
        ]
        assert summary["total_queries"] == queries
        assert summary["forwards"] == forwards
        assert 0.0 <= summary["cache_hit_rate"] <= 1.0

    def test_attack_with_synthesized_program(self, cache_dir, tmp_path, capsys):
        out = str(tmp_path / "program.json")
        main(
            ["synthesize", *TINY, "--cache-dir", cache_dir,
             "--iterations", "1", "--train-images", "2",
             "--per-image-budget", "40", "--out", out]
        )
        capsys.readouterr()
        assert main(
            ["attack", *TINY, "--cache-dir", cache_dir,
             "--program", out, "--images", "2", "--budget", "40"]
        ) == 0
        assert "OPPSLA" in capsys.readouterr().out

    def test_attack_sparse_rs_baseline(self, cache_dir, capsys):
        main(["train", *TINY, "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(
            ["attack", *TINY, "--cache-dir", cache_dir,
             "--baseline", "sparse-rs", "--images", "2", "--budget", "30"]
        ) == 0
        assert "Sparse-RS" in capsys.readouterr().out

    def test_attack_parallel_with_run_log(self, cache_dir, tmp_path, capsys):
        """--workers N prints the same summary as a sequential run and
        --run-log captures the structured event stream."""
        main(["train", *TINY, "--cache-dir", cache_dir])
        capsys.readouterr()
        log_path = str(tmp_path / "run.jsonl")
        assert main(
            ["attack", *TINY, "--cache-dir", cache_dir,
             "--images", "3", "--budget", "50",
             "--workers", "2", "--run-log", log_path, "--cache-size", "64"]
        ) == 0
        parallel_output = capsys.readouterr().out
        assert main(
            ["attack", *TINY, "--cache-dir", cache_dir,
             "--images", "3", "--budget", "50"]
        ) == 0
        assert capsys.readouterr().out == parallel_output

        with open(log_path) as handle:
            events = [json.loads(line) for line in handle]
        names = {event["event"] for event in events}
        assert {"run_start", "run_end", "attack_summary"} <= names
        summary = next(e for e in events if e["event"] == "attack_summary")
        assert summary["total_images"] == 3

    def test_experiment_table2_with_tiny_profile(
        self, tmp_path, monkeypatch, capsys
    ):
        """The experiment subcommand end to end, on a tiny profile."""
        from repro.eval import experiments as exp

        tiny = exp.ExperimentProfile(
            name="tiny",
            cifar_size=8,
            imagenet_size=8,
            train_per_class=10,
            test_per_class=4,
            epochs=1,
            test_images=2,
            imagenet_test_images=2,
            cifar_thresholds=(20, 60),
            imagenet_thresholds=(20, 60),
            figure4_max_points=3,
            synthesis_train_images=2,
            synthesis_iterations=1,
            synthesis_per_image_budget=40,
            suopa_population=8,
        )
        monkeypatch.setitem(exp.PROFILES, "tiny", tiny)
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "tiny")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["experiment", "table2"]) == 0
        output = capsys.readouterr().out
        assert "OPPSLA" in output and "Sketch+False" in output


class TestCheckpointFlags:
    def test_parser_checkpoint_defaults(self):
        attack = build_parser().parse_args(["attack"])
        assert attack.checkpoint is None
        synthesize = build_parser().parse_args(["synthesize"])
        assert synthesize.checkpoint is None
        assert synthesize.resume is False
        assert synthesize.checkpoint_interval == 10

    def test_attack_checkpoint_resume_prints_progress(
        self, cache_dir, tmp_path, capsys
    ):
        """Re-running a checkpointed campaign resumes instead of redoing it,
        announces the resume, and reprints an identical summary."""
        main(["train", *TINY, "--cache-dir", cache_dir])
        capsys.readouterr()
        checkpoint = str(tmp_path / "campaign")
        argv = [
            "attack", *TINY, "--cache-dir", cache_dir,
            "--images", "3", "--budget", "50", "--checkpoint", checkpoint,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "resumed" not in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "# resumed 3/3 images, 0 queries replayed" in second
        assert first.strip() in second

    def test_synthesize_checkpoint_resume_prints_iteration(
        self, cache_dir, tmp_path, capsys
    ):
        main(["train", *TINY, "--cache-dir", cache_dir])
        capsys.readouterr()
        checkpoint = str(tmp_path / "chain")
        argv = [
            "synthesize", *TINY, "--cache-dir", cache_dir,
            "--iterations", "1", "--train-images", "2",
            "--per-image-budget", "40", "--checkpoint", checkpoint,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "# resuming MH chain from iteration 1/1" in second
        # the resumed chain reproduces the original program verbatim
        assert [line for line in first.splitlines() if "[" in line] == [
            line for line in second.splitlines() if "[" in line
        ]


class TestCampaignCommands:
    def spec_path(self, tmp_path):
        from repro.testkit.kill import toy_matrix_spec

        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(toy_matrix_spec(images=2, budget=16, campaign_id="cli"))
        )
        return str(path)

    def test_run_report_list_round_trip(self, tmp_path, capsys):
        spec = self.spec_path(tmp_path)
        root = str(tmp_path / "camp")
        assert main(["campaign", "run", "--spec", spec, "--root", root]) == 0
        run_output = capsys.readouterr().out
        assert "[4/4]" in run_output

        assert main(["campaign", "report", "--root", root, "--no-timing"]) == 0
        report = capsys.readouterr().out
        assert "# campaign cli" in report
        assert "4/4 cells complete" in report

        assert main(["campaign", "list", "--root", root]) == 0
        listing = capsys.readouterr().out
        assert listing.count("done  toy.") == 4

    def test_rerun_replays_and_report_is_stable(self, tmp_path, capsys):
        spec = self.spec_path(tmp_path)
        root = str(tmp_path / "camp")
        main(["campaign", "run", "--spec", spec, "--root", root])
        capsys.readouterr()
        main(["campaign", "report", "--root", root, "--no-timing"])
        first = capsys.readouterr().out
        assert main(["campaign", "run", "--spec", spec, "--root", root]) == 0
        assert "replayed" in capsys.readouterr().out
        main(["campaign", "report", "--root", root, "--no-timing"])
        assert capsys.readouterr().out == first

    def test_report_writes_bench_and_csv(self, tmp_path, capsys):
        from repro.campaign.bench import read_bench

        spec = self.spec_path(tmp_path)
        root = str(tmp_path / "camp")
        main(["campaign", "run", "--spec", spec, "--root", root])
        out_path = str(tmp_path / "report.csv")
        assert main([
            "campaign", "report", "--root", root, "--format", "csv",
            "--out", out_path, "--bench-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert "cell,total_images" in open(out_path).read()
        payload = read_bench(str(tmp_path / "BENCH_campaign_cli.json"))
        assert payload["suite"] == "campaign_cli"

    def test_root_with_a_removed_override_reports_and_lists_cleanly(
        self, tmp_path, capsys
    ):
        """A root whose stored spec names ``overrides.freeze`` (written
        before that knob was removed): ``report`` renders it in cell-id
        order, ``list`` exits with a clean error, not a traceback."""
        from repro.runtime.checkpoint import CheckpointStore

        spec = self.spec_path(tmp_path)
        root = str(tmp_path / "camp")
        main(["campaign", "run", "--spec", spec, "--root", root])
        store = CheckpointStore(root)
        manifest = store.manifest()
        manifest["spec"]["overrides"]["freeze"] = False
        store.write_manifest(manifest)
        capsys.readouterr()

        assert main(["campaign", "report", "--root", root, "--no-timing"]) == 0
        rows = [
            line.split(" | ")[0][2:]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("| toy.")
        ]
        assert len(rows) == 4 and rows == sorted(rows)

        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "list", "--root", root])
        assert str(excinfo.value) == "error: unknown overrides: ['freeze']"

    def test_invalid_spec_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"campaign": {"id": "x"}}))
        with pytest.raises(SystemExit):
            main([
                "campaign", "run", "--spec", str(bad),
                "--root", str(tmp_path / "camp"),
            ])

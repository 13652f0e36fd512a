"""Tests for the campaign subsystem: spec, runner, store, report, bench.

The golden files under ``tests/data/`` pin the deterministic report of
the canonical 2x2 toy matrix (``repro.testkit.kill.toy_matrix_spec``);
regenerating them is only legitimate when the attack/classifier
semantics intentionally change.
"""

import json
import os

import pytest

from repro.campaign.bench import (
    BENCH_SCHEMA,
    BenchSchemaError,
    bench_metric,
    bench_payload,
    read_bench,
    validate_bench,
    write_bench,
)
from repro.campaign.report import (
    ReportError,
    campaign_csv,
    campaign_markdown,
    write_campaign_bench,
)
from repro.campaign.runner import (
    build_cell_inputs,
    campaign_status,
    loaded_spec,
    run_campaign,
)
from repro.campaign.spec import CampaignSpec, SpecError, cell_id, cell_seeds
from repro.campaign.store import ResultsStore, StoreError, make_record
from repro.runtime.checkpoint import (
    RECORDS_NAME,
    CheckpointMismatch,
    CheckpointStore,
)
from repro.testkit.kill import (
    kill_and_resume_matrix,
    matrix_fingerprint,
    toy_matrix_spec,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def small_spec(**campaign_overrides):
    """A fast 2x2 toy spec (tiny images, tiny budget) for runner tests."""
    payload = {
        "campaign": {"id": "unit", "seed": 3, "images": 2, "budget": 32},
        "matrix": {
            "models": ["toy-smooth", "toy-linear"],
            "attacks": ["fixed", "random"],
            "datasets": ["toy"],
        },
        "model": {
            "toy-smooth": {"height": 5, "width": 5, "classes": 3},
            "toy-linear": {"height": 5, "width": 5, "classes": 3},
        },
    }
    payload["campaign"].update(campaign_overrides)
    return CampaignSpec.from_dict(payload)


class TestSpecValidation:
    def base(self):
        return {
            "campaign": {"id": "c", "seed": 0, "images": 1, "budget": 8},
            "matrix": {"models": ["toy-smooth"], "attacks": ["fixed"]},
        }

    def test_minimal_spec_validates(self):
        spec = CampaignSpec.from_dict(self.base())
        assert spec.campaign_id == "c"
        assert spec.datasets == ("toy",)  # defaulted
        assert spec.budgets == (8,)  # defaults to campaign.budget

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda p: p.pop("campaign"), "campaign"),
            (lambda p: p["campaign"].pop("id"), "campaign.id"),
            (lambda p: p["campaign"].update(id="bad id!"), "campaign.id"),
            (lambda p: p["campaign"].update(images=0), "campaign.images"),
            (lambda p: p["campaign"].update(images=True), "campaign.images"),
            (lambda p: p["campaign"].update(budget=-1), "campaign.budget"),
            (lambda p: p["campaign"].update(seed=-5), "campaign.seed"),
            (lambda p: p.pop("matrix"), "matrix"),
            (lambda p: p["matrix"].update(models=[]), "matrix.models"),
            (
                lambda p: p["matrix"].update(models=["toy-smooth", "toy-smooth"]),
                "unique",
            ),
            (lambda p: p["matrix"].update(models=["no-such"]), "unknown model"),
            (lambda p: p["matrix"].update(attacks=["no-such"]), "unknown attack"),
            (lambda p: p["matrix"].update(attacks=["program:"]), "unknown attack"),
            (lambda p: p["matrix"].update(datasets=["mnist"]), "unknown dataset"),
            (lambda p: p["matrix"].update(budgets=[0]), "budgets"),
            (lambda p: p["matrix"].update(budgets=[8, 8]), "unique"),
            (lambda p: p.update(bogus={}), "unknown top-level"),
            (lambda p: p.update(model={"toy-linear": {}}), "absent from"),
            (lambda p: p.update(attack={"random": {}}), "absent from"),
            (lambda p: p.update(overrides={"threads": 4}), "unknown overrides"),
            (
                lambda p: p.update(overrides={"cache_size": -1}),
                "cache_size",
            ),
            (lambda p: p.update(overrides={"freeze": "yes"}), "freeze"),
            # a document older versions accepted: the knob is gone
            pytest.param(
                lambda p: p.update(overrides={"freeze": False}),
                "unknown overrides: ['freeze']",
                id="removed-freeze-override",
            ),
        ],
    )
    def test_rejects_and_names_the_field(self, mutate, fragment):
        payload = self.base()
        mutate(payload)
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict(payload)
        assert fragment in str(excinfo.value)

    def test_toy_model_requires_toy_dataset(self):
        payload = self.base()
        payload["matrix"]["datasets"] = ["cifar"]
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict(payload)
        assert "toy" in str(excinfo.value)

    def test_load_toml_and_json_agree(self, tmp_path):
        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(
            "[campaign]\n"
            'id = "c"\n'
            "seed = 0\n"
            "images = 1\n"
            "budget = 8\n"
            "[matrix]\n"
            'models = ["toy-smooth"]\n'
            'attacks = ["fixed"]\n'
        )
        json_path = tmp_path / "spec.json"
        json_path.write_text(json.dumps(self.base()))
        assert (
            CampaignSpec.load(str(toml_path)).fingerprint()
            == CampaignSpec.load(str(json_path)).fingerprint()
        )

    def test_load_rejects_unknown_extension_and_bad_syntax(self, tmp_path):
        with pytest.raises(SpecError):
            CampaignSpec.load(str(tmp_path / "spec.yaml"))
        bad = tmp_path / "spec.json"
        bad.write_text("{not json")
        with pytest.raises(SpecError):
            CampaignSpec.load(str(bad))


class TestExpansion:
    def test_cell_ids_are_stable_and_unique(self):
        spec = CampaignSpec.from_dict(toy_matrix_spec())
        cells = spec.expand()
        ids = [cell.cell_id for cell in cells]
        assert len(set(ids)) == len(ids) == 4
        assert ids[0] == cell_id("toy", "toy-smooth", "fixed", 64)

    def test_expansion_order_follows_listed_axes(self):
        spec = CampaignSpec.from_dict(toy_matrix_spec())
        models = [cell.model for cell in spec.expand()]
        assert models == ["toy-smooth", "toy-smooth", "toy-linear", "toy-linear"]

    def test_seeds_depend_only_on_campaign_seed_and_identity(self):
        """Adding a matrix row must not change any existing cell's seeds."""
        small = CampaignSpec.from_dict(toy_matrix_spec())
        payload = toy_matrix_spec()
        payload["matrix"]["attacks"] = ["fixed", "random", "su-opa"]
        large = CampaignSpec.from_dict(payload)
        small_seeds = {c.cell_id: (c.base_seed, c.data_seed) for c in small.expand()}
        large_seeds = {c.cell_id: (c.base_seed, c.data_seed) for c in large.expand()}
        for identity, seeds in small_seeds.items():
            assert large_seeds[identity] == seeds

    def test_seeds_change_with_campaign_seed(self):
        assert cell_seeds(0, "a.b.c.b8") != cell_seeds(1, "a.b.c.b8")
        assert cell_seeds(0, "a.b.c.b8") != cell_seeds(0, "a.b.c.b16")

    def test_to_dict_round_trips_with_identical_fingerprint(self):
        spec = CampaignSpec.from_dict(toy_matrix_spec())
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again.fingerprint() == spec.fingerprint()

    def test_fingerprint_changes_when_the_matrix_changes(self):
        base = CampaignSpec.from_dict(toy_matrix_spec())
        payload = toy_matrix_spec()
        payload["campaign"]["images"] = 99
        assert CampaignSpec.from_dict(payload).fingerprint() != base.fingerprint()


class TestResultsStore:
    def record(self, cell="a", value=1.0, timestamp=1.0):
        return make_record(
            "camp",
            cell,
            {"success_rate": value},
            git_rev="abc1234",
            timestamp=timestamp,
        )

    def test_append_and_index_round_trip(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        assert store.append(self.record("a")) == 0
        assert store.append(self.record("b")) == 1
        assert store.append(self.record("a", value=0.5, timestamp=2.0)) == 2
        assert store.index() == {"camp::a": [0, 2], "camp::b": [1]}
        reopened = ResultsStore(str(tmp_path))
        assert reopened.index() == {"camp::a": [0, 2], "camp::b": [1]}
        assert len(reopened.query("camp", "a")) == 2
        assert reopened.campaigns() == ["camp"]

    def test_missing_or_stale_index_is_rebuilt(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        store.append(self.record("a"))
        os.remove(store.index_path)
        assert store.index() == {"camp::a": [0]}
        with open(store.index_path, "w") as handle:
            handle.write('{"camp::zzz": [9]}')
        assert store.index() == {"camp::a": [0]}

    def test_torn_tail_is_skipped(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        store.append(self.record("a"))
        with open(store.results_path, "a") as handle:
            handle.write('{"campaign": "camp", "cell": "b"')  # crash mid-write
        assert len(store.records()) == 1
        assert store.index() == {"camp::a": [0]}

    def test_corruption_before_the_tail_raises(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        with open(store.results_path, "w") as handle:
            handle.write("not json\n")
        store.append(self.record("a"))
        with pytest.raises(StoreError):
            store.records()

    def test_append_requires_identity_fields(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        with pytest.raises(StoreError):
            store.append({"cell": "a"})

    def test_trendline_sorts_by_timestamp_and_keeps_gaps(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        store.append(self.record("a", value=0.5, timestamp=2.0))
        store.append(self.record("a", value=0.75, timestamp=1.0))
        record = self.record("a", timestamp=3.0)
        record["summary"] = {}  # a run that never produced the metric
        store.append(record)
        points = store.trendline("camp", "a", "success_rate")
        assert [p[0] for p in points] == [1.0, 2.0, 3.0]
        assert [p[2] for p in points] == [0.75, 0.5, None]


class TestBench:
    def test_payload_validates_and_round_trips(self, tmp_path):
        path = write_bench(
            str(tmp_path),
            "unit",
            [bench_metric("speedup", 2.5, "x")],
            git_rev="abc1234",
            timestamp=1.0,
        )
        assert os.path.basename(path) == "BENCH_unit.json"
        payload = read_bench(path)
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["metrics"][0]["value"] == 2.5

    def test_non_finite_values_become_null(self):
        assert bench_metric("m", float("inf"), "x")["value"] is None
        assert bench_metric("m", float("nan"), "x")["value"] is None

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: p.update(schema="other/9"),
            lambda p: p.pop("git_rev"),
            lambda p: p.update(metrics=[{"name": "m"}]),
            lambda p: p.update(
                metrics=[
                    {"name": "m", "value": 1, "unit": "x"},
                    {"name": "m", "value": 2, "unit": "x"},
                ]
            ),
            lambda p: p.update(metrics=[{"name": "", "value": 1, "unit": "x"}]),
        ],
    )
    def test_validate_rejects_malformed_payloads(self, corrupt):
        payload = bench_payload(
            "unit", [bench_metric("ok", 1.0, "x")], git_rev="r", timestamp=1.0
        )
        corrupt(payload)
        with pytest.raises(BenchSchemaError):
            validate_bench(payload)


class TestRunner:
    def test_run_produces_a_record_per_cell(self, tmp_path):
        spec = small_spec()
        run = run_campaign(spec, str(tmp_path / "camp"))
        assert len(run.outcomes) == 4
        assert all(not outcome.replayed for outcome in run.outcomes)
        for outcome in run.outcomes:
            assert outcome.summary["total_images"] == 2
            assert len(outcome.record["per_image"]) == 2

    def test_rerun_replays_every_cell_identically(self, tmp_path):
        spec = small_spec()
        root = str(tmp_path / "camp")
        first = run_campaign(spec, root)
        second = run_campaign(spec, root)
        assert all(outcome.replayed for outcome in second.outcomes)
        assert [o.record["per_image"] for o in first.outcomes] == [
            o.record["per_image"] for o in second.outcomes
        ]

    def test_cell_granular_resume_after_simulated_kill(self, tmp_path):
        """Dropping the root log's tail simulates a kill between cells:
        the resumed run replays the surviving cells, re-runs the rest,
        and the deterministic fingerprint matches the uninterrupted one."""
        spec = small_spec()
        root = str(tmp_path / "camp")
        run_campaign(spec, root)
        golden = matrix_fingerprint(root)

        records_path = os.path.join(root, RECORDS_NAME)
        with open(records_path) as handle:
            lines = handle.readlines()
        with open(records_path, "w") as handle:
            handle.writelines(lines[:2])

        states = dict(
            (cell.cell_id, state) for cell, state in campaign_status(spec, root)
        )
        assert sorted(states.values()) == ["done", "done", "partial", "partial"]

        resumed = run_campaign(spec, root)
        flags = [outcome.replayed for outcome in resumed.outcomes]
        assert flags == [True, True, False, False]
        assert matrix_fingerprint(root) == golden

    def test_mid_cell_checkpoint_survives_root_log_truncation(self, tmp_path):
        """The re-run of a cell whose root record was lost is itself a
        replay: its per-image checkpoint still holds the results."""
        spec = small_spec()
        root = str(tmp_path / "camp")
        run_campaign(spec, root)
        golden = matrix_fingerprint(root)
        with open(os.path.join(root, RECORDS_NAME), "w"):
            pass  # every cell record lost; per-cell checkpoints intact
        resumed = run_campaign(spec, root)
        assert all(not outcome.replayed for outcome in resumed.outcomes)
        assert matrix_fingerprint(root) == golden

    def test_edited_spec_refuses_to_resume(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointMismatch

        root = str(tmp_path / "camp")
        run_campaign(small_spec(), root)
        with pytest.raises(CheckpointMismatch):
            run_campaign(small_spec(images=3), root)

    def test_results_store_receives_fresh_cells_only(self, tmp_path):
        spec = small_spec()
        root = str(tmp_path / "camp")
        store = ResultsStore(str(tmp_path / "store"))
        run_campaign(spec, root, results_store=store)
        assert len(store.records()) == 4
        run_campaign(spec, root, results_store=store)  # full replay
        assert len(store.records()) == 4
        for identity in (cell.cell_id for cell in spec.expand()):
            points = store.trendline("unit", identity, "success_rate")
            assert len(points) == 1

    def test_loaded_spec_round_trips_from_the_manifest(self, tmp_path):
        spec = small_spec()
        root = str(tmp_path / "camp")
        run_campaign(spec, root)
        assert loaded_spec(root).fingerprint() == spec.fingerprint()

    def test_latency_config_changes_nothing_but_wall_time(self, tmp_path):
        fast = CampaignSpec.from_dict(toy_matrix_spec(images=2, budget=16))
        slow = CampaignSpec.from_dict(
            toy_matrix_spec(images=2, budget=16, latency=0.001)
        )
        run_campaign(fast, str(tmp_path / "fast"))
        run_campaign(slow, str(tmp_path / "slow"))
        fast_print = matrix_fingerprint(str(tmp_path / "fast"))
        slow_print = matrix_fingerprint(str(tmp_path / "slow"))
        # reports embed the spec fingerprint, which legitimately differs
        assert fast_print["cells"] == slow_print["cells"]

    def test_unknown_attack_config_key_is_a_spec_error(self, tmp_path):
        payload = {
            "campaign": {"id": "c", "seed": 0, "images": 1, "budget": 8},
            "matrix": {"models": ["toy-smooth"], "attacks": ["random"]},
            "attack": {"random": {"bogus_knob": 1}},
        }
        spec = CampaignSpec.from_dict(payload)
        with pytest.raises(SpecError):
            run_campaign(spec, str(tmp_path / "camp"))

    def test_fixed_attack_rejects_configuration(self, tmp_path):
        payload = {
            "campaign": {"id": "c", "seed": 0, "images": 1, "budget": 8},
            "matrix": {"models": ["toy-smooth"], "attacks": ["fixed"]},
            "attack": {"fixed": {"seed": 1}},
        }
        spec = CampaignSpec.from_dict(payload)
        with pytest.raises(SpecError):
            run_campaign(spec, str(tmp_path / "camp"))

    def test_toy_inputs_are_deterministic(self):
        spec = small_spec()
        cell = spec.expand()[0]
        _, first = build_cell_inputs(cell)
        _, second = build_cell_inputs(cell)
        assert len(first) == cell.images
        for (image_a, label_a), (image_b, label_b) in zip(first, second):
            assert label_a == label_b
            assert (image_a == image_b).all()


class TestReport:
    def completed_root(self, tmp_path):
        spec = CampaignSpec.from_dict(toy_matrix_spec())
        root = str(tmp_path / "camp")
        run_campaign(spec, root)
        return root

    def test_deterministic_markdown_matches_golden(self, tmp_path):
        root = self.completed_root(tmp_path)
        golden = open(os.path.join(DATA_DIR, "campaign_toy_2x2.md")).read()
        assert campaign_markdown(root, include_timing=False) == golden

    def test_deterministic_csv_matches_golden(self, tmp_path):
        root = self.completed_root(tmp_path)
        golden = open(os.path.join(DATA_DIR, "campaign_toy_2x2.csv")).read()
        assert campaign_csv(root, include_timing=False) == golden

    def test_full_report_adds_timing_columns_and_rev(self, tmp_path):
        root = self.completed_root(tmp_path)
        full = campaign_markdown(root)
        assert "attack s" in full and "wall s" in full
        assert "git rev(s):" in full
        assert "attack s" not in campaign_markdown(root, include_timing=False)

    def test_bench_file_is_valid_and_covers_every_cell(self, tmp_path):
        root = self.completed_root(tmp_path)
        path = write_campaign_bench(root, str(tmp_path))
        payload = read_bench(path)  # read_bench validates
        names = {metric["name"] for metric in payload["metrics"]}
        for cell in CampaignSpec.from_dict(toy_matrix_spec()).expand():
            assert f"{cell.cell_id}/success_rate" in names

    def test_empty_root_raises_report_error(self, tmp_path):
        with pytest.raises(ReportError):
            campaign_markdown(str(tmp_path / "nothing"))

    def test_root_with_a_removed_override_reports_in_cell_id_order(
        self, tmp_path
    ):
        """A root written while specs still took ``overrides.freeze``
        stores a spec this version refuses: it still renders (in cell-id
        order, as a root without a spec does) but does not resume."""
        root = self.completed_root(tmp_path)
        with_freeze_override(root)
        cell_ids = sorted(
            cell.cell_id
            for cell in CampaignSpec.from_dict(toy_matrix_spec()).expand()
        )
        markdown = campaign_markdown(root, include_timing=False)
        rows = [
            line.split(" | ")[0][2:]
            for line in markdown.splitlines()
            if line.startswith("| toy.")
        ]
        assert rows == cell_ids
        csv_rows = campaign_csv(root, include_timing=False).splitlines()[1:]
        assert [row.split(",")[0] for row in csv_rows] == cell_ids
        write_campaign_bench(root, str(tmp_path))
        with pytest.raises(CheckpointMismatch):
            run_campaign(CampaignSpec.from_dict(toy_matrix_spec()), root)


def with_freeze_override(root: str) -> None:
    """Rewrite a campaign root's stored spec as older versions wrote it,
    naming the since-removed ``overrides.freeze``."""
    store = CheckpointStore(root)
    manifest = store.manifest()
    manifest["spec"]["overrides"]["freeze"] = False
    store.write_manifest(manifest)


@pytest.mark.slow
class TestKillAndResumeMatrix:
    def test_sigkilled_matrix_resumes_bit_identical(self, tmp_path):
        """The acceptance bar: SIGKILL a real `repro campaign run`
        subprocess mid-matrix, resume, and the deterministic report is
        byte-identical to an uninterrupted golden run."""
        outcome = kill_and_resume_matrix(str(tmp_path), kill_after=5)
        assert outcome["records_at_kill"] >= 5
        assert outcome["identical"], (
            "resumed campaign diverged from golden run:\n"
            f"golden:\n{outcome['golden']['report']}\n"
            f"resumed:\n{outcome['resumed']['report']}"
        )

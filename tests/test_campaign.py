"""The campaign subsystem: specs, planning, execution, resume, gating, CLI.

The SIGKILL-resume test lives in ``test_campaign_resume.py`` (it drives a
real subprocess); everything else runs here in-process.
"""

import copy
import dataclasses
import json
import os

import pytest

from repro.campaign import (
    Manifest,
    deterministic_view,
    diff_artifacts,
    expand_plan,
    load_artifact,
    load_spec,
    parse_spec,
    run_campaign,
)
from repro.campaign.spec import GateSpec
from repro.errors import CampaignError, CampaignSpecError
from repro.tool.cli import main


def make_spec_dict(**overrides):
    """A small, fast, valid campaign document."""
    data = {
        "format": "qdd-campaign-spec-v1",
        "name": "unit",
        "description": "unit-test sweep",
        "cells": {
            "families": [
                {"family": "ghz", "sizes": [2, 3]},
                {"family": "w", "sizes": [3]},
            ],
            "seeds": [0],
            "repetitions": 1,
            "packages": [{"label": "default"}],
        },
        "gates": [{"metric": "final_nodes", "tolerance_pct": 0.0}],
    }
    data.update(overrides)
    return data


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------


class TestSpecValidation:
    def test_valid_spec_parses(self):
        spec = parse_spec(make_spec_dict())
        assert spec.name == "unit"
        assert [f.family for f in spec.families] == ["ghz", "w"]
        assert spec.gates[0].metric == "final_nodes"

    def test_unknown_top_level_key_rejected(self):
        # Cells always run inline: the removed `execution` block (worker
        # count, per-cell timeout) is an unknown key like any other typo.
        for key, value in (
            ("extra_knob", 1),
            ("execution", {"workers": 0, "cell_timeout": 60.0}),
        ):
            with pytest.raises(CampaignSpecError, match=rf"unknown key\(s\) {key}"):
                parse_spec(make_spec_dict(**{key: value}))

    def test_unknown_cells_key_rejected(self):
        data = make_spec_dict()
        data["cells"]["typo"] = True
        with pytest.raises(CampaignSpecError, match="typo"):
            parse_spec(data)

    def test_unknown_family_rejected(self):
        data = make_spec_dict()
        data["cells"]["families"] = [{"family": "nope", "sizes": [2]}]
        with pytest.raises(CampaignSpecError, match="unknown family"):
            parse_spec(data)

    def test_unknown_family_key_rejected(self):
        data = make_spec_dict()
        data["cells"]["families"] = [
            {"family": "ghz", "sizes": [2], "depth": 4}
        ]
        with pytest.raises(CampaignSpecError, match="depth"):
            parse_spec(data)

    def test_missing_sizes_rejected(self):
        data = make_spec_dict()
        data["cells"]["families"] = [{"family": "ghz"}]
        with pytest.raises(CampaignSpecError, match="sizes"):
            parse_spec(data)

    def test_duplicate_family_labels_rejected(self):
        data = make_spec_dict()
        data["cells"]["families"] = [
            {"family": "ghz", "sizes": [2]},
            {"family": "ghz", "sizes": [4]},
        ]
        with pytest.raises(CampaignSpecError, match="duplicate family labels"):
            parse_spec(data)

    def test_distinct_labels_allow_repeated_family(self):
        data = make_spec_dict()
        data["cells"]["families"] = [
            {"family": "ghz", "sizes": [2], "label": "a"},
            {"family": "ghz", "sizes": [4], "label": "b"},
        ]
        spec = parse_spec(data)
        assert [f.display for f in spec.families] == ["a", "b"]

    def test_duplicate_package_labels_rejected(self):
        data = make_spec_dict()
        data["cells"]["packages"] = [{"label": "x"}, {"label": "x"}]
        with pytest.raises(CampaignSpecError, match="duplicate package labels"):
            parse_spec(data)

    @pytest.mark.parametrize(
        "key,value",
        [("storage", "pooled"), ("use_apply_kernels", False),
         ("identity_skipping", True), ("reorder", "manual"),
         ("sanitize_every", 1), ("budget_nodes", 1000)],
        ids=["storage", "use_apply_kernels", "identity_skipping", "reorder",
             "sanitize_every", "budget_nodes"],
    )
    def test_bad_storage_backend_rejected(self, key, value):
        # There is one DD engine, one gate-application path, one matrix
        # representation and one variable order, the sanitizer cadence
        # comes from REPRO_SANITIZE_EVERY and cells run unbudgeted: a
        # package block naming a storage backend or a retired switch is an
        # unknown key like any other typo.
        data = make_spec_dict()
        data["cells"]["packages"] = [{"label": "x", key: value}]
        with pytest.raises(CampaignSpecError, match=rf"unknown key\(s\) {key}"):
            parse_spec(data)

    def test_bad_mode_rejected(self):
        data = make_spec_dict()
        data["cells"]["families"] = [
            {"family": "ghz", "sizes": [2], "mode": "telepathy"}
        ]
        with pytest.raises(CampaignSpecError, match="mode"):
            parse_spec(data)

    def test_duplicate_gate_metric_rejected(self):
        with pytest.raises(CampaignSpecError, match="duplicate gate"):
            parse_spec(make_spec_dict(gates=[
                {"metric": "final_nodes"}, {"metric": "final_nodes"},
            ]))

    def test_bad_gate_direction_rejected(self):
        with pytest.raises(CampaignSpecError, match="direction"):
            parse_spec(make_spec_dict(gates=[
                {"metric": "final_nodes", "direction": "sideways"},
            ]))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(CampaignSpecError, match="tolerance_pct"):
            parse_spec(make_spec_dict(gates=[
                {"metric": "final_nodes", "tolerance_pct": -1},
            ]))

    def test_bad_format_rejected(self):
        with pytest.raises(CampaignSpecError, match="format"):
            parse_spec(make_spec_dict(format="qdd-campaign-spec-v999"))

    def test_name_with_path_separator_rejected(self):
        with pytest.raises(CampaignSpecError, match="name"):
            parse_spec(make_spec_dict(name="../escape"))

    def test_load_spec_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(make_spec_dict()), encoding="utf-8")
        assert load_spec(str(path)).name == "unit"

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(CampaignSpecError, match="not found"):
            load_spec(str(tmp_path / "absent.json"))

    def test_load_spec_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CampaignSpecError, match="invalid JSON"):
            load_spec(str(path))

    def test_relative_qasm_path_resolved_against_spec_file(self, tmp_path):
        (tmp_path / "bell.qasm").write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
            "h q[0];\ncx q[0],q[1];\n",
            encoding="utf-8",
        )
        data = make_spec_dict()
        data["cells"]["families"] = [
            {"family": "qasm", "sizes": [2], "params": {"path": "bell.qasm"}}
        ]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        spec = load_spec(str(path))
        assert spec.families[0].params["path"] == str(tmp_path / "bell.qasm")


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------


class TestPlanner:
    def test_expansion_is_deterministic(self):
        spec = parse_spec(make_spec_dict())
        first = [cell.cell_id for cell in expand_plan(spec)]
        second = [cell.cell_id for cell in expand_plan(spec)]
        assert first == second
        assert first == [
            "ghz-n2-default-s0-r0",
            "ghz-n3-default-s0-r0",
            "w-n3-default-s0-r0",
        ]

    def test_cross_product_size(self):
        data = make_spec_dict()
        data["cells"]["seeds"] = [0, 1]
        data["cells"]["repetitions"] = 2
        data["cells"]["packages"] = [{"label": "a"}, {"label": "b"}]
        cells = expand_plan(parse_spec(data))
        # (2 + 1) sizes x 2 packages x 2 seeds x 2 reps
        assert len(cells) == 3 * 2 * 2 * 2
        assert len({cell.cell_id for cell in cells}) == len(cells)

    def test_seed_offset_shifts_ids(self):
        # The offset is folded into the spec, as `run_campaign` does it.
        spec = parse_spec(make_spec_dict())
        shifted = expand_plan(
            dataclasses.replace(spec, seeds=tuple(seed + 7 for seed in spec.seeds))
        )
        assert shifted[0].cell_id == "ghz-n2-default-s7-r0"
        assert shifted[0].seed == 7

    def test_duplicate_seeds_refused(self):
        data = make_spec_dict()
        data["cells"]["seeds"] = [3, 3]
        with pytest.raises(CampaignSpecError, match="duplicate cell id"):
            expand_plan(parse_spec(data))


# ----------------------------------------------------------------------
# execution + resume (inline)
# ----------------------------------------------------------------------


class TestRunAndResume:
    def test_inline_run_produces_artifact(self, tmp_path):
        spec = parse_spec(make_spec_dict())
        out = tmp_path / "run"
        artifact = run_campaign(spec, str(out), fresh=True)
        assert artifact["summary"]["ok"] == 3
        assert artifact["cells"]["ghz-n3-default-s0-r0"]["metrics"][
            "final_nodes"] == 5
        for name in ("artifact.json", "report.md", "timeline.svg",
                     "manifest.jsonl", "spec.json"):
            assert (out / name).exists()
        assert deterministic_view(load_artifact(str(out))) == \
            deterministic_view(artifact)

    def test_two_runs_are_deterministic(self, tmp_path):
        spec = parse_spec(make_spec_dict())
        a = run_campaign(spec, str(tmp_path / "a"), fresh=True)
        b = run_campaign(spec, str(tmp_path / "b"), fresh=True)
        assert deterministic_view(a) == deterministic_view(b)

    def test_resume_skips_completed_cells(self, tmp_path):
        spec = parse_spec(make_spec_dict())
        out = str(tmp_path / "run")
        reference = run_campaign(spec, out, fresh=True)

        # Truncate the journal to header + first cell, poisoning the kept
        # record with a marker metric: if resume re-executed that cell the
        # marker would be overwritten by the genuine result.
        manifest_path = os.path.join(out, "manifest.jsonl")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        kept = json.loads(lines[1])
        kept["metrics"]["resume_marker"] = 999
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write(lines[0])
            handle.write(json.dumps(kept) + "\n")

        resumed = run_campaign(spec, out)
        assert resumed["summary"]["ok"] == 3
        assert resumed["cells"][kept["cell_id"]]["metrics"][
            "resume_marker"] == 999
        # Everything else matches an uninterrupted run exactly.
        view = deterministic_view(resumed)
        del view["cells"][kept["cell_id"]]["metrics"]["resume_marker"]
        assert view == deterministic_view(reference)

    def test_resume_tolerates_torn_trailing_line(self, tmp_path):
        spec = parse_spec(make_spec_dict())
        out = str(tmp_path / "run")
        reference = run_campaign(spec, out, fresh=True)
        manifest_path = os.path.join(out, "manifest.jsonl")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        # header + one full record + half of the next (a SIGKILL mid-append)
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write(lines[0] + lines[1] + lines[2][: len(lines[2]) // 2])
        resumed = run_campaign(spec, out)
        assert deterministic_view(resumed) == deterministic_view(reference)

    def test_resume_skips_records_without_string_cell_id(self, tmp_path):
        spec = parse_spec(make_spec_dict())
        out = str(tmp_path / "run")
        reference = run_campaign(spec, out, fresh=True)
        manifest_path = os.path.join(out, "manifest.jsonl")
        with open(manifest_path, "a", encoding="utf-8") as handle:
            for cell_id in (["a"], {"b": 1}, 7, ""):
                handle.write(json.dumps({"cell_id": cell_id, "status": "ok"}))
                handle.write("\n")
        header, records = Manifest(manifest_path).load()
        assert header["planned_cells"] == 3
        assert set(records) == set(reference["cells"])
        resumed = run_campaign(spec, out)
        assert deterministic_view(resumed) == deterministic_view(reference)

    def test_changed_spec_refused_without_fresh(self, tmp_path):
        out = str(tmp_path / "run")
        run_campaign(parse_spec(make_spec_dict()), out, fresh=True)
        other = make_spec_dict()
        other["cells"]["seeds"] = [1]
        with pytest.raises(CampaignError, match="different campaign"):
            run_campaign(parse_spec(other), out)
        # --fresh discards the old journal and runs the new sweep.
        artifact = run_campaign(parse_spec(other), out, fresh=True)
        assert artifact["summary"]["ok"] == 3

    def test_failed_cell_is_isolated(self, tmp_path):
        data = make_spec_dict()
        # bellpairs rejects odd sizes -> one failed cell among ok ones.
        data["cells"]["families"] = [
            {"family": "ghz", "sizes": [2]},
            {"family": "bellpairs", "sizes": [3]},
        ]
        artifact = run_campaign(
            parse_spec(data), str(tmp_path / "run"), fresh=True
        )
        statuses = artifact["summary"]["statuses"]
        assert statuses == {"failed": 1, "ok": 1}
        failed = artifact["cells"]["bellpairs-n3-default-s0-r0"]
        assert "even number" in failed["error"]

    def test_non_repro_exception_is_isolated(self, tmp_path):
        data = make_spec_dict()
        # A dangling qasm path raises FileNotFoundError inside the cell;
        # the sweep must record it as 'failed' and keep going.
        data["cells"]["families"] = [
            {"family": "ghz", "sizes": [2]},
            {"family": "qasm", "sizes": [3],
             "params": {"path": str(tmp_path / "missing.qasm")}},
        ]
        artifact = run_campaign(
            parse_spec(data), str(tmp_path / "run"), fresh=True
        )
        assert artifact["summary"]["statuses"] == {"failed": 1, "ok": 1}
        failed = artifact["cells"]["qasm-n3-default-s0-r0"]
        assert "FileNotFoundError" in failed["error"]

    def test_seed_offset_folds_into_journal(self, tmp_path):
        spec = parse_spec(make_spec_dict())
        out = str(tmp_path / "run")
        artifact = run_campaign(spec, out, seed_offset=5, fresh=True)
        assert "ghz-n2-default-s5-r0" in artifact["cells"]
        # The journaled spec copy carries the shifted seeds, so a blind
        # resume of the directory continues the offset sweep.
        with open(os.path.join(out, "spec.json"), encoding="utf-8") as handle:
            assert json.load(handle)["cells"]["seeds"] == [5]
        manifest = Manifest(os.path.join(out, "manifest.jsonl"))
        header, records = manifest.load()
        assert header["planned_cells"] == 3
        assert set(records) == set(artifact["cells"])


# ----------------------------------------------------------------------
# gating
# ----------------------------------------------------------------------


def _artifact_with_cells(cells):
    return {
        "format": "qdd-campaign-artifact-v1",
        "campaign": "unit",
        "cells": cells,
        "spec": {"gates": []},
    }


def _cell(status="ok", metrics=None, timing=None):
    return {
        "status": status,
        "metrics": metrics or {},
        "timing": timing or {},
        "counts": None,
        "error": None,
    }


class TestGating:
    def test_identical_artifacts_pass(self):
        art = _artifact_with_cells({"c1": _cell(metrics={"final_nodes": 5})})
        report = diff_artifacts(art, copy.deepcopy(art),
                                gates=[GateSpec(metric="final_nodes")])
        assert report.ok and report.passed == 1 and not report.regressions

    def test_drift_beyond_zero_tolerance_fails(self):
        base = _artifact_with_cells({"c1": _cell(metrics={"final_nodes": 5})})
        cur = _artifact_with_cells({"c1": _cell(metrics={"final_nodes": 6})})
        report = diff_artifacts(cur, base,
                                gates=[GateSpec(metric="final_nodes")])
        assert not report.ok
        finding = report.regressions[0]
        assert (finding.cell_id, finding.metric) == ("c1", "final_nodes")
        assert finding.delta == 1.0
        assert "5 -> 6" in report.render()

    def test_exactly_at_tolerance_passes(self):
        base = _artifact_with_cells({"c1": _cell(metrics={"m": 100})})
        cur = _artifact_with_cells({"c1": _cell(metrics={"m": 110})})
        gate = GateSpec(metric="m", tolerance_pct=10.0)
        assert diff_artifacts(cur, base, gates=[gate]).ok
        cur_over = _artifact_with_cells({"c1": _cell(metrics={"m": 111})})
        assert not diff_artifacts(cur_over, base, gates=[gate]).ok

    def test_zero_baseline_with_pct_only_gate(self):
        # allowance = max(0, |0| * pct) = 0 -> any drift fails ...
        base = _artifact_with_cells({"c1": _cell(metrics={"m": 0})})
        cur = _artifact_with_cells({"c1": _cell(metrics={"m": 1})})
        gate_pct = GateSpec(metric="m", tolerance_pct=50.0)
        assert not diff_artifacts(cur, base, gates=[gate_pct]).ok
        # ... unless an absolute floor admits it.
        gate_abs = GateSpec(metric="m", tolerance_pct=50.0, tolerance_abs=1.0)
        assert diff_artifacts(cur, base, gates=[gate_abs]).ok

    def test_one_sided_increase_gate(self):
        base = _artifact_with_cells({"c1": _cell(metrics={"m": 100})})
        better = _artifact_with_cells({"c1": _cell(metrics={"m": 50})})
        worse = _artifact_with_cells({"c1": _cell(metrics={"m": 150})})
        gate = GateSpec(metric="m", direction="increase")
        assert diff_artifacts(better, base, gates=[gate]).ok
        assert not diff_artifacts(worse, base, gates=[gate]).ok

    def test_one_sided_decrease_gate(self):
        base = _artifact_with_cells({"c1": _cell(metrics={"m": 100})})
        grown = _artifact_with_cells({"c1": _cell(metrics={"m": 150})})
        gate = GateSpec(metric="m", direction="decrease")
        assert diff_artifacts(grown, base, gates=[gate]).ok

    def test_baseline_ok_cell_missing_in_current_fails(self):
        base = _artifact_with_cells({"c1": _cell(metrics={"m": 1})})
        cur = _artifact_with_cells({})
        report = diff_artifacts(cur, base, gates=[GateSpec(metric="m")])
        assert not report.ok and report.missing_cells == ["c1"]

    def test_baseline_ok_cell_crashed_in_current_fails(self):
        base = _artifact_with_cells({"c1": _cell(metrics={"m": 1})})
        cur = _artifact_with_cells({"c1": _cell(status="crashed")})
        report = diff_artifacts(cur, base, gates=[GateSpec(metric="m")])
        assert not report.ok and report.missing_cells == ["c1"]

    def test_baseline_failed_cell_cannot_regress(self):
        base = _artifact_with_cells({"c1": _cell(status="failed")})
        cur = _artifact_with_cells({"c1": _cell(status="failed")})
        assert diff_artifacts(cur, base, gates=[GateSpec(metric="m")]).ok

    def test_new_cells_reported_but_not_failed(self):
        base = _artifact_with_cells({})
        cur = _artifact_with_cells({"c9": _cell(metrics={"m": 1})})
        report = diff_artifacts(cur, base, gates=[GateSpec(metric="m")])
        assert report.ok and report.new_cells == ["c9"]

    def test_metric_missing_one_side_fails(self):
        base = _artifact_with_cells({"c1": _cell(metrics={"m": 1})})
        cur = _artifact_with_cells({"c1": _cell(metrics={})})
        report = diff_artifacts(cur, base, gates=[GateSpec(metric="m")])
        assert not report.ok
        assert "missing from the current" in report.regressions[0].reason

    def test_metric_missing_both_sides_is_skipped(self):
        base = _artifact_with_cells({"c1": _cell(metrics={})})
        cur = _artifact_with_cells({"c1": _cell(metrics={})})
        report = diff_artifacts(cur, base, gates=[GateSpec(metric="m")])
        assert report.ok and report.passed == 0

    def test_timing_metrics_reachable_by_gates(self):
        base = _artifact_with_cells(
            {"c1": _cell(timing={"wall_seconds": 1.0})})
        cur = _artifact_with_cells(
            {"c1": _cell(timing={"wall_seconds": 3.0})})
        gate = GateSpec(metric="wall_seconds", tolerance_pct=50.0,
                        direction="increase")
        assert not diff_artifacts(cur, base, gates=[gate]).ok

    def test_gates_default_to_current_artifact_spec(self):
        base = _artifact_with_cells({"c1": _cell(metrics={"m": 1})})
        cur = _artifact_with_cells({"c1": _cell(metrics={"m": 2})})
        cur["spec"] = {"gates": [{"metric": "m"}]}
        assert not diff_artifacts(cur, base).ok


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCampaignCli:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "unit.json"
        path.write_text(json.dumps(make_spec_dict()), encoding="utf-8")
        return str(path)

    def test_run_report_diff_roundtrip(self, spec_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["campaign", "run", spec_file, "--out", out,
                     "--quiet"]) == 0
        assert "3/3 cells ok" in capsys.readouterr().out

        assert main(["campaign", "report", out]) == 0
        assert "# Campaign report: unit" in capsys.readouterr().out

        # Self-diff passes and exits 0.
        assert main(["campaign", "diff", out, out]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_gated_against_regressed_baseline(self, spec_file, tmp_path,
                                                  capsys):
        out = str(tmp_path / "out")
        assert main(["campaign", "run", spec_file, "--out", out,
                     "--quiet"]) == 0
        capsys.readouterr()

        baseline = json.loads(
            (tmp_path / "out" / "artifact.json").read_text(encoding="utf-8"))
        cell = baseline["cells"]["ghz-n3-default-s0-r0"]
        cell["metrics"]["final_nodes"] -= 2  # current now looks regressed
        regressed = tmp_path / "baseline.json"
        regressed.write_text(json.dumps(baseline), encoding="utf-8")

        assert main(["campaign", "diff", out, str(regressed)]) == 1
        printed = capsys.readouterr().out
        assert "FAIL" in printed and "final_nodes" in printed

    def test_diff_json_output(self, spec_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["campaign", "run", spec_file, "--out", out, "--quiet"])
        capsys.readouterr()
        assert main(["campaign", "diff", out, out, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["regressions"] == []

    def test_resume_command_uses_journaled_spec(self, spec_file, tmp_path,
                                                capsys):
        out = str(tmp_path / "out")
        assert main(["campaign", "run", spec_file, "--out", out,
                     "--quiet"]) == 0
        capsys.readouterr()
        # Drop every cell record; resume replays the sweep from spec.json.
        manifest = os.path.join(out, "manifest.jsonl")
        with open(manifest, "r", encoding="utf-8") as handle:
            header = handle.readline()
        with open(manifest, "w", encoding="utf-8") as handle:
            handle.write(header)
        assert main(["campaign", "resume", out, "--quiet"]) == 0
        assert "3/3 cells ok" in capsys.readouterr().out

    def test_resume_refuses_non_campaign_directory(self, tmp_path, capsys):
        assert main(["campaign", "resume", str(tmp_path)]) != 0
        assert "no spec.json" in capsys.readouterr().err

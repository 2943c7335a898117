"""Resume after SIGKILL — the executor's durability contract, end to end.

Launches ``qdd-tool campaign run`` as a real subprocess, SIGKILLs it once
the journal shows partial progress, then resumes in-process and checks:

* cells journaled before the kill are **not** re-executed (each appears
  exactly once in the manifest afterwards);
* the final aggregate is identical (modulo wall-clock timing) to an
  uninterrupted run of the same spec.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import deterministic_view, load_spec, run_campaign

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

# ~0.1s per cell on one core: slow enough to land a kill mid-campaign,
# fast enough that the uninterrupted reference run stays cheap.
SPEC = {
    "format": "qdd-campaign-spec-v1",
    "name": "killable",
    "description": "SIGKILL resume fixture",
    "cells": {
        "families": [
            {"family": "random", "sizes": [10], "params": {"depth": 80}},
        ],
        "seeds": list(range(20)),
        "packages": [{"label": "default"}],
    },
    "gates": [{"metric": "final_nodes", "tolerance_pct": 0.0}],
}


def _cell_lines(manifest_path):
    """The journaled cell records (header excluded, torn lines skipped)."""
    if not os.path.exists(manifest_path):
        return []
    records = []
    with open(manifest_path, "r", encoding="utf-8") as handle:
        for line in handle:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and entry.get("cell_id"):
                records.append(entry)
    return records


@pytest.mark.slow
def test_sigkill_then_resume(tmp_path):
    spec_path = tmp_path / "killable.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    out = tmp_path / "out"
    manifest_path = os.path.join(str(out), "manifest.jsonl")

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run", str(spec_path),
         "--out", str(out), "--quiet"],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if len(_cell_lines(manifest_path)) >= 2:
                break
            if process.poll() is not None:
                pytest.fail(
                    "campaign subprocess exited before it could be killed"
                )
            time.sleep(0.01)
        else:
            pytest.fail("campaign subprocess made no journal progress")
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)

    survivors = _cell_lines(manifest_path)
    survivor_ids = [record["cell_id"] for record in survivors]
    assert len(survivor_ids) >= 2
    assert len(survivor_ids) < 20, "kill landed after the campaign finished"

    spec = load_spec(str(spec_path))
    resumed = run_campaign(spec, str(out))
    assert resumed["summary"]["ok"] == 20
    assert resumed["summary"]["statuses"] == {"ok": 20}

    # Completed cells were not re-executed: each pre-kill record is still
    # journaled exactly once (a re-run would have appended a second line).
    after = [record["cell_id"] for record in _cell_lines(manifest_path)]
    for cell_id in survivor_ids:
        assert after.count(cell_id) == 1, cell_id
    assert sorted(after) == sorted(
        f"random-n10-default-s{seed}-r0" for seed in range(20)
    )

    # The aggregate matches an uninterrupted run of the same spec.
    reference = run_campaign(spec, str(tmp_path / "reference"), fresh=True)
    assert deterministic_view(resumed) == deterministic_view(reference)

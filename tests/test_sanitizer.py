"""Tests for the DD sanitizer: clean runs, wiring, CLI, no false positives."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dd import DDPackage, NormalizationScheme
from repro.dd.pooled import MATRIX, VECTOR
from repro.errors import SanitizerError
from repro.qc import library
from repro.qc.gates import gate_matrix
from repro.sanitizer import DDSanitizer, SanitizeReport, Violation, sanitize_package
from repro.simulation.simulator import DDSimulator
from repro.verification import (
    ApplicationStrategy,
    check_equivalence_alternating,
)

DATA = Path(__file__).parent / "data"


# ----------------------------------------------------------------------
# clean packages produce zero violations
# ----------------------------------------------------------------------

def test_fresh_package_is_clean(package):
    report = package.sanitize()
    assert report.ok
    assert report.violations == []
    assert report.complex_entries_checked >= 2  # at least the seeds


def test_clean_after_state_construction(package):
    state = package.from_state_vector([0.5, 0.5j, -0.5, 0.5])
    package.incref(state)
    report = package.sanitize()
    assert report.ok, report.summary()
    assert report.nodes_checked >= 2
    assert report.roots_checked >= 1


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_clean_after_random_circuits(seed):
    pkg = DDPackage(sanitize_every=1)
    circuit = library.random_circuit(4, 25, seed=seed)
    simulator = DDSimulator(circuit, package=pkg)
    simulator.run_all()
    assert pkg.sanitize_runs > 0
    assert pkg.sanitize_violations == 0
    report = pkg.sanitize()
    assert report.ok, report.summary()
    simulator.close()


@pytest.mark.parametrize(
    "factory",
    [
        lambda: library.ghz_state(4),
        lambda: library.qft(3),
        lambda: library.grover(3, marked=5),
    ],
    ids=["ghz", "qft", "grover"],
)
def test_clean_on_library_circuits(factory):
    pkg = DDPackage(sanitize_every=1)
    simulator = DDSimulator(factory(), package=pkg)
    simulator.run_all()
    assert pkg.sanitize().ok
    simulator.close()


def test_clean_under_max_magnitude_scheme():
    pkg = DDPackage(
        vector_scheme=NormalizationScheme.MAX_MAGNITUDE, sanitize_every=1
    )
    simulator = DDSimulator(library.random_circuit(4, 30, seed=9), package=pkg)
    simulator.run_all()
    assert pkg.sanitize().ok
    simulator.close()


def test_clean_through_verification_and_gc():
    pkg = DDPackage(sanitize_every=1)
    circuit = library.qft(3)
    result = check_equivalence_alternating(circuit, circuit.copy(), package=pkg)
    assert result.equivalent
    pkg.gc(force=True)  # post-GC sanitize hook runs here
    assert pkg.sanitize_violations == 0
    assert pkg.last_sanitize_report is not None
    assert pkg.last_sanitize_report.ok


def test_sanitize_creates_no_node_views():
    """The sanitizer reads the pool arrays: one run leaves every view
    cache of the engine as it found it."""
    pkg = DDPackage()
    simulator = DDSimulator(library.random_circuit(8, 60, seed=10), package=pkg)
    simulator.run_all()
    engine = pkg._pooled

    def view_counts():
        gc.collect()
        return (
            len(engine._views[VECTOR]),
            len(engine._views[MATRIX]),
            len(engine._identity_views),
        )

    before = view_counts()
    assert pkg.sanitize().ok
    assert view_counts() == before
    simulator.close()


def test_example_12_peak_unchanged_with_sanitizer():
    """Paper Ex. 12: QFT3 alternating check peaks at 9 nodes, not 21 —
    the sanitizer must observe, never change, the computation."""
    pkg = DDPackage(sanitize_every=1)
    result = check_equivalence_alternating(
        library.qft(3),
        library.qft_compiled(3),
        strategy=ApplicationStrategy.COMPILATION_FLOW,
        package=pkg,
    )
    assert result.equivalent
    assert result.max_nodes == 9
    assert pkg.sanitize_runs > 0
    assert pkg.sanitize_violations == 0


# ----------------------------------------------------------------------
# wiring: op boundaries, environment variable, stats, functional API
# ----------------------------------------------------------------------

def test_sanitize_every_triggers_at_op_boundaries():
    pkg = DDPackage(sanitize_every=2)
    state = pkg.zero_state(2)
    hadamard = pkg.single_qubit_gate(2, gate_matrix("h"), 0)
    before = pkg.sanitize_runs
    for _ in range(4):
        state = pkg.multiply(hadamard, state)
    # 4 multiplies at every=2 -> exactly 2 op-boundary runs (construction
    # helpers above may add more; count the delta).
    assert pkg.sanitize_runs - before == 2


def test_sanitize_every_zero_disables():
    pkg = DDPackage(sanitize_every=0)
    state = pkg.zero_state(2)
    hadamard = pkg.single_qubit_gate(2, gate_matrix("h"), 0)
    pkg.multiply(hadamard, state)
    assert pkg.sanitize_runs == 0


def test_sanitize_every_env_variable(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "3")
    assert DDPackage().sanitize_every == 3
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "not-a-number")
    assert DDPackage().sanitize_every == 0
    monkeypatch.delenv("REPRO_SANITIZE_EVERY")
    assert DDPackage().sanitize_every == 0
    # Explicit argument wins over the environment.
    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "7")
    assert DDPackage(sanitize_every=0).sanitize_every == 0


def test_stats_has_sanitizer_section(package):
    package.sanitize()
    section = package.stats()["sanitizer"]
    assert section["runs"] == 1
    assert section["violations"] == 0


def test_sanitize_metrics_counters():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    pkg = DDPackage(registry=registry)
    pkg.sanitize()
    assert registry.counter("dd_sanitize_runs_total").value == 1
    assert registry.counter("dd_sanitize_violations_total").value == 0


def test_sanitize_package_function(package):
    report = sanitize_package(package, raise_on_violation=True)
    assert isinstance(report, SanitizeReport)
    assert report.ok


def test_report_shapes(package):
    report = DDSanitizer(package).run()
    data = report.as_dict()
    assert data["ok"] is True
    assert data["violations"] == []
    assert "OK" in report.summary()
    violation = Violation("demo-check", "broken", "node #1")
    assert "demo-check" in str(violation)
    failing = SanitizeReport(violations=[violation])
    assert not failing.ok
    assert failing.checks_failed == ("demo-check",)
    with pytest.raises(SanitizerError) as excinfo:
        failing.raise_if_violations()
    assert excinfo.value.report is failing


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _run_cli(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_cli_sanitize_clean_circuit(tmp_path):
    out = tmp_path / "report.json"
    result = _run_cli(
        "sanitize", str(DATA / "adder.qasm"), "--json-out", str(out)
    )
    assert result.returncode == 0, result.stderr
    assert "sanitize: OK" in result.stdout
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["circuit"] == "adder"
    assert payload["violations"] == []
    assert payload["runs"] > 0


def test_cli_sanitize_every_flag():
    result = _run_cli("sanitize", str(DATA / "iqft4.qasm"), "--every", "5")
    assert result.returncode == 0, result.stderr
    assert "every 5 operation(s)" in result.stdout


def test_cli_sanitize_missing_file():
    result = _run_cli("sanitize", "no-such-circuit.qasm")
    assert result.returncode == 2
    assert "error:" in result.stderr

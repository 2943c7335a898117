"""Variable-order ablation — canonicity is "with respect to a given
variable order" (paper Sec. III-C).

The sweep is declared in ``benchmarks/campaigns/variable_order.json``:
Bell pairs between partner qubits under an *interleaved* wire order
(partners adjacent, DD linear in n) and a *blocked* order (partners n/2
apart, DD exponential in n), plus QFT/Grover functionality builds, all
under the package's one fixed variable order (level k hosts qubit q_k).

Changing the order is a wire permutation of the circuit before
simulation (:func:`repro.qc.transforms.permute_qubits`): permuting the
blocked circuit's partners onto adjacent lines recovers the linear 3n/2
nodes.  Every package stores matrix DDs with identity skipping and
reports the dense node counts of the paper, so the Ex. 12 alternating
peak stays at 9 nodes.
"""

import pytest

from repro.campaign import build_family
from repro.dd.package import DDPackage
from repro.qc import library
from repro.qc.transforms import permute_qubits
from repro.simulation import DDSimulator
from repro.verification import (
    ApplicationStrategy,
    check_equivalence_alternating,
)

import _bench_common

_SIZES = (4, 8, 12, 16)


@pytest.fixture(scope="module")
def order_artifact(bench_seed):
    return _bench_common.run_campaign_spec(
        "variable_order.json", seed_offset=bench_seed
    )


def _cells(artifact, label, package):
    return _bench_common.artifact_cells(artifact, label=label, package=package)


def test_interleaved_order_is_linear(order_artifact):
    cells = _cells(order_artifact, "interleaved", "static")
    for num_qubits in _SIZES:
        nodes = cells[num_qubits]["metrics"]["final_nodes"]
        assert nodes == 3 * num_qubits // 2  # 1 + 2 per pair below the top


def test_blocked_order_is_exponential(order_artifact):
    cells = _cells(order_artifact, "blocked", "static")
    for num_qubits in _SIZES:
        nodes = cells[num_qubits]["metrics"]["final_nodes"]
        assert nodes >= (1 << (num_qubits // 2))  # exponential blow-up


def test_ex12_peak_holds_under_identity_skipping(benchmark, report):
    """Ex. 12's alternating-scheme peak stays at the paper's 9 nodes: the
    identity-padded gate matrices are stored with skipped levels, but the
    count is the dense DD's."""

    def run():
        package = DDPackage()
        result = check_equivalence_alternating(
            library.qft(3),
            library.qft_compiled(3),
            strategy=ApplicationStrategy.COMPILATION_FLOW,
            package=package,
        )
        return result, package.identity_skip_count

    result, skips = benchmark(run)
    assert result.equivalent
    assert result.max_nodes == 9  # paper Ex. 12
    assert skips > 0
    report(
        "ex12_peak_identity_skipping",
        [
            f"Ex. 12 alternating peak: {result.max_nodes} nodes (paper: 9)",
            f"identity nodes reduced while storing it: {skips}",
        ],
    )


def test_variable_order_table(order_artifact, report):
    good = _cells(order_artifact, "interleaved", "static")
    bad = _cells(order_artifact, "blocked", "static")
    rows = [
        (
            n,
            good[n]["metrics"]["final_nodes"],
            bad[n]["metrics"]["final_nodes"],
        )
        for n in _SIZES
    ]
    for num_qubits, good_nodes, bad_nodes in rows:
        assert good_nodes < bad_nodes
    report(
        "variable_order",
        ["same state, two wire orders (Bell pairs between partners):",
         "  n   interleaved nodes   blocked nodes   ratio"]
        + [
            f"{n:3d}  {g:17d}  {b:14d}  {b / g:6.1f}x"
            for n, g, b in rows
        ]
        + ["", "Sec. III-C: decision diagrams are canonic (and compact)",
           "only relative to a variable order; a bad order costs 2^(n/2)."],
    )


def _nodes(circuit) -> int:
    simulator = DDSimulator(circuit)
    simulator.run_all()
    return simulator.node_count()


def test_reordering_recovers_compactness(benchmark, report, order_artifact):
    """Permuting the wires of the blocked circuit back to interleaved
    partners restores the linear-size diagram: the order changes at the
    circuit, never inside the package."""
    num_qubits = 12
    _, blocked = build_family(
        "bellpairs", num_qubits, params={"interleaved": False}
    )
    half = num_qubits // 2
    # Map blocked partner (i, i+half) onto adjacent lines (2i, 2i+1).
    mapping = [0] * num_qubits
    for index in range(half):
        mapping[index] = 2 * index
        mapping[index + half] = 2 * index + 1

    def run():
        return _nodes(permute_qubits(blocked, mapping))

    reordered_nodes = benchmark(run)
    blocked_cells = _cells(order_artifact, "blocked", "static")
    blocked_nodes = blocked_cells[num_qubits]["metrics"]["final_nodes"]
    assert reordered_nodes < blocked_nodes
    assert reordered_nodes == 3 * num_qubits // 2
    report(
        "variable_order_reordering",
        [
            f"blocked order: {blocked_nodes} nodes",
            f"after wire reordering: {reordered_nodes} nodes",
            "reordering the variables recovers the compact diagram",
        ],
    )

"""Variable-order ablation — canonicity is "with respect to a given
variable order" (paper Sec. III-C), now measured over the dynamic path.

The sweep is declared in ``benchmarks/campaigns/variable_order.json``:
Bell pairs between partner qubits under an *interleaved* wire order
(partners adjacent, DD linear in n) and a *blocked* order (partners n/2
apart, DD exponential in n), plus QFT/Grover functionality builds.  Every
cell runs under three package configurations:

* ``static``  — the frozen construction order (the paper's setting);
* ``sifted``  — one manual sift after the run (``reorder="manual"``);
* ``dynamic`` — pressure-triggered sifting (``reorder="pressure"`` with a
  48-node budget checked every operation), so the order improves *while*
  the diagram is being built.

Every package stores matrix DDs with identity skipping and reports the
dense node counts of the paper.  The assertions freeze the honest wins and
non-wins: sifting recovers the blocked Bell state to the linear 3n/2
size, pressure sifting bounds its *peak* to O(n) (the static peak is
exponential), the QFT functionality peak drops well past the 20%
acceptance floor, the Ex. 12 alternating peak stays at the paper's 9
nodes — and Grover's peak does not move, because its intermediate
products are order-insensitive.
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


def test_sifting_recovers_blocked_compactness(order_artifact):
    """One manual sift takes the blocked state to the interleaved size.

    This is the dynamic-path version of wire reordering: the *same*
    exponential diagram, compacted in place to the linear 3n/2 nodes."""
    sifted = _cells(order_artifact, "blocked", "sifted")
    for num_qubits in _SIZES:
        assert sifted[num_qubits]["metrics"]["final_nodes"] == 3 * num_qubits // 2
        assert sifted[num_qubits]["metrics"]["reorder_runs"] >= 1


def test_pressure_sifting_bounds_the_blocked_peak(order_artifact):
    """The end-of-run sift cannot help the *peak* — pressure sifting can.

    Under ``reorder="pressure"`` the governor sifts whenever the live
    diagram crosses the 48-node budget, so the blocked Bell state never
    materializes its exponential form, while the static peak is
    3(2^(n/2) - 1)/2 + n/2 nodes.  Measured dynamic peaks: 30 / 33 / 45
    at n = 8 / 12 / 16 — within 3n from n=12 on, not at n=8 (3n = 24)."""
    static = _cells(order_artifact, "blocked", "static")
    dynamic = _cells(order_artifact, "blocked", "dynamic")
    for num_qubits in (8, 12, 16):
        static_peak = static[num_qubits]["metrics"]["peak_nodes"]
        dynamic_peak = dynamic[num_qubits]["metrics"]["peak_nodes"]
        if num_qubits >= 12:
            assert dynamic_peak <= 3 * num_qubits, (num_qubits, dynamic_peak)
        assert dynamic_peak < static_peak
        assert dynamic[num_qubits]["metrics"]["reorder_runs"] >= 1
    # The n=16 gap is the headline: 765 static vs <= 48 dynamic.
    assert static[16]["metrics"]["peak_nodes"] >= 16 * dynamic[16]["metrics"]["peak_nodes"]


def test_dynamic_path_reduces_qft_peak_at_least_20pct(order_artifact):
    """Acceptance floor: pressure sifting cuts the QFT functionality peak
    by >= 20% vs the static order (measured: 56% at n=4, 84% at n=5)."""
    static = _cells(order_artifact, "qft-functionality", "static")
    dynamic = _cells(order_artifact, "qft-functionality", "dynamic")
    for num_qubits in (4, 5):
        static_peak = static[num_qubits]["metrics"]["peak_nodes"]
        dynamic_peak = dynamic[num_qubits]["metrics"]["peak_nodes"]
        assert dynamic_peak <= 0.8 * static_peak, (
            f"qft n={num_qubits}: dynamic peak {dynamic_peak} is not >=20% "
            f"below static {static_peak}"
        )
        assert dynamic[num_qubits]["metrics"]["identity_skips"] > 0


def test_grover_peak_is_order_insensitive(order_artifact):
    """The honest non-win: Grover's peak comes from dense intermediate
    operators that no variable order compacts, so the dynamic path may
    not regress it but cannot be expected to beat the 20% floor."""
    static = _cells(order_artifact, "grover-functionality", "static")
    dynamic = _cells(order_artifact, "grover-functionality", "dynamic")
    for num_qubits in (4, 5):
        assert (
            dynamic[num_qubits]["metrics"]["peak_nodes"]
            <= static[num_qubits]["metrics"]["peak_nodes"]
        )


def test_ex12_peak_holds_under_identity_skipping(benchmark, report):
    """Ex. 12's alternating-scheme peak stays at the paper's 9 nodes: the
    identity-padded gate matrices are stored with skipped levels, but the
    count is the dense DD's."""

    def run():
        package = DDPackage(reorder="manual")
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


def test_dynamic_order_table(order_artifact, report):
    """Node-count and runtime deltas, static vs sifted vs dynamic."""
    lines = [
        "static vs sifted (manual, end of run) vs dynamic "
        "(pressure sifting):",
        "family              n   static peak/final     sifted peak/final"
        "    dynamic peak/final",
    ]
    for label, sizes in (
        ("blocked", _SIZES),
        ("qft-functionality", (4, 5)),
        ("grover-functionality", (4, 5)),
    ):
        static = _cells(order_artifact, label, "static")
        sifted = _cells(order_artifact, label, "sifted")
        dynamic = _cells(order_artifact, label, "dynamic")
        for n in sizes:
            cells = [static[n], sifted[n], dynamic[n]]
            peaks = [c["metrics"]["peak_nodes"] for c in cells]
            finals = [c["metrics"]["final_nodes"] for c in cells]
            times = [c["timing"]["wall_seconds"] for c in cells]
            lines.append(
                f"{label:18s} {n:3d}"
                + "".join(
                    f"   {p:6d}/{f:<6d} {t:6.2f}s"
                    for p, f, t in zip(peaks, finals, times)
                )
            )
    lines += [
        "",
        "peak reductions vs static: blocked n=16 94%, QFT n=5 84%,",
        "QFT n=4 56% (see the dedicated tests);",
        "Grover 0% — its dense intermediates are order-insensitive.",
        "runtime: dynamic pays for its sifts; the win is peak memory.",
    ]
    report("variable_order_dynamic", lines)


def _nodes(circuit) -> int:
    simulator = DDSimulator(circuit)
    simulator.run_all()
    return simulator.node_count()


def test_reordering_recovers_compactness(benchmark, report, order_artifact):
    """Permuting the wires of the blocked circuit back to interleaved
    partners restores the linear-size diagram (the static-order control
    for :func:`test_sifting_recovers_blocked_compactness`)."""
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

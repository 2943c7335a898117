"""Campaign cell execution — the function the executor runs per cell.

A cell builds its *own* :class:`~repro.dd.package.DDPackage` from the
cell's package options (tolerance, normalization scheme), constructs the
circuit for its family/size/seed, runs it in the requested mode, and
returns a plain dict of metrics.  Every cell starts from a cold, isolated
table: a campaign's whole point is comparing package configurations.

Results split **metrics** (deterministic for a given seed and code
version: node counts, operation counts, table sizes — what regression
gates compare) from **timing** (wall-clock — reported, chartable, but
only gated when a spec explicitly opts a timing metric in).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, Tuple

from repro.errors import CampaignError

__all__ = ["build_family", "known_families", "run_cell"]


def _build_qft(size, seed, params):
    from repro.qc import library

    return "circuit", library.qft(size, include_swaps=params.get("include_swaps", True))


def _build_qft_compiled(size, seed, params):
    from repro.qc import library

    return "circuit", library.qft_compiled(
        size, include_swaps=params.get("include_swaps", True)
    )


def _build_grover(size, seed, params):
    from repro.qc import library

    marked = params.get("marked", (1 << size) - 1)
    return "circuit", library.grover(size, marked, params.get("iterations"))


def _build_ghz(size, seed, params):
    from repro.qc import library

    return "circuit", library.ghz_state(size)


def _build_w(size, seed, params):
    from repro.qc import library

    return "circuit", library.w_state(size)


def _build_random(size, seed, params):
    from repro.qc import library

    depth = params.get("depth")
    if depth is None:
        depth = int(params.get("depth_factor", 4)) * size
    return "circuit", library.random_circuit(
        size,
        depth,
        seed=seed,
        two_qubit_probability=params.get("two_qubit_probability", 0.3),
    )


def _build_bellpairs(size, seed, params):
    """Bell pairs between partner qubits — the variable-order workload.

    ``interleaved`` partners (2i+1, 2i) sit adjacent (DD linear in n);
    otherwise partners (i + n/2, i) sit n/2 apart (DD exponential in n).
    """
    from repro.qc import QuantumCircuit

    if size % 2:
        raise CampaignError("bellpairs needs an even number of qubits")
    interleaved = bool(params.get("interleaved", True))
    circuit = QuantumCircuit(size)
    half = size // 2
    for index in range(half):
        if interleaved:
            top, bottom = 2 * index + 1, 2 * index
        else:
            top, bottom = index + half, index
        circuit.h(top)
        circuit.cx(top, bottom)
    return "circuit", circuit


def _build_dense_random(size, seed, params):
    """A Haar-ish dense random state vector — the exponential worst case."""
    import numpy as np

    rng = np.random.default_rng(seed)
    vector = rng.normal(size=1 << size) + 1j * rng.normal(size=1 << size)
    vector /= np.linalg.norm(vector)
    return "vector", vector


def _build_qasm(size, seed, params):
    """A paper-example circuit loaded from an OpenQASM file (``params.path``)."""
    from repro.qc.qasm.parser import parse_qasm

    path = params.get("path")
    if not path:
        raise CampaignError("the qasm family needs params.path")
    with open(path, "r", encoding="utf-8") as handle:
        return "circuit", parse_qasm(handle.read())


#: family name -> builder(size, seed, params) -> ("circuit", QuantumCircuit)
#: or ("vector", ndarray).
_FAMILIES: Dict[str, Callable[..., Tuple[str, Any]]] = {
    "qft": _build_qft,
    "qft_compiled": _build_qft_compiled,
    "grover": _build_grover,
    "ghz": _build_ghz,
    "w": _build_w,
    "random": _build_random,
    "bellpairs": _build_bellpairs,
    "dense_random": _build_dense_random,
    "qasm": _build_qasm,
}


def known_families() -> Tuple[str, ...]:
    """Names accepted in a spec's ``family`` field."""
    return tuple(_FAMILIES)


def build_family(
    family: str, size: int, seed: int = 0, params: Dict[str, Any] = None
) -> Tuple[str, Any]:
    """Build one family instance directly: ``("circuit"|"vector", value)``.

    The same builders cells use, exposed for benchmarks and tests that
    want the circuit object itself (e.g. to transform it before running).
    """
    if family not in _FAMILIES:
        raise CampaignError(f"unknown circuit family {family!r}")
    return _FAMILIES[family](size, seed, params or {})


def _make_package(options: Dict[str, Any]):
    from repro.dd.normalization import NormalizationScheme
    from repro.dd.package import DDPackage
    from repro.obs.metrics import MetricsRegistry

    # A dark registry keeps the cell hot path free of instrumentation.
    kwargs: Dict[str, Any] = {"registry": MetricsRegistry(enabled=False)}
    if options.get("tolerance") is not None:
        kwargs["tolerance"] = float(options["tolerance"])
    if options.get("vector_scheme"):
        kwargs["vector_scheme"] = NormalizationScheme(options["vector_scheme"])
    return DDPackage(**kwargs)


def run_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one planned cell and return its result record."""
    family = payload.get("family")
    if family not in _FAMILIES:
        raise CampaignError(f"unknown circuit family {family!r}")
    size = int(payload["size"])
    seed = int(payload.get("seed", 0))
    params = payload.get("params") or {}
    mode = payload.get("mode", "simulate")
    shots = int(payload.get("shots") or 0)
    kind, built = _FAMILIES[family](size, seed, params)

    package = _make_package(payload.get("package") or {})
    start = perf_counter()
    metrics: Dict[str, Any]
    counts = None
    if kind == "vector":
        root = package.incref(package.from_state_vector(built))
        peak_nodes = package.node_count(root)
        metrics = {
            "num_qubits": size,
            "operations": 0,
            "final_nodes": package.node_count(root),
            "peak_nodes": peak_nodes,
        }
        if shots:
            counts = _sample(package, root, shots, seed)
    elif mode == "functionality":
        from repro.errors import CircuitError
        from repro.qc.dd_builder import gate_to_dd
        from repro.qc.operations import BarrierOp

        if built.has_nonunitary_operations:
            raise CircuitError(
                "only purely unitary circuits have a functionality matrix; "
                "remove measurements, resets and classical conditions"
            )
        # Gate-by-gate with incref discipline (new root registered before
        # the old one is released): the governor sees live roots, and the
        # recorded peak is the true construction peak rather than the
        # final count.
        root = package.incref(package.identity(built.num_qubits))
        peak_nodes = package.node_count(root)
        for operation in built:
            if isinstance(operation, BarrierOp):
                continue
            gate_dd = gate_to_dd(package, operation, built.num_qubits)
            stepped = package.incref(package.multiply(gate_dd, root))
            package.decref(root)
            root = stepped
            peak_nodes = max(peak_nodes, package.node_count(root))
        metrics = {
            "num_qubits": built.num_qubits,
            "operations": len(built),
            "final_nodes": package.node_count(root),
            "peak_nodes": peak_nodes,
        }
    elif mode == "dense":
        from repro.simulation.statevector import StatevectorSimulator

        simulator = StatevectorSimulator(built, seed=seed)
        simulator.run()
        metrics = {
            "num_qubits": built.num_qubits,
            "operations": len(built),
            "final_nodes": None,
            "peak_nodes": None,
        }
    else:  # simulate
        from repro.simulation.simulator import DDSimulator

        simulator = DDSimulator(built, package=package, seed=seed)
        try:
            simulator.run_all()
            metrics = {
                "num_qubits": built.num_qubits,
                "operations": len(built),
                "final_nodes": simulator.node_count(),
                "peak_nodes": simulator.peak_node_count,
                "classical_bits": list(simulator.classical_bits),
            }
            if shots:
                counts = _sample(package, simulator.state, shots, seed)
        finally:
            simulator.close()
    wall_seconds = perf_counter() - start

    if mode != "dense":
        governance = package.governor.stats()
        metrics["complex_entries"] = int(governance["complex_entries"])
        metrics["table_bytes"] = int(governance["table_bytes"])
        metrics["sanitize_runs"] = package.sanitize_runs
        metrics["sanitize_violations"] = package.sanitize_violations
        metrics["identity_skips"] = package.identity_skip_count
    return {
        "cell_id": payload.get("cell_id"),
        "metrics": metrics,
        "timing": {"wall_seconds": wall_seconds},
        "counts": counts,
    }


def _sample(package, root, shots: int, seed: int):
    import numpy as np

    from repro.dd import sampling

    rng = np.random.default_rng(seed)
    return sampling.sample_counts(package, root, shots, rng)

"""Noise models and noisy circuit simulation.

A :class:`NoiseModel` maps gates to the channels applied after them: a
default single-qubit channel, a (typically stronger) channel for every
line of a multi-qubit gate, and an optional channel applied to the
measured qubit before each measurement.  :class:`NoisySimulator` runs a
circuit under such a model — an exact density-matrix simulation, so the
reported fidelities and distributions carry no sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.dd import density
from repro.dd.package import DDPackage
from repro.noise.channels import KrausChannel, apply_channel
from repro.qc.circuit import QuantumCircuit
from repro.qc.operations import GateOp
from repro.simulation.density_simulator import Branch, DensityMatrixSimulator


@dataclass(frozen=True)
class NoiseModel:
    """Which channel follows which operation.

    Attributes
    ----------
    single_qubit:
        Channel applied to the target of every single-qubit gate.
    two_qubit:
        Channel applied to *every* line (targets and controls) of every
        multi-qubit gate.
    measurement:
        Channel applied to the measured qubit right before a measurement
        (models readout error as a pre-measurement flip).
    per_gate:
        Overrides by gate name (e.g. ``{"t": weaker_channel}``).
    """

    single_qubit: Optional[KrausChannel] = None
    two_qubit: Optional[KrausChannel] = None
    measurement: Optional[KrausChannel] = None
    per_gate: Dict[str, KrausChannel] = field(default_factory=dict)

    def channel_for(self, operation: GateOp) -> Optional[KrausChannel]:
        override = self.per_gate.get(operation.gate)
        if override is not None:
            return override
        if len(operation.qubits) > 1:
            return self.two_qubit
        return self.single_qubit


class NoisySimulator(DensityMatrixSimulator):
    """Exact density-matrix simulation under a :class:`NoiseModel`.

    Channels are applied after each gate (to every line the gate touches)
    and before each measurement (to the measured qubit).
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        noise_model: NoiseModel,
        package: Optional[DDPackage] = None,
        prune_threshold: float = 1e-12,
    ):
        super().__init__(circuit, package=package, prune_threshold=prune_threshold)
        self.noise_model = noise_model

    def _apply_gate(self, operation: GateOp) -> None:
        super()._apply_gate(operation)
        channel = self.noise_model.channel_for(operation)
        if channel is None or channel.is_identity:
            return
        self._apply_channel_to_branches(channel, operation.qubits)

    def _measure(self, qubit: int, clbit: int) -> None:
        if self.noise_model.measurement is not None:
            self._apply_channel_to_branches(self.noise_model.measurement, (qubit,))
        super()._measure(qubit, clbit)

    def _apply_channel_to_branches(
        self, channel: KrausChannel, qubits: Tuple[int, ...]
    ) -> None:
        updated = []
        for branch in self._branches:
            rho = branch.rho
            for qubit in qubits:
                rho = apply_channel(self.package, rho, channel, qubit)
            updated.append(Branch(branch.probability, branch.classical_bits, rho))
        self._branches = updated

    def fidelity_with_ideal(self) -> float:
        """``<psi_ideal| rho |psi_ideal>`` against the noiseless run.

        Only defined for unitary circuits (no measurements/resets).
        """
        from repro.qc.dd_builder import apply_gate as apply_unitary_gate
        from repro.qc.operations import BarrierOp

        ideal = self.package.zero_state(self.circuit.num_qubits)
        for operation in self.circuit:
            if isinstance(operation, BarrierOp):
                continue
            if not isinstance(operation, GateOp) or not operation.is_unitary:
                raise ValueError(
                    "fidelity_with_ideal requires a unitary circuit"
                )
            ideal = apply_unitary_gate(self.package, ideal, operation)
        return density.fidelity_with_state(self.package, self.state(), ideal)

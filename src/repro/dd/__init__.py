"""Decision-diagram package for quantum computing.

This subpackage re-implements, in pure Python, the decision-diagram machinery
the paper builds on (Zulehner/Hillmich/Wille, "How to efficiently handle
complex values? Implementing decision diagrams for quantum computing",
ICCAD 2019): a complex-number table for canonical edge weights, hash-consed
vector and matrix nodes, compute tables, normalization schemes, and the
arithmetic needed for simulation and verification (addition, matrix-vector
and matrix-matrix multiplication, tensor products, adjoints) together with
measurement, sampling and reset.

Every diagram uses one fixed variable order: level ``k`` hosts qubit
``q_k``.  The order sensitivity of paper Sec. III-C is reproduced by
permuting circuit wires before simulation
(:func:`repro.qc.transforms.permute_qubits`), not inside the package.

The central entry point is :class:`repro.dd.DDPackage`.
"""

from repro.dd.apply import apply_controlled, apply_single_qubit
from repro.dd.complex_table import ComplexTable
from repro.dd.edge import Edge
from repro.dd.governance import GcStats, MemoryBudget, PressureLevel, ResourceGovernor
from repro.dd.node import MatrixNode, Node, TERMINAL, VectorNode
from repro.dd.normalization import NormalizationScheme
from repro.dd.expectation import expectation_hamiltonian, expectation_pauli, pauli_string_dd
from repro.dd.package import DDPackage
from repro.dd.pool import NodePool, PooledUniqueTable, WeightPool
from repro.dd.pooled import PooledEngine, PooledMatrixNode, PooledVectorNode

__all__ = [
    "ComplexTable",
    "DDPackage",
    "NodePool",
    "PooledEngine",
    "PooledMatrixNode",
    "PooledUniqueTable",
    "PooledVectorNode",
    "WeightPool",
    "GcStats",
    "MemoryBudget",
    "PressureLevel",
    "ResourceGovernor",
    "apply_controlled",
    "apply_single_qubit",
    "Edge",
    "MatrixNode",
    "Node",
    "NormalizationScheme",
    "TERMINAL",
    "expectation_hamiltonian",
    "expectation_pauli",
    "pauli_string_dd",
    "VectorNode",
]

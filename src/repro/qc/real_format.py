"""Parser for the RevLib ``.real`` reversible-circuit format.

The paper's tool accepts circuit files "in either .qasm or .real format"
(Sec. IV-B).  ``.real`` describes reversible circuits over NOT, CNOT,
Toffoli (``t<n>``), Fredkin (``f<n>``), Peres and V/V+ gates:

.. code-block:: text

    .version 2.0
    .numvars 3
    .variables a b c
    .constants --0
    .garbage -- -
    .begin
    t3 a b c
    t2 a b
    t1 a
    .end

Variables map to qubit lines in declaration order: the first variable is
the *most significant* qubit (line ``n-1``), matching RevLib's convention
of listing the top wire first and the paper's big-endian ordering.
Negative-control polarity markers (``-`` prefix on a control, RevLib 2.0)
are supported.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import CircuitTooLargeError, ParseError
from repro.qc.circuit import QuantumCircuit
from repro.qc.qasm.parser import MAX_BITS


def parse_real(source: str, name: str = "real") -> QuantumCircuit:
    """Parse RevLib ``.real`` source text into a circuit."""
    variables: List[str] = []
    num_vars: Optional[int] = None
    constants: Optional[str] = None
    gates: List[Tuple[str, List[str], int]] = []
    in_body = False
    ended = False
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            directive, _, remainder = line.partition(" ")
            directive = directive.lower()
            remainder = remainder.strip()
            if directive == ".version":
                continue
            if directive == ".numvars":
                try:
                    num_vars = int(remainder)
                except ValueError:
                    raise ParseError(f"invalid .numvars {remainder!r}", line_number)
                if num_vars > MAX_BITS:
                    raise CircuitTooLargeError(
                        f".numvars {num_vars} exceeds the cap of {MAX_BITS} lines",
                        line_number,
                    )
                continue
            if directive == ".variables":
                variables = remainder.split()
                continue
            if directive in (".inputs", ".outputs", ".inputbus", ".outputbus",
                             ".state", ".module", ".garbage", ".define"):
                continue
            if directive == ".constants":
                constants = remainder.replace(" ", "")
                continue
            if directive == ".begin":
                in_body = True
                continue
            if directive == ".end":
                ended = True
                break
            raise ParseError(f"unknown directive {directive!r}", line_number)
        if not in_body:
            raise ParseError(f"gate before .begin: {line!r}", line_number)
        parts = line.split()
        gates.append((parts[0].lower(), parts[1:], line_number))
    if not ended and in_body:
        raise ParseError("missing .end directive")
    if num_vars is None:
        raise ParseError("missing .numvars directive")
    if not variables:
        variables = [f"x{i}" for i in range(num_vars)]
    if len(variables) != num_vars:
        raise ParseError(
            f".numvars says {num_vars} but .variables lists {len(variables)}"
        )
    # First declared variable = most significant qubit (top wire).
    line_of: Dict[str, int] = {
        variable: num_vars - 1 - position for position, variable in enumerate(variables)
    }
    circuit = QuantumCircuit(num_vars, name=name)
    if constants is not None:
        if len(constants) != num_vars:
            raise ParseError(
                f".constants length {len(constants)} does not match "
                f"{num_vars} variables"
            )
        for position, value in enumerate(constants):
            if value == "1":
                circuit.x(num_vars - 1 - position)
            elif value not in "0-":
                raise ParseError(f"invalid constant marker {value!r}")
    for gate_name, operands, line_number in gates:
        _append_gate(circuit, gate_name, operands, line_of, line_number)
    return circuit


def _resolve(
    operands: List[str], line_of: Dict[str, int], line_number: int, targets: int = 1
) -> Tuple[List[int], List[int]]:
    """Split operands into (positive-control/target lines, negative lines);
    at least ``targets`` lines must be positive."""
    positive: List[int] = []
    negative: List[int] = []
    for operand in operands:
        inverted = operand.startswith("-")
        variable = operand[1:] if inverted else operand
        if variable not in line_of:
            raise ParseError(f"unknown variable {variable!r}", line_number)
        (negative if inverted else positive).append(line_of[variable])
    if len(positive) < targets:
        raise ParseError(f"the gate needs {targets} positive target line(s)", line_number)
    return positive, negative


def _append_gate(
    circuit: QuantumCircuit,
    gate_name: str,
    operands: List[str],
    line_of: Dict[str, int],
    line_number: int,
) -> None:
    kind = gate_name[0]
    if gate_name in ("v", "v+"):
        positive, negative = _resolve(operands, line_of, line_number)
        base = "sxdg" if gate_name.endswith("+") else "sx"
        circuit.gate(
            base, [positive[-1]], controls=positive[:-1], negative_controls=negative
        )
        return
    if kind in ("t", "f", "p", "v") and len(gate_name) > 1:
        try:
            declared = int(gate_name[1:].rstrip("+"))
        except ValueError:
            raise ParseError(f"unknown gate {gate_name!r}", line_number)
        if declared != len(operands):
            raise ParseError(
                f"gate {gate_name!r} expects {declared} operands, "
                f"got {len(operands)}",
                line_number,
            )
    if kind == "t":  # Toffoli family: t1 = NOT, t2 = CNOT, t<n> = MCT
        positive, negative = _resolve(operands, line_of, line_number)
        target = positive[-1]
        circuit.gate(
            "x", [target], controls=positive[:-1], negative_controls=negative
        )
        return
    if kind == "f":  # Fredkin family: last two operands are swapped
        positive, negative = _resolve(operands, line_of, line_number, targets=2)
        a, b = positive[-2], positive[-1]
        high, low = (a, b) if a > b else (b, a)
        circuit.gate(
            "swap", [high, low], controls=positive[:-2], negative_controls=negative
        )
        return
    if kind == "v":  # controlled sqrt-of-NOT with a count suffix (v3, v3+)
        positive, negative = _resolve(operands, line_of, line_number)
        base = "sxdg" if gate_name.endswith("+") else "sx"
        circuit.gate(
            base, [positive[-1]], controls=positive[:-1], negative_controls=negative
        )
        return
    if kind == "p":  # Peres: p3 a b c = t3 a b c ; t2 a b
        positive, negative = _resolve(operands, line_of, line_number)
        if len(positive) != 3 or negative:
            raise ParseError("Peres gates take three positive lines", line_number)
        a, b, c = positive
        circuit.gate("x", [c], controls=[a, b])
        circuit.gate("x", [b], controls=[a])
        return
    raise ParseError(f"unknown gate {gate_name!r}", line_number)


def parse_real_file(path: str) -> QuantumCircuit:
    """Parse a ``.real`` file into a circuit (named after the file)."""
    import os

    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_real(source, name=name)

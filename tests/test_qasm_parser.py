"""Unit tests for the OpenQASM 2.0 parser."""

import math

import numpy as np
import pytest

from repro.errors import CircuitTooLargeError, ParseError
from repro.qc.operations import BarrierOp, GateOp, MeasureOp, ResetOp
from repro.qc.qasm import parse_qasm, parser
from repro.simulation import build_unitary

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


class TestHeader:
    def test_version_required(self):
        with pytest.raises(ParseError):
            parse_qasm("qreg q[1];")

    def test_unsupported_version(self):
        with pytest.raises(ParseError):
            parse_qasm("OPENQASM 3.0;\nqreg q[1];")

    def test_include_other_file_rejected(self):
        with pytest.raises(ParseError):
            parse_qasm('OPENQASM 2.0;\ninclude "other.inc";\nqreg q[1];')

    def test_include_optional(self):
        circuit = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0];")
        assert circuit.num_qubits == 1


class TestFileIncludes:
    def test_local_include_spliced(self, tmp_path):
        from repro.qc.qasm import parse_qasm_file

        (tmp_path / "mygates.inc").write_text(
            "gate bell a, b { h a; cx a, b; }\n"
        )
        (tmp_path / "main.qasm").write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            'include "mygates.inc";\nqreg q[2];\nbell q[1], q[0];\n'
        )
        circuit = parse_qasm_file(str(tmp_path / "main.qasm"))
        assert [op.gate for op in circuit] == ["h", "x"]

    def test_nested_includes(self, tmp_path):
        from repro.qc.qasm import parse_qasm_file

        (tmp_path / "inner.inc").write_text("gate foo a { x a; }\n")
        (tmp_path / "outer.inc").write_text(
            'include "inner.inc";\ngate bar a { foo a; foo a; }\n'
        )
        (tmp_path / "main.qasm").write_text(
            'OPENQASM 2.0;\ninclude "outer.inc";\nqreg q[1];\nbar q[0];\n'
        )
        circuit = parse_qasm_file(str(tmp_path / "main.qasm"))
        assert [op.gate for op in circuit] == ["x", "x"]

    def test_include_cycle_detected(self, tmp_path):
        from repro.qc.qasm import parse_qasm_file

        (tmp_path / "a.inc").write_text('include "b.inc";\n')
        (tmp_path / "b.inc").write_text('include "a.inc";\n')
        (tmp_path / "main.qasm").write_text(
            'OPENQASM 2.0;\ninclude "a.inc";\nqreg q[1];\n'
        )
        with pytest.raises(ParseError):
            parse_qasm_file(str(tmp_path / "main.qasm"))

    def test_missing_include_still_errors(self, tmp_path):
        from repro.qc.qasm import parse_qasm_file

        (tmp_path / "main.qasm").write_text(
            'OPENQASM 2.0;\ninclude "nope.inc";\nqreg q[1];\n'
        )
        with pytest.raises(ParseError):
            parse_qasm_file(str(tmp_path / "main.qasm"))


class TestRegisters:
    def test_multiple_qregs_concatenate(self):
        circuit = parse_qasm(HEADER + "qreg a[2]; qreg b[3]; x b[0];")
        assert circuit.num_qubits == 5
        assert circuit[0].targets == (2,)  # b[0] is line 2

    def test_duplicate_register_rejected(self):
        with pytest.raises(ParseError):
            parse_qasm(HEADER + "qreg q[1]; creg q[1];")

    def test_zero_size_rejected(self):
        with pytest.raises(ParseError):
            parse_qasm(HEADER + "qreg q[0];")

    def test_no_quantum_register_rejected(self):
        with pytest.raises(ParseError):
            parse_qasm(HEADER + "creg c[2];")

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_qasm(HEADER + "qreg q[2]; x q[2];")


class TestGateApplications:
    def test_primitives_u_and_cx(self):
        circuit = parse_qasm(
            "OPENQASM 2.0;\nqreg q[2];\nU(pi/2,0,pi) q[0];\nCX q[0],q[1];"
        )
        assert circuit[0].gate == "u3"
        assert circuit[1].gate == "x" and circuit[1].controls == (0,)

    def test_qelib_gates_map_natively(self):
        circuit = parse_qasm(
            HEADER + "qreg q[3];\nccx q[0],q[1],q[2];\ncswap q[0],q[1],q[2];"
        )
        assert circuit[0].gate == "x" and set(circuit[0].controls) == {0, 1}
        assert circuit[1].gate == "swap" and circuit[1].controls == (0,)

    def test_register_broadcast(self):
        circuit = parse_qasm(HEADER + "qreg q[3]; h q;")
        assert len(circuit) == 3
        assert {op.targets[0] for op in circuit} == {0, 1, 2}

    def test_two_register_broadcast(self):
        circuit = parse_qasm(HEADER + "qreg a[2]; qreg b[2]; cx a,b;")
        assert len(circuit) == 2
        assert circuit[0].controls == (0,) and circuit[0].targets == (2,)
        assert circuit[1].controls == (1,) and circuit[1].targets == (3,)

    def test_mixed_broadcast(self):
        circuit = parse_qasm(HEADER + "qreg a[1]; qreg b[3]; cx a,b;")
        assert len(circuit) == 3
        assert all(op.controls == (0,) for op in circuit)

    def test_mismatched_broadcast_rejected(self):
        with pytest.raises(ParseError):
            parse_qasm(HEADER + "qreg a[2]; qreg b[3]; cx a,b;")

    def test_unknown_gate_rejected(self):
        with pytest.raises(ParseError):
            parse_qasm(HEADER + "qreg q[1]; frobnicate q[0];")

    def test_wrong_parameter_count(self):
        with pytest.raises(ParseError):
            parse_qasm(HEADER + "qreg q[1]; rx q[0];")

    def test_wrong_qubit_count(self):
        with pytest.raises(ParseError):
            parse_qasm(HEADER + "qreg q[2]; h q[0],q[1];")

    def test_rzz_decomposition(self):
        circuit = parse_qasm(HEADER + "qreg q[2]; rzz(0.5) q[0],q[1];")
        gates = [op.gate for op in circuit]
        assert gates == ["x", "u1", "x"]


class TestExpressions:
    def test_pi_arithmetic(self):
        circuit = parse_qasm(HEADER + "qreg q[1]; rz(pi/4 + pi/4) q[0];")
        assert abs(circuit[0].params[0] - math.pi / 2) < 1e-12

    def test_functions(self):
        circuit = parse_qasm(HEADER + "qreg q[1]; rz(cos(0) + sqrt(4)) q[0];")
        assert abs(circuit[0].params[0] - 3.0) < 1e-12

    def test_power_right_associative(self):
        circuit = parse_qasm(HEADER + "qreg q[1]; rz(2^3^2) q[0];")
        assert abs(circuit[0].params[0] - 512.0) < 1e-9

    def test_unary_minus(self):
        circuit = parse_qasm(HEADER + "qreg q[1]; rz(-pi) q[0];")
        assert abs(circuit[0].params[0] + math.pi) < 1e-12

    def test_precedence(self):
        circuit = parse_qasm(HEADER + "qreg q[1]; rz(1 + 2 * 3) q[0];")
        assert abs(circuit[0].params[0] - 7.0) < 1e-12

    def test_unknown_variable_at_top_level(self):
        with pytest.raises(ParseError):
            parse_qasm(HEADER + "qreg q[1]; rz(theta) q[0];")


class TestGateDefinitions:
    def test_simple_definition(self):
        source = HEADER + (
            "qreg q[2];\n"
            "gate bell a, b { h a; cx a, b; }\n"
            "bell q[1], q[0];\n"
        )
        circuit = parse_qasm(source)
        assert [op.gate for op in circuit] == ["h", "x"]
        assert circuit[0].targets == (1,)
        assert circuit[1].controls == (1,) and circuit[1].targets == (0,)

    def test_parametrized_definition(self):
        source = HEADER + (
            "qreg q[1];\n"
            "gate twist(a) x0 { rz(2*a) x0; rx(a/2) x0; }\n"
            "twist(pi) q[0];\n"
        )
        circuit = parse_qasm(source)
        assert abs(circuit[0].params[0] - 2 * math.pi) < 1e-12
        assert abs(circuit[1].params[0] - math.pi / 2) < 1e-12

    def test_nested_definitions(self):
        source = HEADER + (
            "qreg q[2];\n"
            "gate inner a { h a; }\n"
            "gate outer a, b { inner a; cx a, b; inner b; }\n"
            "outer q[0], q[1];\n"
        )
        circuit = parse_qasm(source)
        assert [op.gate for op in circuit] == ["h", "x", "h"]

    def test_recursive_definition_rejected(self):
        source = HEADER + (
            "qreg q[1];\n"
            "gate loop a { loop a; }\n"
            "loop q[0];\n"
        )
        with pytest.raises(ParseError):
            parse_qasm(source)

    def test_barrier_inside_definition(self):
        source = HEADER + (
            "qreg q[2];\n"
            "gate withbar a, b { h a; barrier a, b; h b; }\n"
            "withbar q[0], q[1];\n"
        )
        circuit = parse_qasm(source)
        assert isinstance(circuit[1], BarrierOp)
        assert circuit[1].lines == (0, 1)

    def test_user_definition_shadows_native(self):
        source = HEADER + (
            "qreg q[1];\n"
            "gate h a { x a; }\n"  # devious but legal
            "h q[0];\n"
        )
        circuit = parse_qasm(source)
        assert circuit[0].gate == "x"

    def test_definition_wrong_arity_on_use(self):
        source = HEADER + (
            "qreg q[2];\n"
            "gate solo a { h a; }\n"
            "solo q[0], q[1];\n"
        )
        with pytest.raises(ParseError):
            parse_qasm(source)

    def test_opaque_gate_application_rejected(self):
        source = HEADER + "qreg q[1];\nopaque magic a;\nmagic q[0];\n"
        with pytest.raises(ParseError):
            parse_qasm(source)


class TestSpecialOperations:
    def test_measure_single(self):
        circuit = parse_qasm(HEADER + "qreg q[1]; creg c[1]; measure q[0] -> c[0];")
        assert isinstance(circuit[0], MeasureOp)

    def test_measure_broadcast(self):
        circuit = parse_qasm(HEADER + "qreg q[3]; creg c[3]; measure q -> c;")
        assert len(circuit) == 3
        assert all(isinstance(op, MeasureOp) for op in circuit)
        assert [(op.qubit, op.clbit) for op in circuit] == [(0, 0), (1, 1), (2, 2)]

    def test_measure_size_mismatch(self):
        with pytest.raises(ParseError):
            parse_qasm(HEADER + "qreg q[3]; creg c[2]; measure q -> c;")

    def test_reset(self):
        circuit = parse_qasm(HEADER + "qreg q[2]; reset q;")
        assert all(isinstance(op, ResetOp) for op in circuit)
        assert len(circuit) == 2

    def test_barrier(self):
        circuit = parse_qasm(HEADER + "qreg q[3]; barrier q[0], q[2];")
        assert isinstance(circuit[0], BarrierOp)
        assert circuit[0].lines == (0, 2)

    def test_if_condition(self):
        circuit = parse_qasm(
            HEADER + "qreg q[1]; creg c[2]; if (c == 3) x q[0];"
        )
        operation = circuit[0]
        assert isinstance(operation, GateOp)
        assert operation.condition == ((0, 1), 3)

    def test_if_unknown_register(self):
        with pytest.raises(ParseError):
            parse_qasm(HEADER + "qreg q[1]; if (c == 1) x q[0];")

    def test_if_measure_rejected(self):
        with pytest.raises(ParseError):
            parse_qasm(
                HEADER + "qreg q[1]; creg c[1]; if (c == 1) measure q[0] -> c[0];"
            )


class TestSemantics:
    def test_parsed_qft_matches_library(self):
        from repro.qc import library

        source = HEADER + (
            "qreg q[3];\n"
            "h q[2]; cp(pi/2) q[1],q[2]; cp(pi/4) q[0],q[2];\n"
            "h q[1]; cp(pi/2) q[0],q[1];\n"
            "h q[0];\n"
            "swap q[0],q[2];\n"
        )
        circuit = parse_qasm(source)
        assert np.allclose(
            build_unitary(circuit), build_unitary(library.qft(3))
        )


class TestArithmeticErrors:
    """Inputs whose evaluation fails become a ParseError at the failing
    token, never another exception type (or a silent non-finite angle)."""

    DIGITS = "9" * 5000

    @pytest.mark.parametrize("program, line, column", [
        ("rz(1e) q[0];", 4, 4),
        ("rz(1.5e+) q[0];", 4, 4),
        ("qreg r[²];", 4, 8),
        ("qreg r[" + DIGITS + "];", 4, 8),
        ("rz(1/0) q[0];", 4, 5),
        ("rz(sqrt(-1)) q[0];", 4, 4),
        ("rz(ln(0)) q[0];", 4, 4),
        ("rz(10^400) q[0];", 4, 6),
        ("rz(exp(1000)) q[0];", 4, 4),
        ("rz((-8)^(1/3)) q[0];", 4, 8),
        ("rz(" + DIGITS + ") q[0];", 4, 1),
        ("gate g(t) a { rz(1/t) a; }\ng(0) q[0];", 4, 19),
    ], ids=["exponent", "signed-exponent", "superscript-digit", "long-register-size",
            "division-by-zero", "sqrt-domain", "ln-domain", "power-overflow",
            "exp-overflow", "complex-power", "non-finite-literal", "in-gate-body"])
    def test_reported_with_position(self, program, line, column):
        with pytest.raises(ParseError) as caught:
            parse_qasm(HEADER + "qreg q[1];\n" + program + "\n")
        assert type(caught.value) is ParseError
        assert (caught.value.line, caught.value.column) == (line, column)


def doubling_chain(levels):
    """``levels`` gate definitions, each calling the previous one twice:
    a few hundred bytes that expand to 2**levels operations."""
    definitions = "gate g0 a { x a; }\n" + "".join(
        f"gate g{level} a {{ g{level - 1} a; g{level - 1} a; }}\n"
        for level in range(1, levels + 1)
    )
    return HEADER + "qreg q[1];\n" + definitions + f"g{levels} q[0];\n"


class TestCaps:
    def test_register_too_large(self):
        with pytest.raises(CircuitTooLargeError):
            parse_qasm(HEADER + "qreg q[2000000]; h q;")

    @pytest.mark.parametrize("kind", ["qreg", "creg"])
    def test_total_bits_capped(self, kind):
        size = parser.MAX_REGISTER_SIZE
        registers = "".join(
            f"{kind} r{k}[{size}];" for k in range(parser.MAX_BITS // size + 1)
        )
        with pytest.raises(CircuitTooLargeError):
            parse_qasm(HEADER + "qreg q[1];" + registers)

    def test_registers_at_the_caps_accepted(self):
        circuit = parse_qasm(
            HEADER + f"qreg q[{parser.MAX_REGISTER_SIZE}];"
            f"creg c[{parser.MAX_REGISTER_SIZE}];"
        )
        assert circuit.num_qubits == parser.MAX_REGISTER_SIZE

    def test_expansion_refused_before_emitting(self, monkeypatch):
        levels = parser.MAX_OPERATIONS.bit_length()
        emitted = []
        monkeypatch.setattr(parser._QasmParser, "_apply", lambda *args: emitted.append(args))
        with pytest.raises(CircuitTooLargeError):
            parse_qasm(doubling_chain(levels))
        assert emitted == []

    def test_expansion_at_the_cap_accepted(self):
        levels = parser.MAX_OPERATIONS.bit_length() - 1
        assert len(parse_qasm(doubling_chain(levels))) == 2 ** levels

    def test_broadcast_counts_toward_the_cap(self):
        size = parser.MAX_REGISTER_SIZE
        repeats = parser.MAX_OPERATIONS // size + 1
        with pytest.raises(CircuitTooLargeError):
            parse_qasm(HEADER + f"qreg q[{size}];" + "h q;" * repeats)

    def test_definition_nesting_capped(self):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_qasm(doubling_chain(200))

    @pytest.mark.parametrize("expression", [
        "(" * 5000 + "1" + ")" * 5000,
        "-" * 20000 + "1",
        "+" * 20000 + "1",
        "2^" * 5000 + "2",
        "+".join(["1"] * 20000),
        "sin(" * 5000 + "1" + ")" * 5000,
    ], ids=["parentheses", "minus-signs", "plus-signs", "powers", "sum-chain", "calls"])
    def test_deep_expressions_rejected(self, expression):
        with pytest.raises(ParseError, match="nested deeper") as caught:
            parse_qasm(HEADER + f"qreg q[1];\nrz({expression}) q[0];\n")
        assert type(caught.value) is ParseError

    def test_depth_cap_is_exact(self):
        def program(parentheses):
            expression = "(" * parentheses + "1" + ")" * parentheses
            return HEADER + f"qreg q[1];\nrz({expression}) q[0];\n"

        depth = parser.MAX_EXPRESSION_DEPTH
        assert parse_qasm(program(depth - 1))[0].params == (1.0,)
        with pytest.raises(ParseError, match="nested deeper"):
            parse_qasm(program(depth))

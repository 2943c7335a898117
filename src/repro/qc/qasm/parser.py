"""Recursive-descent parser for OpenQASM 2.0.

Produces a :class:`repro.qc.circuit.QuantumCircuit`.  The complete
``qelib1.inc`` gate set is built in (the include statement is accepted and
is a no-op), user ``gate`` definitions are expanded recursively, and the
special operations of paper Sec. IV-B (measure, reset, barrier,
classically-controlled gates) map to the corresponding IR operations.

Qubit mapping: quantum registers are concatenated in declaration order;
``q[0]`` of the first register is line 0 (the least-significant qubit
``q_0`` in the paper's big-endian convention).  Classical registers are
concatenated likewise.

A gate body may call only gates declared before it, as OpenQASM 2.0
requires: each call is bound when the body is parsed, which gives every
definition a fixed expanded size and nesting depth.

Caps
----
Every input is bounded while it is parsed, so no text makes the parser
build an unbounded circuit or recurse without limit.  The size caps
(``MAX_REGISTER_SIZE``, ``MAX_BITS``, ``MAX_OPERATIONS``) raise
:class:`~repro.errors.CircuitTooLargeError`; the shape caps
(``MAX_EXPRESSION_DEPTH``, ``MAX_INT_DIGITS`` and the gate-definition
nesting) raise a plain :class:`~repro.errors.ParseError`.  The largest
input that any test, benchmark, campaign, perfbench workload or example in
this repository parses has a 16-qubit register, 661 operations,
expressions 3 deep, integer literals of 2 digits and gate definitions
nested 2 deep.  Every cap is at least 16 times that.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import CircuitTooLargeError, ParseError
from repro.qc.circuit import QuantumCircuit
from repro.qc.operations import BarrierOp, GateOp, MeasureOp, Operation, ResetOp
from repro.qc.qasm.tokens import Token, TokenType, tokenize

#: Qubits (or classical bits) in one register.
MAX_REGISTER_SIZE = 256
#: Qubits in all quantum registers together; the same cap holds for
#: classical bits.
MAX_BITS = 1024
#: Operations after broadcasting and gate-definition expansion.
MAX_OPERATIONS = 20_000
#: Height of one parameter expression: nested parentheses, signs,
#: function calls, powers and chained binary operators.
MAX_EXPRESSION_DEPTH = 64
#: Digits of an integer literal (register sizes, indices, ``if`` values):
#: enough for any value of a ``MAX_REGISTER_SIZE``-bit register.
MAX_INT_DIGITS = 80
#: Nesting of gate definitions calling gate definitions.
_MAX_EXPANSION_DEPTH = 64

# ----------------------------------------------------------------------
# expression AST
# ----------------------------------------------------------------------
_FUNCTIONS: Dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "acos": math.acos,
    "asin": math.asin,
    "atan": math.atan,
}

_BINARY: Dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}


class Expr:
    """Base class of parameter-expression AST nodes.

    ``depth`` is the node's height; the parser refuses a node deeper than
    ``MAX_EXPRESSION_DEPTH``, which bounds the recursion of ``evaluate``.
    """

    __slots__ = ("depth",)

    def evaluate(self, env: Dict[str, float]) -> float:
        raise NotImplementedError


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value
        self.depth = 1

    def evaluate(self, env):
        return self.value


class Param(Expr):
    __slots__ = ("name", "line")

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.depth = 1

    def evaluate(self, env):
        if self.name not in env:
            raise ParseError(f"unknown parameter {self.name!r}", self.line)
        return env[self.name]


class Neg(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand
        self.depth = operand.depth + 1

    def evaluate(self, env):
        return -self.operand.evaluate(env)


class BinOp(Expr):
    __slots__ = ("op", "left", "right", "token")

    def __init__(self, op: str, left: Expr, right: Expr, token: Token):
        self.op = op
        self.left = left
        self.right = right
        self.token = token
        self.depth = max(left.depth, right.depth) + 1

    def evaluate(self, env):
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        try:
            value = _BINARY[self.op](left, right)
        except ArithmeticError as error:  # division by zero, overflow
            raise _eval_error(f"{left!r} {self.op} {right!r}", error, self.token)
        if isinstance(value, complex):  # a negative base to a fractional power
            raise _eval_error(f"{left!r} {self.op} {right!r}", "not a real number",
                              self.token)
        return value


class Func(Expr):
    __slots__ = ("name", "argument", "token")

    def __init__(self, name: str, argument: Expr, token: Token):
        self.name = name
        self.argument = argument
        self.token = token
        self.depth = argument.depth + 1

    def evaluate(self, env):
        argument = self.argument.evaluate(env)
        try:
            return _FUNCTIONS[self.name](argument)
        except (ValueError, OverflowError) as error:  # domain, range
            raise _eval_error(f"{self.name}({argument!r})", error, self.token)


def _eval_error(expression: str, reason, token: Token) -> ParseError:
    return ParseError(f"cannot evaluate {expression}: {reason}", token.line, token.column)


# ----------------------------------------------------------------------
# gate definitions
# ----------------------------------------------------------------------
class _GateCall(NamedTuple):
    """A call in a gate body, bound to its target when the body is parsed;
    ``qargs`` are positions in the enclosing definition's qubit list."""

    target: Union["_GateDef", "_Native"]
    params: Tuple[Expr, ...]
    qargs: Tuple[int, ...]
    token: Token


class _GateBarrier(NamedTuple):
    qargs: Tuple[int, ...]


class _GateDef:
    """A user gate.  ``size`` is its expanded operation count (clamped just
    above ``MAX_OPERATIONS``) and ``depth`` its definition nesting."""

    def __init__(self, params: Tuple[str, ...], num_qubits: int,
                 body: Tuple[Union[_GateCall, _GateBarrier], ...]):
        self.params = params
        self.body = body
        self.arity = (len(params), num_qubits)
        size = depth = 0
        for item in body:
            if isinstance(item, _GateBarrier):
                size += 1
            else:
                size += item.target.size
                depth = max(depth, item.target.depth)
        self.size = min(size, MAX_OPERATIONS + 1)
        self.depth = depth + 1


#: Argument reference: (register name, index or None for the whole register).
_Argument = Tuple[str, Optional[int]]


class _QasmParser:
    def __init__(self, source: str, name: str = "qasm"):
        self.tokens = tokenize(source)
        self.position = 0
        self.name = name
        self.qregs: Dict[str, Tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: Dict[str, Tuple[int, int]] = {}
        self.num_qubits = 0
        self.num_clbits = 0
        self.gate_defs: Dict[str, _GateDef] = {}
        self.opaque_gates: set = set()
        self.operations: List[Operation] = []

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.position]

    def _next(self) -> Token:
        token = self.tokens[self.position]
        if token.type is not TokenType.EOF:
            self.position += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token or self._peek()
        return ParseError(message, token.line, token.column)

    def _expect_symbol(self, symbol: str) -> Token:
        token = self._next()
        if token.text != symbol or token.type is not TokenType.SYMBOL:
            raise self._error(f"expected {symbol!r}, found {token.text!r}", token)
        return token

    def _expect_id(self, keyword: Optional[str] = None) -> Token:
        token = self._next()
        if token.type is not TokenType.ID:
            raise self._error(f"expected identifier, found {token.text!r}", token)
        if keyword is not None and token.text != keyword:
            raise self._error(f"expected {keyword!r}, found {token.text!r}", token)
        return token

    def _expect_int(self) -> int:
        token = self._next()
        if token.type is not TokenType.INT:
            raise self._error(f"expected integer, found {token.text!r}", token)
        if len(token.text) > MAX_INT_DIGITS:
            raise self._error(
                f"integer literal longer than {MAX_INT_DIGITS} digits", token
            )
        return int(token.text)

    def _at_symbol(self, symbol: str) -> bool:
        token = self.tokens[self.position]
        return token.text == symbol and token.type is TokenType.SYMBOL

    def _reserve(self, count: int, token: Token) -> None:
        """Refuse, before emitting them, operations past MAX_OPERATIONS."""
        if len(self.operations) + count > MAX_OPERATIONS:
            raise CircuitTooLargeError(
                f"the circuit expands to more than {MAX_OPERATIONS} operations",
                token.line,
                token.column,
            )

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def parse(self) -> QuantumCircuit:
        self._expect_id("OPENQASM")
        version = self._next()
        if version.text not in ("2.0", "2"):
            raise self._error(f"unsupported OpenQASM version {version.text!r}", version)
        self._expect_symbol(";")
        while self._peek().type is not TokenType.EOF:
            self._statement()
        if self.num_qubits == 0:
            raise ParseError("the program declares no quantum register")
        circuit = QuantumCircuit(self.num_qubits, self.num_clbits, name=self.name)
        for operation in self.operations:
            circuit.append(operation)
        return circuit

    def _statement(self) -> None:
        token = self._peek()
        if token.type is not TokenType.ID:
            raise self._error(f"unexpected token {token.text!r}")
        keyword = token.text
        if keyword == "include":
            self._include()
        elif keyword == "qreg":
            self._register(quantum=True)
        elif keyword == "creg":
            self._register(quantum=False)
        elif keyword == "gate":
            self._gate_definition()
        elif keyword == "opaque":
            self._opaque()
        elif keyword == "barrier":
            self._barrier()
        elif keyword == "measure":
            self._measure()
        elif keyword == "reset":
            self._reset()
        elif keyword == "if":
            self._if_statement()
        else:
            self._gate_application(condition=None)

    def _include(self) -> None:
        self._expect_id("include")
        filename = self._next()
        if filename.type is not TokenType.STRING:
            raise self._error("expected a string after include", filename)
        if filename.text != "qelib1.inc":
            raise self._error(
                f"cannot include {filename.text!r}; only qelib1.inc is built in",
                filename,
            )
        self._expect_symbol(";")

    def _register(self, quantum: bool) -> None:
        self._next()  # qreg / creg
        name_token = self._expect_id()
        name = name_token.text
        if name in self.qregs or name in self.cregs:
            raise self._error(f"register {name!r} already declared", name_token)
        self._expect_symbol("[")
        size = self._expect_int()
        self._expect_symbol("]")
        self._expect_symbol(";")
        if size <= 0:
            raise self._error(f"register {name!r} must have positive size", name_token)
        offset = self.num_qubits if quantum else self.num_clbits
        if size > MAX_REGISTER_SIZE or offset + size > MAX_BITS:
            bits = "qubits" if quantum else "classical bits"
            raise CircuitTooLargeError(
                f"register {name!r} of size {size} exceeds the cap of "
                f"{MAX_REGISTER_SIZE} {bits} per register and {MAX_BITS} in total",
                name_token.line,
                name_token.column,
            )
        if quantum:
            self.qregs[name] = (offset, size)
            self.num_qubits += size
        else:
            self.cregs[name] = (offset, size)
            self.num_clbits += size

    # ------------------------------------------------------------------
    # gate definitions
    # ------------------------------------------------------------------
    def _gate_definition(self) -> None:
        self._expect_id("gate")
        name_token = self._expect_id()
        name = name_token.text
        params: Tuple[str, ...] = ()
        if self._at_symbol("("):
            self._next()
            params = tuple(self._id_list()) if not self._at_symbol(")") else ()
            self._expect_symbol(")")
        qargs = tuple(self._id_list())
        positions = {qarg: position for position, qarg in enumerate(qargs)}
        self._expect_symbol("{")
        body: List[Union[_GateCall, _GateBarrier]] = []
        while not self._at_symbol("}"):
            token = self._peek()
            if token.type is not TokenType.ID:
                raise self._error(f"unexpected token {token.text!r} in gate body")
            if token.text == "barrier":
                self._next()
                names = self._id_list()
                self._expect_symbol(";")
                body.append(_GateBarrier(self._bind(names, positions, name, token)))
                continue
            call_name = self._next().text
            call_params: Tuple[Expr, ...] = ()
            if self._at_symbol("("):
                self._next()
                if not self._at_symbol(")"):
                    call_params = tuple(self._expression_list())
                self._expect_symbol(")")
            call_qargs = self._bind(self._id_list(), positions, name, token)
            self._expect_symbol(";")
            target = self._resolve(call_name, len(call_params), len(call_qargs), token)
            body.append(_GateCall(target, call_params, call_qargs, token))
        self._expect_symbol("}")
        definition = _GateDef(params, len(qargs), tuple(body))
        if definition.depth > _MAX_EXPANSION_DEPTH:
            raise self._error(
                f"gate definitions nested deeper than {_MAX_EXPANSION_DEPTH}",
                name_token,
            )
        self.gate_defs[name] = definition

    def _bind(self, names: Sequence[str], positions: Dict[str, int], gate: str,
              token: Token) -> Tuple[int, ...]:
        """Positions of a body call's qubit names in the definition's list."""
        try:
            return tuple(positions[name] for name in names)
        except KeyError as missing:
            raise self._error(
                f"unknown qubit argument {missing.args[0]!r} in gate {gate!r}", token
            ) from None

    def _opaque(self) -> None:
        self._expect_id("opaque")
        name = self._expect_id().text
        if self._at_symbol("("):
            self._next()
            if not self._at_symbol(")"):
                self._id_list()
            self._expect_symbol(")")
        self._id_list()
        self._expect_symbol(";")
        self.opaque_gates.add(name)

    def _id_list(self) -> List[str]:
        names = [self._expect_id().text]
        while self._at_symbol(","):
            self._next()
            names.append(self._expect_id().text)
        return names

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _barrier(self) -> None:
        token = self._expect_id("barrier")
        arguments = self._argument_list()
        self._expect_symbol(";")
        lines: List[int] = []
        for argument in arguments:
            lines.extend(self._qubit_lines(argument))
        self._reserve(1, token)
        self.operations.append(BarrierOp(lines=tuple(lines)))

    def _measure(self) -> None:
        token = self._expect_id("measure")
        source = self._argument()
        self._expect_symbol("->")
        destination = self._argument()
        self._expect_symbol(";")
        qubits = self._qubit_lines(source)
        clbits = self._clbit_lines(destination)
        if len(qubits) != len(clbits):
            raise ParseError(
                f"measure size mismatch: {len(qubits)} qubits vs {len(clbits)} bits"
            )
        self._reserve(len(qubits), token)
        for qubit, clbit in zip(qubits, clbits):
            self.operations.append(MeasureOp(qubit=qubit, clbit=clbit))

    def _reset(self) -> None:
        token = self._expect_id("reset")
        argument = self._argument()
        self._expect_symbol(";")
        qubits = self._qubit_lines(argument)
        self._reserve(len(qubits), token)
        for qubit in qubits:
            self.operations.append(ResetOp(qubit=qubit))

    def _if_statement(self) -> None:
        self._expect_id("if")
        self._expect_symbol("(")
        creg_token = self._expect_id()
        creg = creg_token.text
        if creg not in self.cregs:
            raise self._error(f"unknown classical register {creg!r}", creg_token)
        self._expect_symbol("==")
        value = self._expect_int()
        self._expect_symbol(")")
        offset, size = self.cregs[creg]
        condition = (tuple(range(offset, offset + size)), value)
        token = self._peek()
        if token.type is TokenType.ID and token.text in ("measure", "reset"):
            raise self._error("conditioned measure/reset is not supported", token)
        self._gate_application(condition=condition)

    def _argument(self) -> _Argument:
        name = self._expect_id().text
        index: Optional[int] = None
        if self._at_symbol("["):
            self._next()
            index = self._expect_int()
            self._expect_symbol("]")
        return name, index

    def _argument_list(self) -> List[_Argument]:
        arguments = [self._argument()]
        while self._at_symbol(","):
            self._next()
            arguments.append(self._argument())
        return arguments

    def _qubit_lines(self, argument: _Argument) -> List[int]:
        name, index = argument
        if name not in self.qregs:
            raise ParseError(f"unknown quantum register {name!r}")
        offset, size = self.qregs[name]
        if index is None:
            return list(range(offset, offset + size))
        if not 0 <= index < size:
            raise ParseError(f"index {index} out of range for register {name!r}")
        return [offset + index]

    def _clbit_lines(self, argument: _Argument) -> List[int]:
        name, index = argument
        if name not in self.cregs:
            raise ParseError(f"unknown classical register {name!r}")
        offset, size = self.cregs[name]
        if index is None:
            return list(range(offset, offset + size))
        if not 0 <= index < size:
            raise ParseError(f"index {index} out of range for register {name!r}")
        return [offset + index]

    # ------------------------------------------------------------------
    # gate applications
    # ------------------------------------------------------------------
    def _gate_application(self, condition) -> None:
        name_token = self._expect_id()
        name = name_token.text
        params: Tuple[float, ...] = ()
        if self._at_symbol("("):
            self._next()
            if not self._at_symbol(")"):
                params = _evaluate(self._expression_list(), {}, name_token)
            self._expect_symbol(")")
        arguments = self._argument_list()
        self._expect_symbol(";")
        applications = self._broadcast(arguments, name_token)
        target = self._resolve(name, len(params), len(arguments), name_token)
        self._reserve(len(applications) * target.size, name_token)
        for lines in applications:
            self._apply(target, params, tuple(lines), condition)

    def _broadcast(
        self, arguments: Sequence[_Argument], token: Token
    ) -> List[List[int]]:
        """Expand whole-register arguments into per-qubit applications."""
        expanded = [self._qubit_lines(argument) for argument in arguments]
        if all(index is not None for _name, index in arguments):
            return [[lines[0] for lines in expanded]]
        # Single-qubit arguments always broadcast; full registers must agree.
        register_sizes = {
            len(lines)
            for (_name, index), lines in zip(arguments, expanded)
            if index is None
        }
        register_sizes.discard(1)
        if len(register_sizes) > 1:
            raise self._error("mismatched register sizes in broadcast", token)
        repeat = register_sizes.pop() if register_sizes else 1
        return [
            [lines[step] if len(lines) > 1 else lines[0] for lines in expanded]
            for step in range(repeat)
        ]

    def _resolve(self, name: str, num_params: int, num_qubits: int, token: Token):
        """The user definition or native gate ``name`` names, arity-checked."""
        target = self.gate_defs.get(name) or _NATIVE_GATES.get(name)
        if target is None:
            if name in self.opaque_gates:
                raise self._error(f"cannot apply opaque gate {name!r}", token)
            raise self._error(f"unknown gate {name!r}", token)
        expected_params, expected_qubits = target.arity
        if num_params != expected_params:
            raise self._error(
                f"gate {name!r} takes {expected_params} parameter(s), "
                f"got {num_params}",
                token,
            )
        if num_qubits != expected_qubits:
            raise self._error(
                f"gate {name!r} takes {expected_qubits} qubit(s), got {num_qubits}",
                token,
            )
        return target

    def _apply(self, target, params: Tuple[float, ...], lines: Tuple[int, ...],
               condition) -> None:
        if not isinstance(target, _GateDef):
            self.operations.extend(target.build(params, lines, condition))
            return
        env = dict(zip(target.params, params))
        for item in target.body:
            mapped = tuple(lines[position] for position in item.qargs)
            if isinstance(item, _GateBarrier):
                self.operations.append(BarrierOp(lines=mapped))
            else:
                values = _evaluate(item.params, env, item.token)
                self._apply(item.target, values, mapped, condition)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _expression_list(self) -> List[Expr]:
        expressions = [self._expression(1)]
        while self._at_symbol(","):
            self._next()
            expressions.append(self._expression(1))
        return expressions

    def _checked(self, node: Expr, token: Token) -> Expr:
        if node.depth > MAX_EXPRESSION_DEPTH:
            raise self._error(
                f"expression nested deeper than {MAX_EXPRESSION_DEPTH}", token
            )
        return node

    def _expression(self, depth: int) -> Expr:
        left = self._term(depth)
        while self._at_symbol("+") or self._at_symbol("-"):
            token = self._next()
            left = self._checked(BinOp(token.text, left, self._term(depth), token), token)
        return left

    def _term(self, depth: int) -> Expr:
        left = self._factor(depth)
        while self._at_symbol("*") or self._at_symbol("/"):
            token = self._next()
            left = self._checked(BinOp(token.text, left, self._factor(depth), token), token)
        return left

    def _factor(self, depth: int) -> Expr:
        base = self._base(depth)
        if self._at_symbol("^"):
            token = self._next()
            # right-associative
            return self._checked(BinOp("^", base, self._factor(depth + 1), token), token)
        return base

    def _base(self, depth: int) -> Expr:
        token = self._next()
        if depth > MAX_EXPRESSION_DEPTH:
            raise self._error(
                f"expression nested deeper than {MAX_EXPRESSION_DEPTH}", token
            )
        if token.type is TokenType.REAL or token.type is TokenType.INT:
            try:
                return Num(float(token.text))
            except ValueError:  # an exponent without digits: "1e", "1.5e+"
                raise self._error(f"invalid number {token.text!r}", token) from None
        if token.type is TokenType.SYMBOL:
            if token.text == "-":
                return self._checked(Neg(self._base(depth + 1)), token)
            if token.text == "+":
                return self._base(depth + 1)
            if token.text == "(":
                inner = self._expression(depth + 1)
                self._expect_symbol(")")
                return inner
        if token.type is TokenType.ID:
            if token.text == "pi":
                return Num(math.pi)
            if token.text in _FUNCTIONS:
                self._expect_symbol("(")
                argument = self._expression(depth + 1)
                self._expect_symbol(")")
                return self._checked(Func(token.text, argument, token), token)
            return Param(token.text, token.line)
        raise self._error(f"unexpected token {token.text!r} in expression", token)


def _evaluate(expressions: Sequence[Expr], env: Dict[str, float],
              token: Token) -> Tuple[float, ...]:
    """Gate parameters from their expressions; each must be finite."""
    values = tuple(expression.evaluate(env) for expression in expressions)
    for value in values:
        if not math.isfinite(value):
            raise ParseError(
                f"gate parameter {value!r} is not finite", token.line, token.column
            )
    return values


# ----------------------------------------------------------------------
# native gate builders (qelib1.inc and the U/CX primitives)
# ----------------------------------------------------------------------
class _Native:
    """A built-in gate: arity, expanded size plus an operation builder."""

    depth = 0

    def __init__(self, num_params: int, num_qubits: int, build, size: int = 1):
        self.arity = (num_params, num_qubits)
        self.size = size
        self._build = build

    def build(self, params, lines, condition) -> List[GateOp]:
        return self._build(params, lines, condition)


def _simple(gate: str, with_params: bool = False):
    def build(params, lines, condition):
        return [
            GateOp(
                gate=gate,
                params=params if with_params else (),
                targets=(lines[-1],),
                controls=tuple(lines[:-1]),
                condition=condition,
            )
        ]

    return build


def _swap_like(gate: str):
    def build(params, lines, condition):
        *controls, a, b = lines
        high, low = (a, b) if a > b else (b, a)
        return [
            GateOp(
                gate=gate,
                targets=(high, low),
                controls=tuple(controls),
                condition=condition,
            )
        ]

    return build


def _identity_like(params, lines, condition):
    return [GateOp(gate="id", targets=(lines[0],), condition=condition)]


def _rzz(params, lines, condition):
    (theta,) = params
    a, b = lines
    return [
        GateOp(gate="x", targets=(b,), controls=(a,), condition=condition),
        GateOp(gate="u1", params=(theta,), targets=(b,), condition=condition),
        GateOp(gate="x", targets=(b,), controls=(a,), condition=condition),
    ]


_NATIVE_GATES: Dict[str, _Native] = {
    # primitives
    "U": _Native(3, 1, _simple("u3", with_params=True)),
    "CX": _Native(0, 2, _simple("x")),
    # single-qubit, no parameters
    "id": _Native(0, 1, _simple("id")),
    "x": _Native(0, 1, _simple("x")),
    "y": _Native(0, 1, _simple("y")),
    "z": _Native(0, 1, _simple("z")),
    "h": _Native(0, 1, _simple("h")),
    "s": _Native(0, 1, _simple("s")),
    "sdg": _Native(0, 1, _simple("sdg")),
    "t": _Native(0, 1, _simple("t")),
    "tdg": _Native(0, 1, _simple("tdg")),
    "sx": _Native(0, 1, _simple("sx")),
    "sxdg": _Native(0, 1, _simple("sxdg")),
    # single-qubit, parametrized
    "rx": _Native(1, 1, _simple("rx", with_params=True)),
    "ry": _Native(1, 1, _simple("ry", with_params=True)),
    "rz": _Native(1, 1, _simple("rz", with_params=True)),
    "p": _Native(1, 1, _simple("p", with_params=True)),
    "u1": _Native(1, 1, _simple("u1", with_params=True)),
    "u2": _Native(2, 1, _simple("u2", with_params=True)),
    "u3": _Native(3, 1, _simple("u3", with_params=True)),
    "u": _Native(3, 1, _simple("u3", with_params=True)),
    "u0": _Native(1, 1, _identity_like),
    # controlled
    "cx": _Native(0, 2, _simple("x")),
    "cy": _Native(0, 2, _simple("y")),
    "cz": _Native(0, 2, _simple("z")),
    "ch": _Native(0, 2, _simple("h")),
    "csx": _Native(0, 2, _simple("sx")),
    "crx": _Native(1, 2, _simple("rx", with_params=True)),
    "cry": _Native(1, 2, _simple("ry", with_params=True)),
    "crz": _Native(1, 2, _simple("rz", with_params=True)),
    "cp": _Native(1, 2, _simple("p", with_params=True)),
    "cu1": _Native(1, 2, _simple("p", with_params=True)),
    "cu3": _Native(3, 2, _simple("u3", with_params=True)),
    "ccx": _Native(0, 3, _simple("x")),
    # two-qubit
    "swap": _Native(0, 2, _swap_like("swap")),
    "iswap": _Native(0, 2, _swap_like("iswap")),
    "iswapdg": _Native(0, 2, _swap_like("iswapdg")),
    "cswap": _Native(0, 3, _swap_like("swap")),
    "rzz": _Native(1, 2, _rzz, size=3),
}


def parse_qasm(source: str, name: str = "qasm") -> QuantumCircuit:
    """Parse OpenQASM 2.0 source text into a circuit."""
    return _QasmParser(source, name=name).parse()


_MAX_INCLUDE_DEPTH = 8
_INCLUDE_PATTERN = __import__("re").compile(
    r'^\s*include\s+"([^"]+)"\s*;\s*$', __import__("re").MULTILINE
)


def _resolve_includes(source: str, directory: str, depth: int = 0) -> str:
    """Textually splice ``include "file";`` directives found next to the
    including file.  ``qelib1.inc`` stays untouched (built in); missing
    files are also left for the parser to report."""
    import os

    if depth > _MAX_INCLUDE_DEPTH:
        raise ParseError("include nesting too deep (cycle?)")

    def replace(match):
        filename = match.group(1)
        if filename == "qelib1.inc":
            return match.group(0)
        candidate = os.path.join(directory, filename)
        if not os.path.exists(candidate):
            return match.group(0)  # parser will raise a clear error
        with open(candidate, "r", encoding="utf-8") as handle:
            included = handle.read()
        return _resolve_includes(
            included, os.path.dirname(candidate), depth + 1
        )

    return _INCLUDE_PATTERN.sub(replace, source)


def parse_qasm_file(path: str) -> QuantumCircuit:
    """Parse an OpenQASM 2.0 file into a circuit (named after the file).

    ``include`` directives naming files next to ``path`` are spliced in
    (``qelib1.inc`` is built in and needs no file).
    """
    import os

    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    source = _resolve_includes(source, os.path.dirname(os.path.abspath(path)))
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_qasm(source, name=name)

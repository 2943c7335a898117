"""An interactive terminal version of the simulation tool.

The web tool's simulation tab as a text REPL: load an algorithm, step
forward and backward, hit breakpoints, answer measurement dialogs, inspect
the decision diagram / state vector / probabilities, and export the
session to HTML.  Every command returns its output as a string, so the
tool is fully scriptable (and testable) besides interactive use.

Commands (``help`` lists them at runtime)::

    load <path|inline qasm>   load a circuit into the algorithm box
    source                    show the circuit as ASCII art
    step [0|1]                one step forward (answering a dialog)
    back                      one step backward
    run                       forward to the next breakpoint
    end                       forward to the end (ignoring breakpoints)
    start                     rewind to the initial state
    show                      print the current DD
    style classic|colored|modern
    vector                    print the dense state vector
    probs <qubit>             measurement probabilities of one qubit
    sample <shots>            sample from the current state
    bloch                     per-qubit Bloch vectors
    export <file.html>        write the interactive HTML step-through
    stats                     DD package table statistics
    quit / exit
"""

from __future__ import annotations

import shlex
from typing import Callable, Dict, List, Optional, TextIO

import numpy as np

from repro.errors import ReproError
from repro.tool.session import SimulationSession
from repro.vis.style import DDStyle

_STYLES = {
    "classic": DDStyle.classic,
    "colored": DDStyle.colored,
    "modern": DDStyle.modern,
}

_HELP = """commands:
  load <path>      load a .qasm/.real circuit
  source           show the circuit
  step [0|1]       one step forward (optional dialog answer)
  back             one step backward
  run              forward to the next breakpoint
  end              forward to the end
  start            rewind
  show             print the current decision diagram
  style <name>     classic | colored | modern
  vector           print the dense state vector
  probs <qubit>    measurement probabilities
  sample <shots>   sample from the current state
  bloch            per-qubit Bloch vectors
  export <file>    write the session as interactive HTML
  stats            DD package statistics
  quit             leave"""


class InteractiveTool:
    """The command interpreter behind the ``qdd-tool repl`` command."""

    def __init__(self, seed: Optional[int] = None):
        self._seed = seed
        self._session: Optional[SimulationSession] = None
        self._style_name = "classic"
        self.finished = False

    # ------------------------------------------------------------------
    def execute(self, line: str) -> str:
        """Run one command line; returns the printable result."""
        parts = shlex.split(line.strip())
        if not parts:
            return ""
        command, arguments = parts[0].lower(), parts[1:]
        handler = self._handlers().get(command)
        if handler is None:
            return f"unknown command {command!r} - try 'help'"
        try:
            return handler(arguments)
        except ReproError as error:
            return f"error: {error}"
        except (ValueError, IndexError) as error:
            return f"error: {error}"

    def _handlers(self) -> Dict[str, Callable[[List[str]], str]]:
        return {
            "help": lambda a: _HELP,
            "load": self._load,
            "source": self._source,
            "step": self._step,
            "back": self._back,
            "run": self._run,
            "end": self._end,
            "start": self._start,
            "show": self._show,
            "style": self._style,
            "vector": self._vector,
            "probs": self._probs,
            "sample": self._sample,
            "bloch": self._bloch,
            "export": self._export,
            "stats": self._stats,
            "quit": self._quit,
            "exit": self._quit,
        }

    def _require_session(self) -> SimulationSession:
        if self._session is None:
            raise ReproError("no circuit loaded - use 'load <path>' first")
        return self._session

    # ------------------------------------------------------------------
    # command implementations
    # ------------------------------------------------------------------
    def _load(self, arguments: List[str]) -> str:
        if not arguments:
            raise ReproError("usage: load <path>")
        self._session = SimulationSession(
            " ".join(arguments), style=_STYLES[self._style_name](),
            seed=self._seed,
        )
        circuit = self._session.circuit
        return (
            f"loaded {circuit.name!r}: {circuit.num_qubits} qubits, "
            f"{len(circuit)} operations"
        )

    def _source(self, arguments: List[str]) -> str:
        from repro.vis.ascii_art import circuit_to_text

        return circuit_to_text(self._require_session().circuit)

    def _position_line(self) -> str:
        session = self._require_session()
        return (
            f"[{session.simulator.position}/{len(session.circuit)}] "
            f"{session.simulator.node_count()} nodes"
        )

    def _step(self, arguments: List[str]) -> str:
        session = self._require_session()
        outcome = int(arguments[0]) if arguments else None
        dialog = session.pending_dialog()
        if dialog is not None and outcome is None:
            kind, qubit, p0, p1 = dialog
            return (
                f"{kind} dialog on q{qubit}: P(0)={p0:.3f}, P(1)={p1:.3f} - "
                "answer with 'step 0' or 'step 1'"
            )
        record = session.forward(outcome=outcome)
        note = ""
        if record.outcome is not None:
            note = f" -> outcome {record.outcome} (p={record.probability:.3f})"
        return f"{record.kind.value}{note}  {self._position_line()}"

    def _back(self, arguments: List[str]) -> str:
        self._require_session().backward()
        return self._position_line()

    def _run(self, arguments: List[str]) -> str:
        records = self._require_session().to_end(stop_at_breakpoints=True)
        return f"executed {len(records)} step(s)  {self._position_line()}"

    def _end(self, arguments: List[str]) -> str:
        session = self._require_session()
        count = 0
        while not session.simulator.at_end:
            session.forward()
            count += 1
        return f"executed {count} step(s)  {self._position_line()}"

    def _start(self, arguments: List[str]) -> str:
        self._require_session().to_start()
        return self._position_line()

    def _show(self, arguments: List[str]) -> str:
        return self._require_session().current_text()

    def _style(self, arguments: List[str]) -> str:
        if not arguments or arguments[0] not in _STYLES:
            raise ReproError("usage: style classic|colored|modern")
        self._style_name = arguments[0]
        if self._session is not None:
            self._session.style = _STYLES[self._style_name]()
        return f"style set to {self._style_name}"

    def _vector(self, arguments: List[str]) -> str:
        session = self._require_session()
        if session.circuit.num_qubits > 8:
            raise ReproError("state vector display is limited to 8 qubits")
        amplitudes = session.simulator.statevector()
        lines = []
        for index, amplitude in enumerate(amplitudes):
            if abs(amplitude) < 1e-12:
                continue
            basis = format(index, f"0{session.circuit.num_qubits}b")
            lines.append(f"|{basis}>  {amplitude.real:+.4f}{amplitude.imag:+.4f}j")
        return "\n".join(lines) if lines else "(zero vector)"

    def _probs(self, arguments: List[str]) -> str:
        if not arguments:
            raise ReproError("usage: probs <qubit>")
        qubit = int(arguments[0])
        p0, p1 = self._require_session().simulator.probabilities(qubit)
        return f"q{qubit}: P(0)={p0:.4f}  P(1)={p1:.4f}"

    def _sample(self, arguments: List[str]) -> str:
        if not arguments:
            raise ReproError("usage: sample <shots>")
        shots = int(arguments[0])
        counts = self._require_session().sample_counts(shots)
        return "\n".join(
            f"|{outcome}>: {count}" for outcome, count in sorted(counts.items())
        )

    def _bloch(self, arguments: List[str]) -> str:
        from repro.vis.bloch import all_bloch_vectors

        session = self._require_session()
        vectors = all_bloch_vectors(
            session.simulator.package, session.simulator.state
        )
        lines = []
        for qubit, (x, y, z) in enumerate(vectors):
            length = float(np.sqrt(x * x + y * y + z * z))
            lines.append(
                f"q{qubit}: ({x:+.3f}, {y:+.3f}, {z:+.3f})  |r|={length:.3f}"
            )
        return "\n".join(lines)

    def _export(self, arguments: List[str]) -> str:
        if not arguments:
            raise ReproError("usage: export <file.html>")
        self._require_session().export_html(arguments[0])
        return f"wrote {arguments[0]}"

    def _stats(self, arguments: List[str]) -> str:
        session = self._require_session()
        all_stats = session.simulator.package.stats()
        governance = all_stats.pop("governance", None)
        sanitizer = all_stats.pop("sanitizer", None)
        all_stats.pop("storage", None)
        lines = []
        for name, values in all_stats.items():
            lines.append(
                f"{name:16s} entries={values['entries']:.0f} "
                f"hits={values['hits']:.0f} misses={values['misses']:.0f}"
            )
        if governance:
            rendered = " ".join(
                f"{key}={value}" for key, value in governance.items()
            )
            lines.append(f"{'governance':16s} {rendered}")
        if sanitizer and sanitizer.get("runs"):
            rendered = " ".join(
                f"{key}={value}" for key, value in sanitizer.items()
            )
            lines.append(f"{'sanitizer':16s} {rendered}")
        return "\n".join(lines)

    def _quit(self, arguments: List[str]) -> str:
        self.finished = True
        return "bye"


def run_repl(
    input_stream: TextIO,
    output_stream: TextIO,
    seed: Optional[int] = None,
    prompt: str = "qdd> ",
    interactive: bool = True,
) -> None:
    """Drive an :class:`InteractiveTool` from a stream (stdin, a file, ...)."""
    tool = InteractiveTool(seed=seed)
    while not tool.finished:
        if interactive:
            output_stream.write(prompt)
            output_stream.flush()
        line = input_stream.readline()
        if not line:
            break
        result = tool.execute(line)
        if result:
            output_stream.write(result + "\n")

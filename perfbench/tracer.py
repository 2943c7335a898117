"""Layer spans recorded from outside the library.

:class:`SpanTracer` replaces a layer's public entry points with timing
wrappers for the duration of a traced run and restores them afterwards;
untraced runs install nothing.  An entry point is patched at every name
it is bound to, since ``from x import f`` copies the binding.  Spans nest
through a stack, so each span's self time excludes its traced children.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import repro
import repro.dd.sampling
import repro.qc.qasm
import repro.qc.qasm.parser
import repro.simulation.simulator
import repro.tool.session
import repro.verification
import repro.vis.circuit_svg
import repro.vis.svg

#: span name -> every (owner, attribute) binding of the entry point.
ENTRY_POINTS: Dict[str, List[Tuple[object, str]]] = {
    "qasm.parse": [
        (repro.qc.qasm.parser, "parse_qasm"),
        (repro.qc.qasm, "parse_qasm"),
        (repro, "parse_qasm"),
        (repro.tool.session, "parse_qasm"),
    ],
    "sim.step": [(repro.simulation.simulator.DDSimulator, "step_forward")],
    "dd.apply": [(repro.simulation.simulator, "apply_gate")],
    "sampling.sample": [(repro.dd.sampling, "sample_counts")],
    "verify.alternating": [(repro.verification, "check_equivalence_alternating")],
    "verify.construct": [(repro.verification, "check_equivalence_construct")],
    "vis.layout": [(repro.vis.svg, "compute_layout")],
    "vis.dd_svg": [(repro.tool.session, "dd_to_svg")],
    "vis.circuit_svg": [(repro.vis.circuit_svg, "circuit_to_svg")],
    "vis.text": [(repro.tool.session, "dd_to_text")],
    "tool.forward": [(repro.tool.session.SimulationSession, "forward")],
    "tool.backward": [(repro.tool.session.SimulationSession, "backward")],
    "tool.apply_left": [(repro.tool.session.VerificationSession, "apply_left")],
    "tool.apply_right": [(repro.tool.session.VerificationSession, "apply_right")],
}


class SpanTracer:
    """Accumulates per-span total time, self time and call count."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []  # children's time of each open span
        self._patches: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()

    def record(self, body: Callable[[], Dict[str, object]]) -> Dict[str, object]:
        """Run ``body`` from a clean slate and add its spans to its result:
        ``total`` and ``self`` seconds and ``calls`` per span name.  An
        empty result (a failed round) is returned as it is."""
        self.reset()
        result = body()
        if result:
            result["total"], result["self"] = dict(self.total), dict(self.self_time)
            result["calls"] = dict(self.calls)
        return result

    def _wrap(self, name: str, original):
        stack = self._stack
        total, self_time, calls = self.total, self.self_time, self.calls

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                total[name] += elapsed
                self_time[name] += elapsed - children
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def __enter__(self) -> "SpanTracer":
        for name, bindings in ENTRY_POINTS.items():
            original = getattr(*bindings[0])
            wrapper = self._wrap(name, original)
            for owner, attribute in bindings:
                if getattr(owner, attribute) is not original:
                    raise RuntimeError(f"{owner!r}.{attribute} is not the entry point of {name}")
                self._patches.append((owner, attribute, original))
                setattr(owner, attribute, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

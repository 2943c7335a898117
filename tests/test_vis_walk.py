"""The renderers read diagrams from the engine's arrays, not from node views.

``DDPackage.walk`` lists every node a diagram's views would show, keyed by
node index (vector DDs) or ``(level, index)`` (matrix DDs, skipped levels
as identity nodes).  ``compute_layout``, ``dd_to_svg``, ``dd_to_text`` and
``dd_to_dot`` draw from it, so drawing a frame creates no node view and a
session keeps no view graph alive beyond its retained roots.
"""

import gc

import pytest

from repro.dd import DDPackage
from repro.dd.pooled import MATRIX, TERMINAL_KEY, VECTOR
from repro.errors import DDError
from repro.qc import QuantumCircuit, library
from repro.qc.dd_builder import circuit_to_dd
from repro.simulation import DDSimulator
from repro.tool.session import SimulationSession
from repro.vis.ascii_art import dd_to_text
from repro.vis.dot import dd_to_dot
from repro.vis.layout import compute_layout
from repro.vis.svg import dd_to_svg

_RENDERERS = {
    "compute_layout": compute_layout,
    "dd_to_svg": dd_to_svg,
    "dd_to_text": dd_to_text,
    "dd_to_dot": dd_to_dot,
}


def _state(package):
    simulator = DDSimulator(library.random_circuit(5, 40, seed=3), package=package)
    simulator.run_all()
    return simulator.state


def _functionality(package):
    return circuit_to_dd(package, library.qft(3))


def _identity_chain(package):
    functionality = circuit_to_dd(package, library.qft(4))
    return package.multiply(functionality, package.adjoint(functionality))


def _skipping(package):
    circuit = QuantumCircuit(5)
    circuit.cx(4, 0).h(2)
    return circuit_to_dd(package, circuit)


_ROOTS = {
    "state": _state,
    "functionality": _functionality,
    "identity-chain": _identity_chain,
    "skipping": _skipping,
}


def _view_counts(package):
    engine = package._pooled
    return (
        len(engine._views[VECTOR]),
        len(engine._views[MATRIX]),
        len(engine._identity_views),
    )


@pytest.mark.parametrize("kind", sorted(_ROOTS))
def test_walk_shows_what_the_views_show(kind):
    """Pair every walked key with the view at the same place: one view
    per key, same level, same weights, zero stubs and terminal edges in
    the same slots."""
    package = DDPackage()
    root = _ROOTS[kind](package)
    nodes = package.walk(root)
    assert next(iter(nodes)) == (
        package._pooled.node_index(root.node)
        if kind == "state"
        else (root.node.var, package._pooled.node_index(root.node))
    )
    view_of = {}
    stack = [(next(iter(nodes)), root.node)]
    while stack:
        key, view = stack.pop()
        if key in view_of:
            assert view_of[key] is view
            continue
        view_of[key] = view
        var, edges = nodes[key]
        assert var == view.var
        assert len(edges) == len(view.edges)
        for (child, weight), edge in zip(edges, view.edges):
            assert weight == edge.weight
            if edge.is_zero or edge.node.is_terminal:
                assert child == TERMINAL_KEY
            else:
                stack.append((child, edge.node))
    assert set(view_of) == set(nodes)
    assert len({id(view) for view in view_of.values()}) == len(nodes)
    assert len(nodes) == package.node_count(root)


def test_walk_lists_nodes_in_depth_first_pre_order():
    package = DDPackage()
    nodes = package.walk(_state(package))
    order, seen, stack = [], set(), [next(iter(nodes))]
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        order.append(key)
        stack.extend(reversed([child for child, _ in nodes[key][1] if child in nodes]))
    assert order == list(nodes)


@pytest.mark.parametrize("kind", sorted(_ROOTS))
@pytest.mark.parametrize("renderer", sorted(_RENDERERS))
def test_rendering_creates_no_views(renderer, kind):
    package = DDPackage()
    root = _ROOTS[kind](package)
    gc.collect()
    before = _view_counts(package)
    _RENDERERS[renderer](package, root)
    assert _view_counts(package) == before


def test_session_keeps_no_views_beyond_its_roots():
    for sanitize_every in (0, 1):
        session = SimulationSession(
            library.random_circuit(6, 60, seed=1), seed=0,
            package=DDPackage(sanitize_every=sanitize_every),
        )
        session.to_end(stop_at_breakpoints=False)
        gc.collect()
        retained = len(session.simulator._states)
        assert retained == len(session.frames)
        views = session.simulator.package._pooled._views[VECTOR]
        assert len(views) <= retained, f"sanitize_every={sanitize_every}"


@pytest.mark.parametrize("kind", sorted(_ROOTS))
@pytest.mark.parametrize("renderer", sorted(_RENDERERS))
def test_foreign_root_is_refused(renderer, kind):
    """A root of another package would be read from the wrong arrays."""
    foreign = _ROOTS[kind](DDPackage())
    with pytest.raises(DDError, match="does not belong"):
        _RENDERERS[renderer](DDPackage(), foreign)

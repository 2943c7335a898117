"""Unit tests for the complex-number table.

:class:`NineCellReference` keeps a plain search (cells of width
``tolerance``, 3x3 neighbourhood, the first-minted value within tolerance
wins) as an oracle for the 2x2 search over cells of width
``2 * tolerance``: both must return the same representatives for a real
simulation's lookup stream and for inputs placed on cell edges and
half-cell points.
"""

import math

import pytest

from repro.dd.complex_table import ComplexTable, DEFAULT_TOLERANCE, phase_of
from repro.dd.package import DDPackage
from repro.errors import DDError, InvalidStateError
from repro.qc import library
from repro.simulation.simulator import DDSimulator

_SQRT2_INV = 1.0 / math.sqrt(2.0)
_SEEDS = (
    ComplexTable.ZERO, ComplexTable.ONE, -ComplexTable.ONE, 1j, -1j,
    complex(_SQRT2_INV, 0.0), complex(-_SQRT2_INV, 0.0),
    complex(0.0, _SQRT2_INV), complex(0.0, -_SQRT2_INV),
)


class NineCellReference:
    """A plain complex-table search: cells of width ``tolerance``, the
    first-minted stored value within tolerance in the 3x3 neighbourhood,
    mint on a miss.  Nothing is ever freed, so index order is mint order."""

    def __init__(self, tolerance=DEFAULT_TOLERANCE):
        self.tolerance = tolerance
        self.buckets = {}
        self.values = []
        self.index = {}
        for special in _SEEDS:
            self._mint(special)

    def _key(self, value):
        return (
            math.floor(value.real / self.tolerance),
            math.floor(value.imag / self.tolerance),
        )

    def _mint(self, value):
        self.buckets.setdefault(self._key(value), []).append(value)
        self.index[value] = len(self.values)
        self.values.append(value)
        return self.index[value]

    def lookup_index(self, value):
        real, imag = value.real, value.imag
        if real != 0.0 and abs(real) < self.tolerance:
            real = 0.0
        if imag != 0.0 and abs(imag) < self.tolerance:
            imag = 0.0
        value = complex(real, imag)
        key_r, key_i = self._key(value)
        best = None
        for off_r in (-1, 0, 1):
            for off_i in (-1, 0, 1):
                for stored in self.buckets.get((key_r + off_r, key_i + off_i), ()):
                    dist = max(abs(stored.real - real), abs(stored.imag - imag))
                    if dist < self.tolerance and (
                        best is None or self.index[stored] < best
                    ):
                        best = self.index[stored]
        if best is not None:
            return best
        return self._mint(value)


class TestLookup:
    def test_zero_and_one_are_exact(self):
        table = ComplexTable()
        assert table.lookup(0.0) == ComplexTable.ZERO
        assert table.lookup(1.0 + 0.0j) == ComplexTable.ONE

    def test_nearby_values_unify(self):
        table = ComplexTable()
        first = table.lookup(0.123456789)
        second = table.lookup(0.123456789 + DEFAULT_TOLERANCE / 10)
        assert first == second
        assert first is not None

    def test_distant_values_stay_distinct(self):
        table = ComplexTable()
        first = table.lookup(0.5)
        second = table.lookup(0.5 + 100 * DEFAULT_TOLERANCE)
        assert first != second

    def test_near_one_snaps_to_exact_one(self):
        table = ComplexTable()
        assert table.lookup(1.0 + DEFAULT_TOLERANCE / 5) == ComplexTable.ONE

    def test_near_zero_snaps_to_exact_zero(self):
        table = ComplexTable()
        assert table.lookup(complex(1e-14, -1e-14)) == ComplexTable.ZERO

    def test_bucket_boundary_values_unify(self):
        # Two values straddling a grid line but within tolerance must
        # still be identified (the 2x2 cell search).
        tolerance = 1e-6
        table = ComplexTable(tolerance)
        base = 5 * tolerance  # on a half-cell point of the 2*tol grid
        first = table.lookup(base - tolerance / 4)
        second = table.lookup(base + tolerance / 4)
        assert first == second

    def test_half_tolerance_apart_across_bucket_edge(self):
        # Regression: two values tolerance/2 apart whose cells may differ
        # (one just below, one just above a grid line) must map to the
        # same canonical representative on both axes.
        tolerance = 1e-6
        table = ComplexTable(tolerance)
        for base in (3 * tolerance, -7 * tolerance):
            first = table.lookup(complex(base - tolerance / 4, 0.0))
            second = table.lookup(complex(base + tolerance / 4, 0.0))
            assert first == second, f"real-axis split at {base}"
        imag_base = 11 * tolerance
        first = table.lookup(complex(0.5, imag_base - tolerance / 4))
        second = table.lookup(complex(0.5, imag_base + tolerance / 4))
        assert first == second

    def test_sqrt2_inverse_is_seeded(self):
        table = ComplexTable()
        value = table.lookup(1.0 / math.sqrt(2.0))
        assert value == complex(1.0 / math.sqrt(2.0), 0.0)

    def test_imaginary_units_seeded(self):
        table = ComplexTable()
        assert table.lookup(complex(0.0, 1.0)) == 1j
        assert table.lookup(complex(0.0, -1.0)) == -1j

    def test_non_finite_rejected(self):
        table = ComplexTable()
        with pytest.raises(DDError):
            table.lookup(complex(float("inf"), 0.0))
        with pytest.raises(DDError):
            table.lookup(complex(0.0, float("nan")))

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            ComplexTable(0.0)
        with pytest.raises(ValueError):
            ComplexTable(-1e-9)


_ENTRY_POINTS = {
    "from_state_vector": (
        lambda value: DDPackage().from_state_vector([value, 0.0]),
        InvalidStateError,
    ),
    "from_matrix": (
        lambda value: DDPackage().from_matrix([[value, 0.0], [0.0, 1.0]]),
        DDError,
    ),
    "lookup": (lambda value: DDPackage().complex_table.lookup(value), DDError),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("value", [1e308, float("nan"), float("inf")])
def test_out_of_range_input_is_a_structured_error(entry, value):
    """Huge finite values once overflowed the cell key with a bare
    ``OverflowError``; non-finite ones raised a bare ``ValueError``."""
    build, error = _ENTRY_POINTS[entry]
    with pytest.raises(error):
        build(value)


def _lookup_stream(circuit):
    """Every value a cold package canonicalizes while simulating ``circuit``."""
    package = DDPackage()
    table = package.complex_table
    stream = []
    lookup, lookup_index = table.lookup, table.lookup_index

    def recording_lookup(value):
        stream.append(value)
        return lookup(value)

    def recording_lookup_index(value):
        stream.append(value)
        return lookup_index(value)

    table.lookup = recording_lookup
    table.lookup_index = recording_lookup_index
    DDSimulator(circuit, package=package, seed=0).run()
    return stream


def _replay(values, tolerance=DEFAULT_TOLERANCE):
    """Feed ``values`` through both searches; return the two tables."""
    table = ComplexTable(tolerance)
    reference = NineCellReference(tolerance)
    for value in values:
        expected = reference.lookup_index(value)
        assert table.lookup_index(value) == expected, value
    return table, reference


def _assert_same_contents(table, reference):
    # repr() tells -0.0 from 0.0: the representatives must match bit for bit.
    assert [repr(v) for v in table._values] == [repr(v) for v in reference.values]
    assert sorted(
        (value.real, value.imag) for _cell, value in table.entries()
    ) == sorted((value.real, value.imag) for value in reference.values)


def _component_grid(tolerance):
    """Components on cell edges, half-cell points and just under tol."""
    width = 2.0 * tolerance
    just_under = tolerance * (1.0 - 2.0 ** -20)
    components = {0.0, just_under, tolerance, width, 0.5, 0.5 + tolerance}
    for k in (1, 2, 3, 7, 1 << 20):
        edge = k * width
        half = (k + 0.5) * width
        components.update((
            # multiples of 2*tol, each +-tol
            edge, edge - tolerance, edge + tolerance,
            # exactly half-cell fractions, and values within tol of them
            half, half - 0.5 * tolerance, half + 0.5 * tolerance,
            half - just_under, half + just_under,
        ))
    # negative components
    components |= {-c for c in components}
    return sorted(components)


class TestSearchOracle:
    """The 2x2 search over 2*tol cells against the 9-cell reference."""

    def test_simulation_lookup_stream_matches_reference(self):
        circuit = library.random_circuit(10, 100, seed=10)
        stream = _lookup_stream(circuit)
        assert len(stream) > 10_000
        table, reference = _replay(stream)
        _assert_same_contents(table, reference)
        # The stream exercises the search, not just the exact dict.
        assert table.misses > 1_000

    @pytest.mark.parametrize("tolerance", [DEFAULT_TOLERANCE, 2.0 ** -30, 1e-6])
    def test_boundary_inputs_match_reference(self, tolerance):
        components = _component_grid(tolerance)
        values = [complex(re, im) for re in components for im in components]
        # Each value twice: once minting or snapping, once resolving
        # against the finished table; then in reverse minting order.
        table, reference = _replay(values + values, tolerance)
        _assert_same_contents(table, reference)
        table, reference = _replay(values[::-1] + values, tolerance)
        _assert_same_contents(table, reference)

    @pytest.mark.parametrize("tolerance", [DEFAULT_TOLERANCE, 2.0 ** -30])
    def test_perturbed_values_match_reference(self, tolerance):
        # Queries at every fraction of a cell around stored values.
        base = [complex(0.3, -0.7), complex(-0.25, 0.125), complex(5.0, 1e-3)]
        steps = [k / 8.0 for k in range(-12, 13)]
        values = list(base)
        for value in base:
            for dr in steps:
                for di in steps:
                    values.append(value + complex(dr * tolerance, di * tolerance))
        table, reference = _replay(values, tolerance)
        _assert_same_contents(table, reference)

    def test_equal_distance_tie_rule(self):
        # Of two representatives within tolerance of a query, the one
        # minted first wins, at equal distance too, whatever the 2*tol
        # cells they share -- and it keeps winning when a nearer one is
        # minted later.
        tolerance = 2.0 ** -30  # exact arithmetic on the grid
        edge = 4 * 2.0 * tolerance
        cases = [
            # across a 2*tol cell edge
            (complex(edge - 0.5 * tolerance, 0.25),
             complex(edge + 0.5 * tolerance, 0.25),
             complex(edge, 0.25)),
            # inside one 2*tol cell
            (complex(edge + 0.25 * tolerance, 0.25),
             complex(edge + 1.5 * tolerance, 0.25),
             complex(edge + 0.875 * tolerance, 0.25)),
            # same real part
            (complex(0.25, edge + 0.25 * tolerance),
             complex(0.25, edge + 1.5 * tolerance),
             complex(0.25, edge + 0.875 * tolerance)),
            # diagonal neighbours
            (complex(edge + 0.25 * tolerance, edge + 1.5 * tolerance),
             complex(edge + 1.5 * tolerance, edge + 0.25 * tolerance),
             complex(edge + 0.875 * tolerance, edge + 0.875 * tolerance)),
        ]
        for one, other, query in cases:
            for first, second in ((one, other), (other, one)):
                table, reference = _replay([first, second, query], tolerance)
                assert table.lookup(query) == first
                _assert_same_contents(table, reference)
        assert table.cell(cases[1][0]) == table.cell(cases[1][1])
        # A nearer representative minted after the query resolved does
        # not capture it.
        older = complex(edge + 0.75 * tolerance, 0.25)
        query = complex(edge, 0.25)
        nearer = complex(edge - 0.5 * tolerance, 0.25)
        table, reference = _replay([older, query, nearer, query], tolerance)
        assert len(table) == len(_SEEDS) + 2
        assert table.lookup(query) == older
        _assert_same_contents(table, reference)

    def test_find_and_near_use_the_search_window(self):
        tolerance = 2.0 ** -30
        table = ComplexTable(tolerance)
        edge = 6 * 2.0 * tolerance
        below = table.lookup(complex(edge - 0.25 * tolerance, 0.5))
        # Plant a duplicate across the cell edge, bypassing the search.
        above = complex(edge + 0.25 * tolerance, 0.5)
        table._insert(above)
        assert table.cell(below) != table.cell(above)
        assert table.find(below) == below
        assert table.near(below) == [below, above]
        assert table.find(complex(edge + tolerance, 0.5)) == above
        assert table.find(complex(edge + 2 * tolerance, 0.5)) is None


class TestPredicates:
    def test_is_zero(self):
        table = ComplexTable()
        assert table.is_zero(ComplexTable.ZERO)
        assert table.is_zero(complex(1e-12, 1e-12))
        assert not table.is_zero(complex(1e-3, 0.0))

    def test_is_one(self):
        table = ComplexTable()
        assert table.is_one(ComplexTable.ONE)
        assert table.is_one(complex(1.0 + 1e-12, -1e-12))
        assert not table.is_one(complex(0.999, 0.0))

    def test_approx_equal(self):
        table = ComplexTable()
        assert table.approx_equal(0.3 + 0.4j, 0.3 + 0.4j + 1e-12)
        assert not table.approx_equal(0.3 + 0.4j, 0.3 + 0.5j)


class TestBookkeeping:
    def test_hit_and_miss_counting(self):
        table = ComplexTable()
        table.lookup(0.123)  # miss
        table.lookup(0.123)  # hit
        assert table.misses >= 1
        assert table.hits >= 1

    def test_len_counts_entries(self):
        table = ComplexTable()
        before = len(table)
        table.lookup(0.777)
        assert len(table) == before + 1

    def test_clear_reseeds_specials(self):
        table = ComplexTable()
        table.lookup(0.777)
        table.clear()
        assert table.lookup(1.0) == ComplexTable.ONE
        assert table.hits >= 0

    def test_clear_reseeds_full_special_set(self):
        # Regression: clear() used to re-insert only 0/1/-1/+-1j, so the
        # sqrt(2) family got fresh (bit-different) representatives after a
        # cache reset — breaking exact == against pre-clear weights.
        table = ComplexTable()
        sqrt2_inv = 1.0 / math.sqrt(2.0)
        before = len(table)
        table.clear()
        assert len(table) == before
        for special in (complex(sqrt2_inv, 0.0), complex(-sqrt2_inv, 0.0),
                        complex(0.0, sqrt2_inv), complex(0.0, -sqrt2_inv)):
            hits_before = table.hits
            assert table.lookup(special) == special
            assert table.hits == hits_before + 1  # seeded, not re-minted


class TestSweep:
    def test_unmarked_values_dropped(self):
        table = ComplexTable()
        keep = table.lookup(0.123 + 0.456j)
        table.lookup(0.777)
        table.lookup(-0.25j)
        reclaimed = table.sweep({keep})
        assert reclaimed == 2
        # The survivor keeps its identity (a re-lookup is a hit).
        hits_before = table.hits
        assert table.lookup(0.123 + 0.456j) == keep
        assert table.hits == hits_before + 1

    def test_specials_survive_empty_mark_set(self):
        table = ComplexTable()
        table.lookup(0.777)
        table.sweep(set())
        assert table.lookup(1.0) == ComplexTable.ONE
        assert table.lookup(1.0 / math.sqrt(2.0)) == complex(
            1.0 / math.sqrt(2.0), 0.0
        )

    def test_sweep_does_not_duplicate_marked_specials(self):
        # A marked seed survives the sweep AND gets re-seeded; the idempotent
        # _seed() must not insert it a second time.
        table = ComplexTable()
        size = len(table)
        table.sweep({ComplexTable.ONE, complex(0.0, 1.0)})
        assert len(table) == size
        table.sweep(set())
        assert len(table) == size


class TestPhaseOf:
    def test_positive_real_phase_zero(self):
        assert phase_of(complex(2.0, 0.0)) == 0.0

    def test_quadrants(self):
        assert abs(phase_of(1j) - math.pi / 2) < 1e-12
        assert abs(phase_of(-1.0 + 0j) - math.pi) < 1e-12
        assert abs(phase_of(-1j) - 1.5 * math.pi) < 1e-12

    def test_range_half_open(self):
        angle = phase_of(complex(1.0, -1e-18))
        assert 0.0 <= angle < 2.0 * math.pi

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subshift_spectra import IntervalSet, interval_algebra
from subshift_spectra.intervals import MERGE_TOL

from conftest import endpoint_reprs, rng, sequential_merge


def make(*pairs):
    return IntervalSet.from_pairs(pairs)


def test_union_example():
    u = make((0, 1)).union(make((0.5, 2)))
    assert u.intervals == ((0.0, 2.0),)
    assert u.measure == 2.0


def test_difference_example():
    d = make((0, 2)).difference(make((1, 3)))
    assert d.intervals == ((0.0, 1.0),)


def test_difference_keeps_uncut_points():
    point = make((0, 0))
    assert point.difference(IntervalSet.empty()).intervals == ((0.0, 0.0),)
    assert make((1, 1)).difference(make((0, 0.5))).intervals == ((1.0, 1.0),)
    # a point that the other set covers, or touches, is gone
    assert make((1, 1)).difference(make((0.5, 1))) == IntervalSet.empty()
    assert make((1, 1)).difference(make((1, 1))) == IntervalSet.empty()


def test_dilate_example():
    d = make((0, 1)).dilate(0.1)
    assert d.intervals == ((-0.1, 1.1),)
    with pytest.raises(ValueError):
        make((0, 1)).dilate(-0.5)


def test_touching_intervals_merge():
    s = make((0, 1), (1, 2))
    assert s.intervals == ((0.0, 2.0),)
    assert s.measure == 2.0
    # within merge tolerance too
    s2 = make((0, 1), (1 + 1e-13, 2))
    assert len(s2) == 1


def test_canonical_form_is_validated():
    with pytest.raises(ValueError):
        IntervalSet(((0.0, 1.0), (0.5, 2.0)))
    with pytest.raises(ValueError):
        IntervalSet(((1.0, 0.0),))


def test_subset_and_contains():
    a = make((0, 1), (2, 3))
    b = make((-1, 1.5), (1.9, 4))
    assert a.subset_of(b)
    assert not b.subset_of(a)
    assert a.contains_point(2.5)
    assert not a.contains_point(1.5)
    assert IntervalSet.empty().subset_of(a)


def test_inclusion_exclusion_exact_on_rationals():
    # endpoints on a 1/64 grid keep every operation exact
    g = rng(5)
    for _ in range(300):
        def random_set():
            pairs = []
            for _ in range(g.integers(0, 5)):
                lo = g.integers(-128, 128) / 64.0
                hi = lo + g.integers(1, 64) / 64.0
                pairs.append((lo, hi))
            return IntervalSet.from_pairs(pairs)

        x, y = random_set(), random_set()
        lhs = x.union(y).measure + x.intersect(y).measure
        rhs = x.measure + y.measure
        assert lhs == rhs


def test_difference_complements_intersection():
    g = rng(6)
    for _ in range(200):
        pairs_x = [(v, v + g.uniform(0.1, 2)) for v in g.uniform(-10, 10, 3)]
        pairs_y = [(v, v + g.uniform(0.1, 2)) for v in g.uniform(-10, 10, 3)]
        x = IntervalSet.from_pairs(pairs_x)
        y = IntervalSet.from_pairs(pairs_y)
        assert x.difference(y).measure + x.intersect(y).measure == pytest.approx(
            x.measure, abs=1e-12
        )
        assert x.difference(y).intersect(y).measure <= 1e-12


def test_clip_and_span():
    s = make((0, 1), (4, 6))
    assert s.clip(0.5, 5).intervals == ((0.5, 1.0), (4.0, 5.0))


def test_interval_algebra_dispatch():
    x = make((0, 1))
    y = make((0.5, 2))
    assert interval_algebra("union", x, y).measure == 2.0
    assert interval_algebra("intersect", x, y).intervals == ((0.5, 1.0),)
    assert interval_algebra("difference", x, y).intervals == ((0.0, 0.5),)
    assert interval_algebra("dilate", x, 0.25).intervals == ((-0.25, 1.25),)
    assert interval_algebra("subset", make((0.1, 0.2)), x) is True
    assert interval_algebra("measure", x, None) == 1.0
    with pytest.raises(ValueError):
        interval_algebra("xor", x, y)


# -- properties ----------------------------------------------------------------

# endpoints with exact ties, signed zeros and gaps just inside and just
# outside MERGE_TOL of their neighbours
_POINTS = [-2.0, -1.0, -1e-12, -0.0, 0.0, 5e-13, 1e-12, 2e-12, 1.0, 1.0 + 5e-13, 1.0 + 3e-12, 2.5]
_point = st.one_of(st.sampled_from(_POINTS), st.floats(-4.0, 4.0, allow_nan=False))
_pair = st.tuples(_point, _point).map(lambda p: tuple(sorted(p)))
_pairs = st.lists(_pair, max_size=12)
_PROPS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@_PROPS
@given(_pairs, st.sampled_from([MERGE_TOL, 0.0]))
@example([(-0.0, 1.0), (0.0, 0.5)], 0.0)  # equal lo: the smaller hi sorts first
@example([(-1.0, -0.0), (-0.5, 0.0)], 0.0)  # equal maximal hi: the first one ends
@example([(0.0, 0.0), (-0.0, -0.0)], MERGE_TOL)  # equal pairs keep input order
def test_from_pairs_equals_sequential_merge(pairs, merge_tol):
    got = IntervalSet.from_pairs(pairs, merge_tol=merge_tol).intervals
    want = sequential_merge(pairs, merge_tol)
    assert got == want
    assert endpoint_reprs(got) == endpoint_reprs(want)


@_PROPS
@given(_pairs, st.integers(0, 12), st.sampled_from([(1.0, 0.5), (math.nan, 1.0), (0.0, math.nan)]))
def test_from_pairs_rejects_reversed_and_nan(pairs, pos, bad):
    with pytest.raises(ValueError):
        IntervalSet.from_pairs(pairs[:pos] + [bad] + pairs[pos:])


# endpoints on a 1/64 grid, so every measure below is exact
_grid_pair = st.tuples(st.integers(-128, 128), st.integers(0, 64)).map(
    lambda p: (p[0] / 64.0, (p[0] + p[1]) / 64.0)
)
_grid_set = st.lists(_grid_pair, max_size=6).map(IntervalSet.from_pairs)


@_PROPS
@given(_grid_set, _grid_set)
def test_intersect_and_difference_partition(x, y):
    inside, outside = x.intersect(y), x.difference(y)
    assert inside.measure + outside.measure == x.measure
    assert inside.intersect(outside).measure == 0.0
    assert inside.subset_of(x) and outside.subset_of(x)


@_PROPS
@given(st.one_of(_pairs.map(IntervalSet.from_pairs), _grid_set))
@example(make((0, 0)))
@example(make((-0.0, 0.0), (1, 1)))
def test_difference_with_empty_is_identity(x):
    got = x.difference(IntervalSet.empty())
    assert got == x
    assert endpoint_reprs(got.intervals) == endpoint_reprs(x.intervals)


def _per_group_reference(group, lo, hi, n):
    """The reference: from_pairs on each group's rows."""
    return [
        IntervalSet.from_pairs([(a, b) for t, a, b in zip(group, lo, hi) if t == k])
        for k in range(n)
    ]


def _random_component_table(gen, grid_pts, n_triples):
    """Components of each triple as grid runs with outside points between
    them.  Bisection leaves an edge in its outside grid step, on the outside
    point itself when every probe was inside, so that two components one
    outside point apart touch."""

    def edge(outside, inside):
        return outside + gen.choice([0.0, gen.random()]) * (inside - outside)

    tri, lo, hi = [], [], []
    for k in range(n_triples):
        inside = gen.random(grid_pts.size) < gen.choice([0.0, 0.3, 0.7, 1.0])
        cols = np.flatnonzero(np.diff(np.concatenate(([0], inside.astype(int), [0]))))
        for start, stop in zip(cols[::2], cols[1::2]):
            a, b = grid_pts[start], grid_pts[stop - 1]
            tri.append(k)
            lo.append(edge(grid_pts[start - 1], a) if start > 0 else a)
            hi.append(edge(grid_pts[stop], b) if stop < grid_pts.size else b)
    return np.array(tri, dtype=int), np.array(lo), np.array(hi)


def test_per_group_equals_from_pairs_per_group():
    g = np.linspace(-3.0, 3.0, 17)
    rows = [
        (0, g[0], g[2]),  # a component at grid index 0
        (0, g[4], g[6]),
        (0, g[10], g[16]),  # and at grid index 16 = grid - 1
        (1, g[3], g[5]),
        (1, g[5], g[6]),  # touching: hi == lo
        (1, g[7] + 0.25 * (g[8] - g[7]), g[9]),
        (3, -0.5, 0.5),
        (3, 0.5 + 0.5 * MERGE_TOL, 0.75),  # within MERGE_TOL
        (3, 0.75 + 4 * MERGE_TOL, 1.0),  # beyond it
    ]
    group, lo, hi = (np.array(col) for col in zip(*rows))
    want = _per_group_reference(group, lo, hi, 5)
    assert IntervalSet.per_group(group, lo, hi, 5) == want  # groups 2 and 4 empty
    assert [len(s) for s in want] == [3, 2, 0, 2, 0]
    empty = np.array([], dtype=int), np.array([]), np.array([])
    assert IntervalSet.per_group(*empty, 3) == [IntervalSet.empty()] * 3
    assert IntervalSet.per_group(*empty, 0) == []
    gen, merges = np.random.default_rng(20), 0
    for _ in range(200):
        table = _random_component_table(gen, g, 4)
        got = IntervalSet.per_group(*table, 4)
        assert got == _per_group_reference(*table, 4)
        merges += table[0].size - sum(len(s) for s in got)
    assert merges > 0


@pytest.mark.parametrize(
    "lo, hi",
    [([0.0, -1.0], [1.0, 2.0]), ([0.0, 0.5], [2.0, 1.0]), ([0.0, 2.0], [1.0, 1.5])],
    ids=["lo_decreasing", "hi_decreasing", "lo_above_hi"],
)
def test_per_group_rejects_unordered_table(lo, hi):
    with pytest.raises(RuntimeError, match="strictly increasing"):
        IntervalSet.per_group(np.array([0, 0]), np.array(lo), np.array(hi), 1)

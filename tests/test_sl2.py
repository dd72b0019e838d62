import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subshift_spectra import Mat2, Potential, cocycle_product, transfer_matrix
from subshift_spectra.sl2 import (
    DegenerateAngleError,
    _dist_mod_pi,
    EllipticError,
    PI,
    cocycle_rows,
    cocycle_stack,
    cone_certificate,
    peak_angle,
    proj_angle,
    proj_dist,
    random_transfer_products,
    svd_angles,
    svd_angles_stack,
)
from subshift_spectra.words import UnknownLetterError

from conftest import rng


def test_transfer_matrix_examples():
    assert transfer_matrix(5.0, 5.0) == Mat2(0.0, -1.0, 1.0, 0.0)
    assert transfer_matrix(2.0, 0.0) == Mat2(2.0, -1.0, 1.0, 0.0)
    assert transfer_matrix(0.0, 5.0) == Mat2(-5.0, -1.0, 1.0, 0.0)
    assert transfer_matrix(1.7, 0.3).det == 1.0


def test_cocycle_empty_and_single(pot04):
    assert cocycle_product("", 2.3, pot04) == Mat2.IDENTITY
    assert cocycle_product("b", 1.5, pot04) == transfer_matrix(1.5, 4.0)


def test_cocycle_two_letter_against_direct_multiplication(pot04):
    # independent oracle: plain numpy product in the same order
    for energy in (-1.0, 0.0, 0.5, 2.0, 7.0):
        got = cocycle_product("ab", energy, pot04).as_array()
        oracle = (
            np.array([[energy - 4.0, -1.0], [1.0, 0.0]])
            @ np.array([[energy, -1.0], [1.0, 0.0]])
        )
        assert np.array_equal(got, oracle)
        # closed form [[ (E-4)E-1, -(E-4)], [E, -1]]
        assert got[0, 0] == (energy - 4.0) * energy - 1.0
        assert got[1, 0] == energy


def _chain(word, energy, pot):
    """Left-to-right chain of ``transfer_matrix`` products; ``energy`` may be
    an array, whose entries then run independent scalar-identical chains."""
    m = Mat2.IDENTITY
    for ch in word:
        m = transfer_matrix(energy, pot.value(ch)) @ m
    return m


@pytest.mark.parametrize("n_energies", [1, 2, 5, 2049])
def test_cocycle_stack_bit_equal_to_scalar_chain(n_energies):
    # the vectorized recurrence must agree bit for bit with chained transfer
    # matrices, at every energy and for the empty word too
    gen = rng(n_energies)
    pots = {
        "ab": Potential({"a": 0.0, "b": 4.0}),
        "abc": Potential({"a": 0.0, "b": 2.5, "c": -1.75}),
    }
    for letters, pot in pots.items():
        energies = gen.uniform(-4.0, 6.0, n_energies)
        for length in (0, 90, *gen.integers(1, 90, 3)):
            word = "".join(gen.choice(list(letters), length))
            got = cocycle_stack(word, energies, pot)
            assert got.shape == (n_energies, 2, 2)
            if not word:
                assert np.array_equal(got, np.broadcast_to(np.eye(2), got.shape))
                continue
            m = _chain(word, energies, pot)
            for entry, (i, j) in zip((m.a, m.b, m.c, m.d), np.ndindex(2, 2)):
                assert np.array_equal(got[:, i, j], np.broadcast_to(entry, n_energies))
            for k in (0, n_energies - 1):  # plain Python floats
                scalar = _chain(word, float(energies[k]), pot)
                assert np.array_equal(got[k], scalar.as_array()), (word, energies[k])


def test_cocycle_rows_derivative_bit_equal_to_product_rule_chain():
    # the derivative rows are d/dE of T(w[-1]) ... T(w[0]) by the chain
    # D <- dT P + T D, dT = [[1, 0], [0, 0]], bit for bit wherever the chain
    # is finite (past overflow it differs only through 0 * inf), and the
    # product rows are those of the plain recurrence
    gen = rng(28)
    pot = Potential({"a": 0.0, "b": 2.5, "c": -1.75})
    dt = np.array([[1.0, 0.0], [0.0, 0.0]])
    n = 17
    for _ in range(300):
        energies = gen.uniform(-4.0, 6.0, n)
        word = "".join(gen.choice(list("abc"), gen.integers(1, 120)))
        p, dp = np.broadcast_to(np.eye(2), (n, 2, 2)).copy(), np.zeros((n, 2, 2))
        for ch in word:
            t = np.zeros((n, 2, 2))
            t[:, 0, 0], t[:, 0, 1], t[:, 1, 0] = energies - pot.value(ch), -1.0, 1.0
            dp = dt @ p + t @ dp
            p = t @ p
        xs = [energies - pot.value(ch) for ch in word]
        rows = cocycle_rows(xs, n, derivative=True)
        got = np.stack(rows, axis=-1).reshape(n, 2, 2, 2)
        finite = np.isfinite(dp).all(axis=(1, 2))
        assert finite.any()
        assert np.array_equal(got[finite, 0], p[finite])
        assert np.array_equal(got[finite, 1], dp[finite])
        assert all(np.array_equal(x, y) for x, y in zip(cocycle_rows(xs, n), rows[:4], strict=True))


def test_cocycle_composition_order_convention(pot04):
    # product over a concatenation equals (suffix product) @ (prefix product);
    # integer inputs keep every float operation exact
    u, v = "abba", "baab"
    for energy in (-2.0, 0.0, 1.0, 3.0):
        left = cocycle_product(u + v, energy, pot04)
        right = cocycle_product(v, energy, pot04) @ cocycle_product(u, energy, pot04)
        assert left == right


def test_cocycle_unknown_letter(pot04):
    with pytest.raises(UnknownLetterError):
        cocycle_product("az", 1.0, pot04)


def test_determinant_drift():
    # fp determinant drift scales like eps * norm^2: the 1e-9 budget is
    # checkable up to norms ~1e2, and a quadratic envelope holds to 1e6
    for m in random_transfer_products(10_000, seed=101, norm_max=1e2):
        assert abs(m.det - 1.0) <= 1e-9
    for m in random_transfer_products(2_000, seed=102, norm_max=1e6):
        assert abs(m.det - 1.0) <= 1e-12 * max(m.norm, 1.0) ** 2


def test_svd_angles_diagonal():
    split = svd_angles(Mat2.diagonal(2.0))
    assert split.u == 0.0
    assert split.s == PI / 2
    assert split.lam == 2.0


def test_svd_angles_by_construction():
    m = Mat2.rotation(0.3) @ Mat2.diagonal(3.0) @ Mat2.rotation(PI / 2 - 1.1)
    split = svd_angles(m)
    assert abs(split.u - 0.3) < 1e-12
    assert abs(split.s - 1.1) < 1e-12
    assert abs(split.lam - 3.0) < 1e-12


def test_svd_roundtrip_suite():
    worst = 0.0
    for m in random_transfer_products(10_000, seed=7, norm_max=1e6):
        split = svd_angles(m)
        r = split.reconstruct()
        err = math.sqrt(
            (r.a - m.a) ** 2 + (r.b - m.b) ** 2 + (r.c - m.c) ** 2 + (r.d - m.d) ** 2
        )
        worst = max(worst, err / split.lam)
        assert err <= 1e-8 * split.lam
    assert worst < 1e-10  # typical accuracy is far below the contract


def test_svd_lam_matches_spectral_norm():
    for m in random_transfer_products(500, seed=11, norm_max=1e6):
        lam = svd_angles(m).lam
        ref = np.linalg.norm(m.as_array(), ord=2)
        assert abs(lam - ref) <= 1e-10 * ref


def test_svd_rejects_rotations():
    with pytest.raises(EllipticError):
        svd_angles(Mat2.rotation(0.7))
    with pytest.raises(EllipticError):
        svd_angles(Mat2.IDENTITY)


def test_svd_angles_stack_matches_scalar(pot04):
    energies = np.linspace(-3, 3, 101)
    mats = np.stack([cocycle_product("ab", e, pot04).as_array() for e in energies])
    u, s, log_lam, hyp = svd_angles_stack(mats)
    for i, e in enumerate(energies):
        m = cocycle_product("ab", e, pot04)
        if not hyp[i]:
            with pytest.raises(EllipticError):
                svd_angles(m)
            continue
        split = svd_angles(m)
        assert abs(u[i] - split.u) < 1e-12
        assert abs(s[i] - split.s) < 1e-12
        assert abs(log_lam[i] - split.log_lam) < 1e-12


_split_params = st.tuples(
    st.floats(-PI, PI), st.floats(0.01, 30.0), st.floats(-PI, PI)
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_split_params, min_size=1, max_size=30))
def test_svd_angles_stack_round_trip(params):
    # random hyperbolic SL(2,R) stacks R_a . diag(lam, 1/lam) . R_b, log lam in [0.01, 30]
    mats = np.stack([
        (Mat2.rotation(a) @ Mat2.diagonal(math.exp(t)) @ Mat2.rotation(b)).as_array()
        for a, t, b in params
    ])
    u, s, log_lam, hyp = svd_angles_stack(mats)
    assert hyp.all()
    for k, m in enumerate(mats):
        lam = math.exp(log_lam[k])
        rebuilt = (
            Mat2.rotation(u[k]) @ Mat2.diagonal(lam) @ Mat2.rotation(PI / 2 - s[k])
        ).as_array()
        # the contract of test_svd_roundtrip_suite: error at most 1e-8 lam
        assert np.linalg.norm(rebuilt - m) <= 1e-8 * lam
        split = svd_angles(Mat2.from_array(m))
        assert proj_dist(u[k], split.u) <= 1e-12 and proj_dist(s[k], split.s) <= 1e-12
        assert abs(log_lam[k] - split.log_lam) <= 1e-12


@pytest.mark.parametrize("log10_norm", [200.0, 300.0, 154.2])
def test_svd_angles_stack_finite_past_squared_scale_overflow(log10_norm):
    # the scale's square overflows from a norm of about 1.34e154; the split
    # stays finite and warning-free (pytest makes warnings errors) up to 1e300
    lam = 10.0**log10_norm
    mats = np.stack([
        (Mat2.rotation(a) @ Mat2.diagonal(lam) @ Mat2.rotation(PI / 2 - b)).as_array()
        for a, b in [(0.3, 1.1), (-1.2, -2.9), (1.5, 0.0)]
    ])
    u, s, log_lam, hyp = svd_angles_stack(mats)
    assert hyp.all() and np.isfinite(log_lam).all()
    assert np.allclose(log_lam, math.log(lam), rtol=1e-15, atol=0.0)
    for k, (a, b) in enumerate([(0.3, 1.1), (-1.2, -2.9), (1.5, 0.0)]):
        assert proj_dist(u[k], a) <= 1e-12 and proj_dist(s[k], b) <= 1e-12


def test_proj_dist_examples():
    assert proj_dist(0.0, 0.0) == 0.0
    assert proj_dist(0.0, PI) == 0.0
    assert abs(proj_dist(0.1, 3.1) - (PI - 3.0)) < 1e-12
    assert proj_dist((1.0, 0.0), (0.0, 2.0)) == PI / 2
    with pytest.raises(ValueError):
        proj_dist((0.0, 0.0), 1.0)


def test_proj_dist_is_a_metric():
    g = rng(23)
    angles = g.uniform(-10, 10, (3000, 3))
    for a, b, c in angles:
        dab, dba = proj_dist(a, b), proj_dist(b, a)
        assert dab == dba
        assert 0.0 <= dab <= PI / 2
        assert proj_dist(a, c) <= dab + proj_dist(b, c) + 1e-12
    assert proj_angle(-0.5) == pytest.approx(PI - 0.5)


# -- exact mod-pi forms ------------------------------------------------------

_PROPS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
_NEAR_PI = float(np.nextafter(PI, 0.0))
# signed zeros, the ends of arctan2's range and their neighbours, negative
# subnormals and tiny negatives that vanish against pi, and NaN
_ANGLE_EDGES = [0.0, -0.0, PI, -PI, _NEAR_PI, -_NEAR_PI, -5e-324, -1e-300, 5e-324, math.nan]
# and the ends of the subtraction fold [pi, 2 pi) with their neighbours
_DIST_EDGES = _ANGLE_EDGES + [
    math.inf, -math.inf, 2 * PI, -2 * PI, 3 * PI / 2, 1e300, -1e300, 4 * PI,
    *(float(np.nextafter(x, y)) for x, y in [(PI, 4.0), (2 * PI, 0.0), (2 * PI, 7.0)]),
]


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


_dist_value = st.one_of(
    st.sampled_from(_DIST_EDGES),
    st.floats(-PI, PI),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=True, allow_infinity=True),
)


@_PROPS
@given(st.lists(st.tuples(_dist_value, _dist_value), max_size=40))
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_dist_mod_pi_bit_equal_to_remainder(pairs):
    edges = [(a, b) for a in _DIST_EDGES for b in (0.0, PI / 2, -PI)]
    a, b = np.array(edges + pairs).T
    m = np.abs(a - b) % PI
    want = _bits(np.minimum(m, PI - m))
    assert np.array_equal(_bits(_dist_mod_pi(a, b)), want)
    # 0-d arguments go through the same reduction
    assert _bits(_dist_mod_pi(a[0], b[0])) == _bits(np.minimum(m[0], PI - m[0]))
    # against a scalar, as the scan's distance to pi/2
    m_half = np.abs(a - PI / 2) % PI
    assert np.array_equal(_bits(_dist_mod_pi(a, PI / 2)), _bits(np.minimum(m_half, PI - m_half)))


def test_peak_angle_identity():
    res = peak_angle(2.0, 2.0, Mat2.IDENTITY)
    assert res.theta == 0.0
    assert res.l1 == 0.0
    assert res.l2 == -16.0 + 1.0 / 16.0


def test_peak_angle_matches_split():
    d = Mat2.rotation(0.2)
    res = peak_angle(100.0, 100.0, d)
    a = Mat2.diagonal(100.0) @ d @ Mat2.diagonal(100.0)
    split = svd_angles(a)
    assert proj_dist(res.theta, split.s - PI / 2) <= 1e-6


def test_peak_angle_random_agreement():
    # hypothesis-satisfying draws: theta and the split agree to 1e-6
    g = rng(31)
    checked = 0
    while checked < 10_000:
        m = g.uniform(1.0, 10.0)
        d = (
            Mat2.rotation(g.uniform(0, PI))
            @ Mat2.diagonal(m)
            @ Mat2.rotation(g.uniform(0, PI))
        )
        if proj_dist((d.a, d.c), PI / 2) <= 1e3 ** -0.25:
            continue
        lam0, lam1 = 1e3 * 10 ** g.uniform(0, 2, 2)
        res = peak_angle(lam0, lam1, d)
        a = Mat2.diagonal(lam1) @ d @ Mat2.diagonal(lam0)
        split = svd_angles(a)
        assert proj_dist(res.theta, split.s - PI / 2) <= 1e-6
        checked += 1


def test_peak_angle_outside_hypotheses_still_computes():
    # a = 0 violates the frame-angle hypothesis; the formula must still
    # return finite numbers, with no agreement implied
    d = Mat2(0.0, 1.0, -1.0, 0.5)
    res = peak_angle(5.0, 5.0, d)
    assert math.isfinite(res.theta)
    assert math.isfinite(res.l1) and math.isfinite(res.l2)


def test_peak_angle_degenerate():
    with pytest.raises(DegenerateAngleError):
        peak_angle(2.0, 2.0, Mat2(0.0, 1.0, -1.0, 0.0))


def test_cone_certificate_examples():
    pot = Potential({"a": 0.0, "b": 100.0})
    assert cone_certificate(0.0, pot, "a", 0.5, 3.0) is True
    assert cone_certificate(100.0, pot, "a", 0.5, 3.0) is False  # E = v(b)
    # |E - v| = 5: ray (1, 0.5) -> (4.5, 1), inside the cone with growth >= 10/3
    pot2 = Potential({"a": 100.0, "b": 0.0})
    assert cone_certificate(5.0, pot2, "a", 0.5, 3.0) is True
    with pytest.raises(ValueError):
        cone_certificate(0.0, pot, "a", 1.5, 3.0)

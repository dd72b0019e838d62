import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subshift_spectra import FIBONACCI, IntervalSet, Periodic, Potential
from subshift_spectra import tower as tower_module
from subshift_spectra.sl2 import PI, cocycle_rows, cocycle_stack, svd_angles_stack
from subshift_spectra.tower import (
    CocycleOverflowError,
    Constants,
    ScheduleError,
    acceleration_verify,
    advance_schedule,
    covering_and_measure_check,
    critical_matrix_bound,
    exclusion_sets,
    grid_outside,
    init_schedule,
    tower_pipeline,
    verify_windows,
)
from subshift_spectra.words import return_structure


@pytest.fixture(scope="module")
def fib_result():
    pot = Potential({"a": 0.0, "b": 200.0})
    return tower_pipeline(
        FIBONACCI,
        pot,
        "a",
        gamma=0.1,
        gamma_prime=0.2,
        c=1.0,
        sample_len=650,
        grid=1025,
        refine_tol=1e-7,
        approx_len=13,
        approx_sample_len=1024,
        accel_energies=32,
        accel_r_max=5,
    )


# -- schedule ----------------------------------------------------------------


def test_critical_matrix_bound_range():
    pot = Potential({"a": 0.0, "b": 200.0})
    c = critical_matrix_bound(pot, "a", 2, 3.0)
    assert 5.0 < c < 12.0
    assert critical_matrix_bound(pot, "a", 1, 3.0) >= 1.0


def _matmul_marker_bound(pot, alpha0, max_run, h, grid):
    """The marker bound by the matmul product rule D <- D C + P dC, P <- P C
    on (grid, 2, 2) stacks: the oracle of ``critical_matrix_bound``."""
    e0 = pot.value(alpha0)
    c = np.zeros((grid, 2, 2))
    c[:, 0, 0] = np.linspace(e0 - h, e0 + h, grid) - e0
    c[:, 0, 1], c[:, 1, 0] = -1.0, 1.0
    dc = np.zeros((grid, 2, 2))
    dc[:, 0, 0] = 1.0
    worst = 0.0
    power, dpower = np.broadcast_to(np.eye(2), (grid, 2, 2)).copy(), np.zeros((grid, 2, 2))
    for _ in range(max_run):
        dpower = dpower @ c + power @ dc
        power = power @ c
        norms = [np.linalg.norm(m, ord=2, axis=(1, 2)).max() for m in (power, dpower)]
        worst = max(worst, *map(float, norms))
    return min(max(worst, 1.0), max_run * (2.0 + h) ** max_run)


@pytest.mark.parametrize("grid", [33, 257])
@pytest.mark.parametrize("h", [1.5, 2.9, 3.0])
def test_critical_matrix_bound_bit_equal_to_matmul_product_rule(h, grid):
    pot = Potential({"a": 0.25, "b": 200.0})
    energies = np.linspace(0.25 - h, 0.25 + h, grid)
    power_norm = 0.0
    for max_run in range(1, 13):
        got = critical_matrix_bound(pot, "a", max_run, h, grid)
        assert type(got) is float
        assert got == _matmul_marker_bound(pot, "a", max_run, h, grid), max_run
        power = cocycle_stack("a" * max_run, energies, pot)
        power_norm = max(power_norm, np.linalg.norm(power, ord=2, axis=(1, 2)).max())
        if max_run >= 3:  # the derivative's norm sets C
            assert got > power_norm


def test_init_schedule_values():
    sched = init_schedule(0.1, 0.2, 1.0, 100.0, 2, 3, Constants(), 5.0)
    lv = sched.level(0)
    assert lv.lam_bar == pytest.approx(50.0, rel=1e-14)  # stored in log form
    assert lv.chi == math.log(50.0)
    assert abs(sched.xi - 0.16094379124341003) < 1e-12
    assert lv.N == 25  # max(ceil(2/(1-e^-xi)) = 14, ceil(4/xi) = 25)
    assert lv.M == 1.5
    assert lv.kappa == pytest.approx(50.0**-0.15)


def test_init_schedule_parameter_chain_errors():
    with pytest.raises(ScheduleError, match="gamma_prime < 1/4"):
        init_schedule(0.3, 0.35, 1.0, 100.0, 2, 3, Constants(), 5.0)
    with pytest.raises(ScheduleError, match="gamma < gamma_prime"):
        init_schedule(0.2, 0.1, 1.0, 100.0, 2, 3, Constants(), 5.0)
    with pytest.raises(ScheduleError, match="c < 2 - 3"):
        init_schedule(0.1, 0.2, 1.5, 100.0, 2, 3, Constants(), 5.0)
    with pytest.raises(ScheduleError, match="too small"):
        init_schedule(0.1, 0.2, 1.0, 5.0, 2, 3, Constants(), 5.0)


def test_advance_schedule_recursions():
    # test constants P log C = 0: chi_1 = chi_0 + log(kappa_0)/inf_l0
    sched = init_schedule(0.1, 0.2, 1.0, 100.0, 2, 3, Constants(P=1), 1.0)
    advance_schedule(sched, 50, 55)
    lv0, lv1 = sched.level(0), sched.level(1)
    expected_chi1 = math.log(50.0) * (1.0 - 0.15 / 2.0)
    assert lv1.chi == pytest.approx(expected_chi1, abs=1e-12)
    assert lv1.chi == pytest.approx(3.6186, abs=1e-3)
    assert lv1.log_lam_bar == pytest.approx(50 * expected_chi1)
    assert lv1.N == 2 * lv0.N
    assert lv1.eta == lv0.eta / 2
    assert lv1.M == pytest.approx((lv0.N + 1) / lv0.N * lv0.M)


def test_advance_schedule_coupling_too_small():
    sched = init_schedule(0.1, 0.2, 1.0, 7.0, 2, 3, Constants(P=3), 9.0)
    with pytest.raises(ScheduleError, match="coupling too small"):
        advance_schedule(sched, 50, 55)


def test_advance_schedule_rejects_bad_arity():
    sched = init_schedule(0.1, 0.2, 1.0, 100.0, 2, 3, Constants(P=1), 1.0)
    with pytest.raises(ScheduleError, match="arities"):
        advance_schedule(sched, 50, 55, observed_r=(3, 3))


def test_schedule_invariants_on_pipeline(fib_result):
    checks = fib_result.schedule.check_invariants()
    required_fails = [c for c in checks if c.required and not c.ok]
    assert required_fails == []
    names = {c.name for c in checks}
    assert any("zeta_0" in n for n in names)
    assert any("kappa_1" in n for n in names)
    # failed large-coupling items surface by name when the schedule advances
    assert all(not w.startswith("0 <") for w in fib_result.schedule.warnings)
    for w in fib_result.schedule.warnings:
        assert any(c.name == w and not c.required for c in checks)


def test_exclusion_reports_frame_sensitivity(fib_result):
    # the composed angle moves with unit rate in s alone, so the empirical
    # Lipschitz constant is at least 1 wherever frames exist
    for rep in fib_result.exclusions:
        assert rep.c5_hat >= 1.0
        for t in rep.triples:
            assert t.c5_hat <= rep.c5_hat


def test_zeta_formula(fib_result):
    s = fib_result.schedule
    lv = s.level(0)
    expected = (
        s.consts.P * math.log(s.c_value)
        + (2 * lv.eta - 2.0) * lv.log_lam_bar
        + math.log(lv.N)
    )
    assert s.log_zeta(0) == pytest.approx(expected)


# -- exclusion sets ----------------------------------------------------------


@pytest.fixture(scope="module")
def ab_structure():
    return return_structure(Periodic("ab"), "a", 0, [], 240)


def test_exclusion_kappa_zero_empty(ab_structure):
    pot = Potential({"a": 0.0, "b": 100.0})
    rep = exclusion_sets(ab_structure, 0, pot, 0.0, (-3.0, 3.0), 512, 1e-7)
    assert rep.j_set.measure == 0.0


def test_exclusion_kappa_max_full(ab_structure):
    # the core cocycle is hyperbolic on the whole window, so the sublevel
    # set at the maximal angle is everything
    pot = Potential({"a": 0.0, "b": 100.0})
    rep = exclusion_sets(ab_structure, 0, pot, PI / 2, (-3.0, 3.0), 512, 1e-7)
    assert rep.j_set.intervals == ((-3.0, 3.0),)


def test_exclusion_validation(ab_structure):
    pot = Potential({"a": 0.0, "b": 100.0})
    with pytest.raises(ValueError):
        exclusion_sets(ab_structure, 0, pot, 0.3, (-3.0, 3.0), 4, 1e-7)
    with pytest.raises(ValueError):
        exclusion_sets(ab_structure, 0, pot, 2.0, (-3.0, 3.0), 512, 1e-7)


def _oracle_gap_angle(e: float, vb: float) -> float:
    """Scalar oracle for the frame-tangency angle, built from numpy only.

    Splits A = [[E - vb, -1], [1, 0]] via numpy SVD, forms
    R_(pi/2 - s) C R_u e1 with C = [[E, -1], [1, 0]], and returns the
    projective distance of that vector to e2.
    """
    a = np.array([[e - vb, -1.0], [1.0, 0.0]])
    uu, sv, vh = np.linalg.svd(a)
    if np.linalg.det(uu) < 0:
        uu = uu @ np.diag([1.0, -1.0])
        vh = np.diag([1.0, -1.0]) @ vh
    u_ang = math.atan2(uu[1, 0], uu[0, 0])
    w_ang = math.atan2(vh[1, 0], vh[0, 0])
    s_ang = PI / 2 - w_ang

    def rot(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    c = np.array([[e, -1.0], [1.0, 0.0]])
    vec = rot(PI / 2 - s_ang) @ c @ rot(u_ang) @ np.array([1.0, 0.0])
    diff = abs(math.atan2(vec[1], vec[0]) - PI / 2) % PI
    return min(diff, PI - diff)


def test_exclusion_against_dense_grid_oracle(ab_structure):
    pot = Potential({"a": 0.0, "b": 100.0})
    kappa = 0.3
    rep = exclusion_sets(ab_structure, 0, pot, kappa, (-3.0, 3.0), 4097, 1e-6)
    assert len(rep.triples) == 1
    got = rep.triples[0].intervals

    es = np.linspace(-3.0, 3.0, 100_001)
    inside = np.array([_oracle_gap_angle(float(e), 100.0) <= kappa for e in es])
    pairs = []
    i = 0
    while i < es.size:
        if inside[i]:
            j = i
            while j + 1 < es.size and inside[j + 1]:
                j += 1
            pairs.append((es[i], es[j]))
            i = j + 1
        else:
            i += 1
    oracle = IntervalSet.from_pairs(pairs)

    step = es[1] - es[0]
    assert len(got) == len(oracle)
    for (lo1, hi1), (lo2, hi2) in zip(got, oracle):
        assert abs(lo1 - lo2) <= step + 1e-6
        assert abs(hi1 - hi2) <= step + 1e-6
    sym = got.difference(oracle).measure + oracle.difference(got).measure
    assert sym <= 2 * len(got) * (step + 1e-6)


def test_exclusion_rotation_energies_folded_in():
    # at E = v(a) the single-letter core is an exact rotation: no frames
    # exist there, so the energy is folded into the exclusion even at kappa=0
    pot = Potential({"a": 0.0, "b": 4.0})
    rs = return_structure(Periodic("ab"), "b", 0, [], 240)
    assert rs.level(0).cores == ["a"]
    rep = exclusion_sets(rs, 0, pot, 0.0, (-3.0, 3.0), 9, 1e-9)
    assert len(rep.j_set) == 1
    (lo, hi), = rep.j_set.intervals
    assert lo <= 0.0 <= hi
    assert hi - lo <= 2.0  # a refined sliver around the rotation energy, not the window


def test_exclusion_monotone_in_kappa(ab_structure):
    pot = Potential({"a": 0.0, "b": 100.0})
    small = exclusion_sets(ab_structure, 0, pot, 0.2, (-3.0, 3.0), 1024, 1e-7)
    large = exclusion_sets(ab_structure, 0, pot, 0.4, (-3.0, 3.0), 1024, 1e-7)
    assert small.j_set.subset_of(large.j_set)


def test_exclusion_component_measure_bound(fib_result):
    for rep in fib_result.exclusions:
        for t in rep.triples:
            if not math.isfinite(t.c1_hat) or t.c1_hat <= 0:
                continue
            bound = 2 * rep.kappa / t.c1_hat + 4 * rep.refine_tol
            for lo, hi in t.intervals:
                assert hi - lo <= bound


@pytest.fixture(scope="module")
def abc_structure():
    rs = return_structure(Periodic("abcbaabbcaab"), "a", 0, [], 240)
    assert len(rs.level(0).cores) >= 3 and len(rs.level(0).runs) == 2
    return rs


ABC_POT = Potential({"a": 0.0, "b": 3.5, "c": -2.5})


def _reference_triple_exclusions(structure, pot, kappa, interval, grid, tol):
    """Per-triple bisection: every probe recomputes both cores and the marker
    power for one (alpha, beta, j), as exclusion_sets did before it batched
    the refinement across triples.  The edges of one (triple, side) take the
    rounds of their largest bracket."""
    lv = structure.level(0)
    grid_pts = np.linspace(*interval, grid)

    def member(alpha, beta, j, e):
        ua, _, _, ha = svd_angles_stack(cocycle_stack(alpha, e, pot))
        _, sb, _, hb = svd_angles_stack(cocycle_stack(beta, e, pot))
        cpow = cocycle_stack(structure.alpha0 * j, e, pot)
        vx, vy = np.cos(ua), np.sin(ua)
        wx = cpow[:, 0, 0] * vx + cpow[:, 0, 1] * vy
        wy = cpow[:, 1, 0] * vx + cpow[:, 1, 1] * vy
        rot = PI / 2 - sb
        zx = np.cos(rot) * wx - np.sin(rot) * wy
        zy = np.sin(rot) * wx + np.cos(rot) * wy
        phi = np.arctan2(zy, zx) % PI
        g = np.minimum(np.abs(phi - PI / 2) % PI, PI - np.abs(phi - PI / 2) % PI)
        return np.where(ha & hb, g <= kappa, True)

    def refine(inside, f, t):
        if f.size == 0:
            return f
        rounds = max(0, math.ceil(math.log2(max(float(np.max(np.abs(f - t))) / tol, 1.0))))
        for _ in range(rounds):
            mid = 0.5 * (f + t)
            ins = inside(mid)
            t = np.where(ins, mid, t)
            f = np.where(ins, f, mid)
        return f

    out = []
    for alpha in lv.cores:
        for beta in lv.cores:
            for j in lv.runs:
                inside = lambda e: member(alpha, beta, j, e)  # noqa: E731
                on_grid = inside(grid_pts)
                comps, i = [], 0
                while i < grid:
                    if on_grid[i]:
                        k = i
                        while k + 1 < grid and on_grid[k + 1]:
                            k += 1
                        comps.append((i, k))
                        i = k + 1
                    else:
                        i += 1
                lefts = [c for c in comps if c[0] > 0]
                rights = [c for c in comps if c[1] < grid - 1]
                lo = refine(inside, grid_pts[[c[0] - 1 for c in lefts]], grid_pts[[c[0] for c in lefts]])
                hi = refine(inside, grid_pts[[c[1] + 1 for c in rights]], grid_pts[[c[1] for c in rights]])
                lo_map, hi_map = dict(zip(lefts, lo)), dict(zip(rights, hi))
                pairs = [
                    (float(lo_map.get(c, grid_pts[0])), float(hi_map.get(c, grid_pts[-1])))
                    for c in comps
                ]
                out.append((alpha, beta, j, IntervalSet.from_pairs(pairs)))
    return out


@pytest.mark.parametrize("kappa", [0.3, 1.0])
def test_batched_exclusion_equals_per_triple_bisection(abc_structure, kappa):
    rep = exclusion_sets(abc_structure, 0, ABC_POT, kappa, (-3.0, 3.0), 257, 1e-6)
    ref = _reference_triple_exclusions(abc_structure, ABC_POT, kappa, (-3.0, 3.0), 257, 1e-6)
    assert [(t.alpha, t.beta, t.j, t.intervals) for t in rep.triples] == ref
    # the case exercises interior edges and components touching the window
    assert sum(len(t.intervals) for t in rep.triples) > 2 * len(rep.triples)
    assert any(lo == -3.0 or hi == 3.0 for t in rep.triples for lo, hi in t.intervals)


FRAME_DELTA = 1e-4  # exclusion_sets' probe size for the frame sensitivity c5


def _theta(u, cpow):
    """Raw angle of the frame e^(iu) pushed through the marker power."""
    vx, vy = np.cos(u), np.sin(u)
    wx = cpow[:, 0, 0] * vx + cpow[:, 0, 1] * vy
    wy = cpow[:, 1, 0] * vx + cpow[:, 1, 1] * vy
    return np.arctan2(wy, wx)


def _triple_scan(structure, pot, grid, sensitivities):
    """(alpha, beta, j, c1_hat, c5_hat) of every triple from a grid scan per
    (alpha, beta, j).  ``sensitivities(u, s, cpow)`` returns the composed angle
    phi and its changes under the u- and s-perturbations by delta."""
    lv = structure.level(0)
    grid_pts = np.linspace(-3.0, 3.0, grid)
    de = grid_pts[1] - grid_pts[0]
    frames = {c: svd_angles_stack(cocycle_stack(c, grid_pts, pot)) for c in lv.cores}
    cpows = {j: cocycle_stack(structure.alpha0 * j, grid_pts, pot) for j in lv.runs}
    dist = tower_module._dist_mod_pi
    out = []
    for alpha in lv.cores:
        for beta in lv.cores:
            u, _, _, ha = frames[alpha]
            _, s, _, hb = frames[beta]
            both = ha & hb
            for j in lv.runs:
                phi, d_u, d_s = sensitivities(u, s, cpows[j])
                sens = np.maximum(d_u, d_s) / FRAME_DELTA
                c5 = float(np.max(sens[both], initial=0.0))
                valid = both[1:] & both[:-1]
                steps = dist(phi[1:], phi[:-1])
                c1 = float(np.min(steps[valid]) / de) if valid.any() else math.inf
                out.append((alpha, beta, j, c1, c5))
    return out


def _reference_triple_scan(structure, pot, grid):
    """The scan per triple on the additive angle phi = theta + (pi/2 - s):
    the u-part of c5 compares theta with the u-shifted theta, the s-part the
    two rotation angles."""
    dist = tower_module._dist_mod_pi

    def sensitivities(u, s, cpow):
        theta = _theta(u, cpow)
        d_u = dist(_theta(u + FRAME_DELTA, cpow), theta)
        return theta + (PI / 2 - s), d_u, dist(PI / 2 - (s + FRAME_DELTA), PI / 2 - s)

    return _triple_scan(structure, pot, grid, sensitivities)


def _rotated_phi(u, s, cpow):
    """phi = angle(R_(pi/2 - s) C R_u e1) mod pi from the rotated vector, as
    exclusion_sets computed it before the rotation became an added angle."""
    vx, vy = np.cos(u), np.sin(u)
    cr, sr = np.cos(PI / 2 - s), np.sin(PI / 2 - s)
    wx = cpow[:, 0, 0] * vx + cpow[:, 0, 1] * vy
    wy = cpow[:, 1, 0] * vx + cpow[:, 1, 1] * vy
    return np.arctan2(sr * wx + cr * wy, cr * wx - sr * wy) % PI


def _rotated_triple_scan(structure, pot, grid):
    """The scan per triple on the rotated frame, every angle from its own
    rotated vector."""
    dist = tower_module._dist_mod_pi

    def sensitivities(u, s, cpow):
        phi = _rotated_phi(u, s, cpow)
        d_u = dist(_rotated_phi(u + FRAME_DELTA, s, cpow), phi)
        return phi, d_u, dist(_rotated_phi(u, s + FRAME_DELTA, cpow), phi)

    return _triple_scan(structure, pot, grid, sensitivities)


# b sits on the 257-point grid of [-3, 3], where the core "b" is a rotation
ABC_POT_ROTATION = Potential({"a": 0.0, "b": 0.75, "c": -2.5})
ABC_POT_STRONG = Potential({"a": 0.0, "b": 30.0, "c": -20.0})


@pytest.mark.parametrize("pot", [ABC_POT, ABC_POT_ROTATION])
def test_batched_scan_equals_per_triple_scan(abc_structure, pot):
    rep = exclusion_sets(abc_structure, 0, pot, 1.0, (-3.0, 3.0), 257, 1e-6)
    ref = _reference_triple_scan(abc_structure, pot, 257)
    assert [(t.alpha, t.beta, t.j, t.c1_hat, t.c5_hat) for t in rep.triples] == ref
    assert rep.c1_hat == min(c1 for *_, c1, _ in ref)
    assert rep.c5_hat == max(c5 for *_, c5 in ref)
    # the case covers rows with different values of both constants
    assert len({t.c1_hat for t in rep.triples}) > 1 and len({t.c5_hat for t in rep.triples}) > 1


ANGLE_TOL = 4 * np.finfo(float).eps * PI


@pytest.mark.parametrize("pot", [ABC_POT, ABC_POT_ROTATION, ABC_POT_STRONG])
def test_additive_angle_matches_rotated_frame(abc_structure, pot):
    # the added rotation angle finds the same intervals as the rotated frame,
    # and moves c1 and c5 by rounding only, in angle units
    grid, kappa = 257, 1.0
    rep = exclusion_sets(abc_structure, 0, pot, kappa, (-3.0, 3.0), grid, 1e-6)
    ref = _reference_triple_exclusions(abc_structure, pot, kappa, (-3.0, 3.0), grid, 1e-6)
    assert [(t.alpha, t.beta, t.j, t.intervals) for t in rep.triples] == ref
    step = 6.0 / (grid - 1)
    rotated = _rotated_triple_scan(abc_structure, pot, grid)
    for t, (alpha, beta, j, c1, c5) in zip(rep.triples, rotated, strict=True):
        assert (t.alpha, t.beta, t.j) == (alpha, beta, j)
        assert t.c1_hat == c1 == math.inf or abs(t.c1_hat - c1) * step <= ANGLE_TOL
        assert abs(t.c5_hat - c5) * FRAME_DELTA <= ANGLE_TOL
    # the rotated angle, reduced mod pi, wraps between 0 and pi inside a
    # hyperbolic stretch of the grid, where the added angle runs on past it
    grid_pts = np.linspace(-3.0, 3.0, grid)
    lv = abc_structure.level(0)
    frames = [svd_angles_stack(cocycle_stack(c, grid_pts, pot)) for c in lv.cores]
    wraps = 0
    for (u, _, _, ha), (_, s, _, hb), j in itertools.product(frames, frames, lv.runs):
        both, cpow = ha & hb, cocycle_stack(abc_structure.alpha0 * j, grid_pts, pot)
        wraps += np.count_nonzero(
            (np.abs(np.diff(_rotated_phi(u, s, cpow))) > PI / 2) & both[1:] & both[:-1]
        )
    assert wraps > 0


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.floats(-PI, PI),
    st.floats(1e-3, 1e3),
    st.floats(-PI / 2, 3 * PI / 2),
    st.none() | st.tuples(st.integers(-1, 2), st.floats(-1e-9, 1e-9)),
)
def test_added_angle_equals_rotated_angle(a, r, t, wrap):
    # g from the added rotation angle, dist(arctan2(w) + t, pi/2), matches g
    # from the rotated vector R_t w within 4 eps pi.  With ``wrap`` = (k, d),
    # t = k pi - arctan2(w) + d puts the rotated angle next to the 0/pi wrap
    wx, wy = np.array([r * math.cos(a)]), np.array([r * math.sin(a)])
    theta = np.arctan2(wy, wx)
    if wrap is not None:
        k, d = wrap
        t = k * PI - float(theta[0]) + d
    added = tower_module._dist_mod_pi(theta + t, PI / 2)
    cos_t, sin_t = math.cos(t), math.sin(t)
    zx, zy = cos_t * wx - sin_t * wy, sin_t * wx + cos_t * wy
    rotated = tower_module._dist_mod_pi(np.arctan2(zy, zx) % PI, PI / 2)
    assert abs(added[0] - rotated[0]) <= ANGLE_TOL


def _count_cocycle_calls(monkeypatch):
    """Record the marker powers (``cocycle_stack``, by word length) and the
    core recurrences (``cocycle_rows``, by array shape) of the tower module."""
    markers, recurrences = [], []

    def counted(word, energies, pot):
        markers.append(len(word))
        return cocycle_stack(word, energies, pot)

    def counted_rows(xs, shape):
        recurrences.append(shape)
        return cocycle_rows(xs, shape)

    monkeypatch.setattr(tower_module, "cocycle_stack", counted)
    monkeypatch.setattr(tower_module, "cocycle_rows", counted_rows)
    return markers, recurrences


def _scan_recurrences(cores, grid):
    """The shapes of the grid scan's core recurrences: one per core length,
    over every core of that length and the grid."""
    lengths = [len(core) for core in cores]
    return [(lengths.count(n), grid) for n in dict.fromkeys(lengths)]


def test_batched_exclusion_call_count(abc_structure, monkeypatch):
    markers, recurrences = _count_cocycle_calls(monkeypatch)
    grid, tol = 257, 1e-6
    rep = exclusion_sets(abc_structure, 0, ABC_POT, 1.0, (-3.0, 3.0), grid, tol)
    assert len(rep.triples) == 18 and sum(len(t.intervals) for t in rep.triples) > 36
    lv = abc_structure.level(0)
    rounds = math.ceil(math.log2(6.0 / (grid - 1) / tol))
    scan = _scan_recurrences(lv.cores, grid)
    assert recurrences[: len(scan)] == scan
    assert len(markers) + len(recurrences) <= (len(lv.cores) + len(lv.runs)) * (rounds + 1)


@pytest.mark.parametrize(
    "interval, rounds",
    [
        pytest.param((-3.0, 3.0), 13, id="13"),
        pytest.param((-3.0, 3.0), 14, id="14"),
        pytest.param((-3.0, 3.0), 16, id="16"),
        pytest.param((-2.9, 2.9), 13, id="uneven-13"),
    ],
)
def test_multi_round_bisection_remainder_equals_per_triple(
    abc_structure, monkeypatch, interval, rounds
):
    # every gap is one grid step, (hi - lo)/256 up to rounding, so each edge
    # runs `rounds` rounds; 13, 14 and 16 leave 1, 2 and 1 for the last pass
    # at depth 3.  The steps of [-3, 3] are all 6/256 exactly; those of
    # [-2.9, 2.9] differ in the last bits
    depth = tower_module.BISECT_DEPTH
    steps = np.diff(np.linspace(*interval, 257))
    assert (len(set(steps.tolist())) > 1) == (interval[0] == -2.9)
    tol = (interval[1] - interval[0]) / 256 / 2 ** (rounds - 0.5)
    assert {math.ceil(math.log2(x / tol)) for x in steps.tolist()} == {rounds} and rounds % depth
    markers, recurrences = _count_cocycle_calls(monkeypatch)
    rep = exclusion_sets(abc_structure, 0, ABC_POT, 1.0, interval, 257, tol)
    lv = abc_structure.level(0)
    assert len(markers) + len(recurrences) <= (len(lv.cores) + len(lv.runs)) * (
        math.ceil(rounds / depth) + 1
    )
    ref = _reference_triple_exclusions(abc_structure, ABC_POT, 1.0, interval, 257, tol)
    assert [(t.alpha, t.beta, t.j, t.intervals) for t in rep.triples] == ref
    assert sum(len(t.intervals) for t in rep.triples) > 2 * len(rep.triples)


def test_component_cap_raised_before_bisection(abc_structure, monkeypatch):
    markers, recurrences = _count_cocycle_calls(monkeypatch)
    lv = abc_structure.level(0)
    with pytest.raises(
        RuntimeError, match=r"triple \('bcb', 'bcb', 1\) produced 3 components, above cap 2"
    ):
        exclusion_sets(
            abc_structure, 0, ABC_POT, 1.0, (-3.0, 3.0), 257, 1e-6,
            Constants(triple_component_cap=2),
        )
    # only the grid scan ran: one marker power per marker run and one core
    # recurrence per core length, over the grid
    assert len(markers) == len(lv.runs)
    assert recurrences == _scan_recurrences(lv.cores, 257)


def test_component_cap_names_first_triple_in_alpha_beta_j_order(abc_structure):
    # ('bcb', 'bbc', 1) also exceeds the cap, and comes first in (alpha, j, beta) order
    with pytest.raises(
        RuntimeError, match=r"triple \('bcb', 'bcb', 2\) produced 2 components, above cap 1"
    ):
        exclusion_sets(
            abc_structure, 0, ABC_POT, 0.05, (-3.0, 3.0), 257, 1e-6,
            Constants(triple_component_cap=1),
        )


def test_distinct_core_probes_keys_on_energy_bits():
    nan, other_nan = float("nan"), np.array([0x7FF8000000000001]).view(float)[0]
    # rows of probes shared by edges; rows repeat energies of other rows
    probes = np.array([[0.5, -0.0, 0.0], [nan, 0.5, -0.0], [nan, 1.25, other_nan]])
    bracket = np.array([0, 1, 0, 2, 1, 2, 0])
    ai = np.array([0, 1, 1, 2, 0, 0, 2])
    bi = np.array([1, 0, 1, 0, 2, 0, 2])
    core, energy, alpha_pair, beta_pair = tower_module._distinct_core_probes(
        probes, bracket, ai, bi
    )
    bits = probes.view(np.int64).tolist()
    # (1, 0.5) is a beta probe of edge 0 and an alpha probe of edge 1;
    # -0.0 and 0.0 stay apart, equal NaNs merge and NaN payloads do not
    want = {
        (int(c), x) for k in range(bracket.size) for c in (ai[k], bi[k]) for x in bits[bracket[k]]
    }
    got = list(zip(core.tolist(), energy.view(np.int64).tolist()))
    assert len(got) == len(want) == 16 and set(got) == want
    assert alpha_pair.shape == beta_pair.shape == (bracket.size, probes.shape[1])
    for k, n in itertools.product(range(bracket.size), range(probes.shape[1])):
        assert got[alpha_pair[k, n]] == (ai[k], bits[bracket[k]][n])
        assert got[beta_pair[k, n]] == (bi[k], bits[bracket[k]][n])


def test_bisection_evaluates_each_distinct_core_probe_once(abc_structure, monkeypatch):
    distinct = tower_module._distinct_core_probes
    pairs, roles, evaluated, brackets, edges = [], [], [], [], []

    def recorded(probes, bracket, ai, bi):
        bits = probes.view(np.int64).tolist()
        pairs.append(len({
            (c, x) for k in range(bracket.size) for c in (ai[k], bi[k]) for x in bits[bracket[k]]
        }))
        roles.append(2 * bracket.size * probes.shape[1])
        brackets.append(probes.shape[0])
        edges.append(bracket.size)
        return distinct(probes, bracket, ai, bi)

    def counted(xs, shape):
        evaluated.append(shape)
        return cocycle_rows(xs, shape)

    monkeypatch.setattr(tower_module, "_distinct_core_probes", recorded)
    monkeypatch.setattr(tower_module, "cocycle_rows", counted)
    rep = exclusion_sets(abc_structure, 0, ABC_POT, 1.0, (-3.0, 3.0), 257, 1e-6)
    assert sum(len(t.intervals) for t in rep.triples) > 2 * len(rep.triples)
    # the grid scan's recurrences come first, one per core length
    scan = _scan_recurrences(abc_structure.level(0).cores, 257)
    assert evaluated[: len(scan)] == scan
    evaluated = evaluated[len(scan) :]
    # one recurrence per pass and core length covers exactly the distinct pairs
    assert sum(math.prod(shape) for shape in evaluated) == sum(pairs) < sum(roles)
    assert len(pairs) <= len(evaluated) <= len(scan) * len(pairs)
    # edges of different triples share brackets
    assert all(b < e for b, e in zip(brackets, edges)) and brackets


def test_probe_overflow_raises(abc_structure, monkeypatch):
    # the grid scan's recurrences stay finite and the bisection's overflow
    n_scan = len(_scan_recurrences(abc_structure.level(0).cores, 257))
    calls = []

    def overflowed(xs, shape):
        a, b, c, d = cocycle_rows(xs, shape)
        calls.append(shape)
        if len(calls) > n_scan:
            a[(0,) * a.ndim] = np.inf
        return a, b, c, d

    monkeypatch.setattr(tower_module, "cocycle_rows", overflowed)
    msg = "level-0 core cocycle of 3 letters is not finite at 1 of"
    with pytest.raises(CocycleOverflowError, match=msg):
        exclusion_sets(abc_structure, 0, ABC_POT, 1.0, (-3.0, 3.0), 257, 1e-6)


def test_core_cocycles_frames_bit_equal_to_cocycle_stack(abc_structure):
    # shared energies (the scan, the windows) and one energy per (core,
    # energy) pair (the bisection), cores of two lengths, repeated and out of
    # order, energies -0.0 and 0.0 and at a letter value among them
    cores = abc_structure.level(0).cores
    assert len({len(core) for core in cores}) > 1
    rng = np.random.default_rng(7)
    grid = np.concatenate((np.linspace(-3.0, 3.0, 97), [-0.0, 0.0, 3.5, -2.5]))
    evaluate = tower_module.core_cocycles(cores, ABC_POT, 0)
    mats = evaluate(np.arange(len(cores)), grid)
    shared = svd_angles_stack(mats)
    core = rng.integers(0, len(cores), 60)
    energy = rng.choice(grid, 60)
    paired = svd_angles_stack(evaluate(core, energy[:, None])[:, 0])

    def bits(frames):
        return [np.ascontiguousarray(x).view(np.uint8).tobytes() for x in frames]

    for k, word in enumerate(cores):
        assert mats[k].tobytes() == cocycle_stack(word, grid, ABC_POT).tobytes()
        want = svd_angles_stack(cocycle_stack(word, grid, ABC_POT))
        assert bits(x[k] for x in shared) == bits(want)
    for i, k in enumerate(core):
        want = svd_angles_stack(cocycle_stack(cores[k], energy[i : i + 1], ABC_POT))
        assert bits(x[i : i + 1] for x in paired) == bits(want)


def test_level2_core_overflow_fails_loudly():
    # level-2 cores are 3,271 letters: their float64 cocycles overflow, and
    # NaN frames must not pass as rotation-like and so excluded
    # (and the overflow is reported by that error alone, without numpy warnings)
    pot = Potential({"a": 0.0, "b": 200.0})
    with warnings.catch_warnings(), pytest.raises(
        CocycleOverflowError, match="level-2 core cocycle of 3271 letters"
    ):
        warnings.simplefilter("error")
        tower_pipeline(
            FIBONACCI, pot, "a", gamma=0.1, gamma_prime=0.2, c=1.0, levels=2, sample_len=20000
        )


# -- acceleration ------------------------------------------------------------


def test_verify_windows_synthetic_diagonal():
    energies = np.zeros(3)
    block = np.broadcast_to(np.diag([1e3, 1e-3]), (3, 2, 2)).copy()
    ident = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
    rep = verify_windows(
        block[None],
        ident[None],
        [(0, 0, 2)] * 3,
        level=0,
        energies=energies,
        zeta=1e-6,
        chi_n=math.log(1e3) / 2,
        chi_next=1.0,
        log_kappa=math.log(0.5),
        log_lam_bar=math.log(1e3),
        p_const=1,
        log_c=0.0,
        r_max=3,
    )
    assert rep.all_passed
    assert rep.worst_drift == 0.0
    assert rep.n_windows == 6  # r=1:3, r=2:2, r=3:1
    # the r=3 window has lam exactly 1e9
    assert rep.worst_growth_margin >= 0.0


def test_verify_windows_nan_drift_fails():
    # diag(3, 1/3) . R is hyperbolic, but the rotation R has no frame, so the
    # window's drift against R's s angle is NaN and must count as a failure
    t = 0.7
    rot = np.array([[[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]])
    hyp = np.diag([3.0, 1.0 / 3.0])[None]
    rep = verify_windows(
        np.array([rot, hyp]),
        np.eye(2)[None, None],
        [(0, 0, 1), (1, 0, 1)],
        level=0,
        energies=np.zeros(1),
        zeta=1e-6,
        chi_n=0.0,
        chi_next=0.0,
        log_kappa=0.0,
        log_lam_bar=0.0,
        p_const=1,
        log_c=0.0,
        r_max=2,
    )
    assert rep.n_windows == 3 and rep.hyper_violations == 1  # R alone
    # R alone (not hyperbolic) and R followed by diag(3, 1/3) (NaN drift)
    assert rep.drift_failures == 2
    # the NaN drift of the hyperbolic window is its worst drift
    assert rep.worst_drift > rep.zeta
    assert not rep.all_passed


def _reference_windows(blocks, markers, entries, *, energies, zeta, chi_n, chi_next,
                       log_kappa, log_lam_bar, p_const, log_c, r_max, **_):
    """Window-by-window loop: one product and one split per entry and per
    window, as verify_windows ran before it stacked the windows."""
    block_mats = [blocks[b] for b, _, _ in entries]
    marker_mats = [markers[c] for _, c, _ in entries]
    lengths = [n for _, _, n in entries]
    n, m = len(block_mats), energies.size
    frames = [svd_angles_stack(b) for b in block_mats]
    out = dict(n_windows=0, n_checks=0, hyper_violations=0, drift_failures=0,
               growth_chi_failures=0, growth_product_failures=0, worst_drift=0.0,
               worst_growth_margin=math.inf)
    out["block_floor_failures"] = sum(
        int(np.sum(~h | (ll < log_lam_bar - 1e-12))) for _, _, ll, h in frames
    )
    chi_hits = sum(int(np.sum(f[2] >= chi_n * lengths[k])) for k, f in enumerate(frames))
    out["block_chi_rate"] = chi_hits / max(1, n * m)
    for p0 in range(n):
        acc, sum_len, sum_ll = block_mats[p0], 0, np.zeros(m)
        for r in range(1, min(r_max, n - p0) + 1):
            k = p0 + r - 1
            if r > 1:
                acc = block_mats[k] @ (marker_mats[k] @ acc)
            sum_len += lengths[k]
            sum_ll = sum_ll + frames[k][2]
            out["n_windows"] += 1
            out["n_checks"] += m
            u_w, s_w, ll_w, hyp_w = svd_angles_stack(acc)
            out["hyper_violations"] += int(np.sum(~hyp_w))
            drift = np.maximum(
                tower_module._dist_mod_pi(u_w, frames[k][0]),
                tower_module._dist_mod_pi(s_w, frames[p0][1]),
            )
            # a NaN drift fails, and in a hyperbolic window it is the worst drift
            drift = np.where(hyp_w & ~np.isnan(drift), drift, np.inf)
            out["drift_failures"] += int(np.sum(~(drift <= zeta)))
            out["worst_drift"] = max(
                out["worst_drift"], float(np.max(np.where(hyp_w, drift, 0.0), initial=0.0))
            )
            bound_chi = chi_next * sum_len
            bound_prod = -p_const * r * log_c + sum_ll + r * log_kappa
            out["growth_chi_failures"] += int(np.sum(ll_w < bound_chi))
            out["growth_product_failures"] += int(np.sum(ll_w < bound_prod))
            out["worst_growth_margin"] = min(
                out["worst_growth_margin"],
                float(np.min(ll_w - bound_chi)),
                float(np.min(ll_w - bound_prod)),
            )
    return out


def _random_sl2(gen, m, spread):
    """(m, 2, 2) stack of random det-1 matrices, norms from ~1 to ~spread."""
    a = gen.normal(size=(m, 2, 2)) * np.exp(gen.uniform(0.0, math.log(spread), (m, 1, 1)))
    det = np.linalg.det(a)
    a[det < 0, :, 0] *= -1.0
    return a / np.sqrt(np.abs(det))[:, None, None]


def _window_classes(keys, r_max):
    """The number of distinct windows of each length 1..r_max of ``keys``."""
    return [
        len({tuple(keys[p : p + r]) for p in range(len(keys) - r + 1)}) for r in range(1, r_max + 1)
    ]


@pytest.mark.parametrize(
    "n_entries, r_max, m, periodic",
    [
        pytest.param(11, 4, 24, False, id="11-4-24"),
        pytest.param(3, 6, 7, False, id="3-6-7"),
        pytest.param(7, 7, 2048, False, id="7-7-2048"),
        pytest.param(23, 5, 24, True, id="periodic-23-5-24"),
        pytest.param(23, 5, 9, True, id="periodic-23-5-9"),
    ],
)
def test_verify_windows_batched_equals_per_window(n_entries, r_max, m, periodic):
    # m energies: every class product of one length is one (classes, m) stack
    gen = np.random.default_rng(n_entries * 100 + r_max)
    energies = np.linspace(-1.0, 1.0, m)
    cores = [_random_sl2(gen, m, 50.0) for _ in range(3)]
    # one core with rotations and near-identities: non-hyperbolic entries
    t = gen.uniform(0.0, 6.0, m)
    rot = np.moveaxis(np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]), -1, 0)
    rot[::3] = np.eye(2)
    cores.insert(1, rot)
    markers = np.array([_random_sl2(gen, m, 5.0) for _ in range(2)])
    # stack rows shared between entries, plus a last entry whose block is a
    # copy of core 0 under a stack index of its own
    blocks = np.array([*cores, cores[0]])
    block_of = [i % len(cores) for i in range(n_entries - 1)] + [len(cores)]
    lengths = [int(x) for x in gen.integers(1, 6, n_entries)]
    if periodic:
        # entries repeat with period 4, the rotation core inside the pattern,
        # so windows fall into few classes of several windows each
        lengths = [1 + i % 4 for i in range(n_entries)]
    entries = [(b, i % 2, n) for i, (b, n) in enumerate(zip(block_of, lengths))]
    n_windows = sum(n_entries - r + 1 for r in range(1, r_max + 1))
    assert not periodic or sum(_window_classes(entries, r_max)) < n_windows / 3
    kwargs = dict(
        level=0, energies=energies, zeta=0.05, chi_n=0.5, chi_next=0.4,
        log_kappa=math.log(0.2), log_lam_bar=1.0, p_const=1, log_c=0.3, r_max=r_max,
    )
    rep = verify_windows(blocks, markers, entries, **kwargs)
    want = _reference_windows(blocks, markers, entries, **kwargs)
    assert rep.hyper_violations > 0 and rep.drift_failures > 0
    for name, value in want.items():
        assert getattr(rep, name) == value, name
    assert rep.level == 0 and rep.r_max == r_max and rep.energies == energies.tolist()
    assert rep.zeta == kwargs["zeta"] and rep.chi_next == kwargs["chi_next"]


def test_acceleration_r1_drift_is_exactly_zero(fib_result):
    pot = fib_result.pot
    energies = grid_outside(
        fib_result.interval, fib_result.exclusions[0].j_set, 8, margin=1e-6
    )
    rep = acceleration_verify(
        fib_result.structure, fib_result.schedule, pot, energies, 0, 1
    )
    assert rep.worst_drift == 0.0
    assert rep.all_passed


@pytest.mark.parametrize("n_energies", [2048, 100])
def test_acceleration_svd_call_count(fib_result, monkeypatch, n_energies):
    calls = []

    def counted(mats, *args):
        calls.append(mats.shape[:-2])
        return svd_angles_stack(mats, *args)

    monkeypatch.setattr(tower_module, "svd_angles_stack", counted)
    energies = grid_outside(fib_result.interval, fib_result.exclusions[0].j_set, n_energies, 1e-6)
    r_max = 5
    rep = acceleration_verify(fib_result.structure, fib_result.schedule, fib_result.pot,
                              energies, 0, r_max)
    lv = fib_result.structure.level(0)
    # windows with equal (core, run, length) entry sequences are one class
    classes = _window_classes([(e.core, e.run, e.length) for e in lv.entries], r_max)
    assert energies.size == n_energies and sum(classes) < rep.n_windows / 10
    # one call for the distinct cores, then one for the classes of each
    # length >= 2, however many energies
    assert len(calls) == r_max
    # every distinct core and every window class of length >= 2 is split
    # exactly once; a length-1 window takes its core's split
    assert sum(math.prod(shape) for shape in calls) == (
        len(lv.cores) + sum(classes[1:])
    ) * energies.size
    assert rep.all_passed


def test_acceleration_requires_advanced_schedule():
    pot = Potential({"a": 0.0, "b": 200.0})
    structure = return_structure(FIBONACCI, "a", 0, [], 300)
    sched = init_schedule(0.1, 0.2, 1.0, 200.0, 2, 3, Constants(P=1), 1.0)
    with pytest.raises(ScheduleError):
        acceleration_verify(structure, sched, pot, np.array([0.5]), 0, 2)


def test_acceleration_core_overflow_fails_loudly():
    # the core bbb at v(b) = 1e120 overflows float64: its windows must raise,
    # not read as failed growth checks, and without numpy warnings
    pot = Potential({"a": 0.0, "b": 1e120})
    structure = return_structure(Periodic("aabbb"), "a", 0, [], 300)
    sched = init_schedule(0.1, 0.2, 1.0, 200.0, 5, 5, Constants(P=1), 1.0)
    advance_schedule(sched, 10, 10)
    with warnings.catch_warnings(), pytest.raises(
        CocycleOverflowError, match="level-0 core cocycle of 3 letters is not finite at 2 of 2"
    ):
        warnings.simplefilter("error")
        acceleration_verify(structure, sched, pot, np.array([0.5, 1.5]), 0, 2)


def test_acceleration_full(fib_result):
    a = fib_result.accel
    assert a.all_passed
    assert a.hyper_violations == 0
    assert a.worst_drift <= a.zeta
    assert a.worst_growth_margin > 0.0
    assert 0.0 <= a.block_chi_rate <= 1.0


# -- covering ----------------------------------------------------------------


def test_covering_trivial_cases():
    empty = IntervalSet.empty()
    jbar = IntervalSet.single(0.0, 0.5)
    rep = covering_and_measure_check(empty, jbar, (0.0, 1.0), 0.1, 100.0, 0.1)
    assert rep.covered and rep.residue == 0.0

    rep = covering_and_measure_check(jbar, jbar, (0.0, 1.0), 0.0, 100.0, 0.1)
    assert rep.covered

    approx = IntervalSet.single(0.0, 1.0)
    rep = covering_and_measure_check(approx, jbar, (0.0, 1.0), 0.1, 100.0, 0.1)
    assert rep.residue == pytest.approx(0.4)
    assert not rep.covered
    assert rep.c3_hat == pytest.approx(0.5 * 100.0**0.1)


def test_grid_outside_avoids_exclusion():
    excluded = IntervalSet.from_pairs([(-1.0, 0.5)])
    pts = grid_outside((-3.0, 3.0), excluded, 16)
    assert len(pts) == 16
    assert np.all((pts >= -3) & (pts <= 3))
    for p in pts:
        assert not excluded.contains_point(float(p))
    # deterministic
    again = grid_outside((-3.0, 3.0), excluded, 16)
    assert np.array_equal(pts, again)


def test_covering_on_pipeline(fib_result):
    cov = fib_result.covering
    assert cov.approx_measure > 0.0
    assert cov.residue_fraction <= 1e-3
    assert math.isfinite(cov.c3_hat) and cov.c3_hat > 0.0

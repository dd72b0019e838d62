"""Parameter schedules, energy-exclusion sets, and acceleration checks.

The tower machinery turns a return-word decomposition into a per-level
parameter schedule (growth exponents chi_n, thresholds kappa_n, drift
budgets zeta_n, ...), removes the energies where consecutive return-word
frames become nearly tangent across the marker block (the exclusion sets),
and verifies on the remaining energies that products of return-word
matrices grow like the schedule promises while their singular frames drift
within budget.

Large dilations are handled in log space throughout: lam_bar_n can exceed
the float range after one acceleration step, so every formula involving it
is evaluated via log lam_bar_n = chi_n * inf l_n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bands import spectrum_approximant
from .intervals import IntervalSet
from .sl2 import _dist_mod_pi, cocycle_rows, cocycle_stack, svd_angles_stack
from .words import Potential, ReturnStructure, SubshiftSpec, Word, return_structure

PI = math.pi

#: exclusion bisection rounds per membership pass; a pass probes 2**depth - 1
#: midpoints per edge
BISECT_DEPTH = 3


class ScheduleError(ValueError):
    """A schedule precondition or recursion failed; the message names it."""


class CouplingTooSmallError(ScheduleError):
    """The coupling is too small for the schedule; the message names the inequality."""


class CocycleOverflowError(RuntimeError):
    """A core cocycle has a non-finite entry: its float64 product overflowed."""


# ---------------------------------------------------------------------------
# Configured constants


@dataclass(frozen=True)
class Constants:
    """Absolute constants of the estimates, exposed as configuration.

    None of these are pinned by theory at desk scale; defaults are chosen so
    the full pipeline runs at couplings of a few hundred.  ``C`` defaults to
    a grid-refined bound on the marker-block norms and derivatives (see
    ``critical_matrix_bound``).
    """

    H: float = 3.0  # half-width of the energy window around each potential value
    cone_gap: float = 3.0  # minimal |E - v| for the invariant-cone certificate
    cone_eps: float = 0.5  # cone half-slope
    P: int = 3  # exponent of C in the per-step growth cost
    C: float | None = None  # marker-block norm bound; None -> grid-refined
    C_prime: float = 0.1  # floor on chi_n relative to chi_0
    C2: float = 1.0  # cap constant for usable window arities
    c_slack: float = 100.0  # slack for all "up to a universal constant" claims
    K_max: int = 64  # runtime cap on marker-run lengths
    triple_component_cap: int = 1024  # max components per exclusion triple


def critical_matrix_bound(
    pot: Potential,
    alpha0: str,
    max_run: int,
    h: float,
    grid: int = 257,
) -> float:
    """Upper bound C on ||C^E_k|| and ||d/dE C^E_k|| for k <= max_run, E in I.

    C^E is the marker letter's transfer matrix.  Each power and its energy
    derivative come from one ``cocycle_rows`` call with derivative rows on a
    grid over [E0 - H, E0 + H], and the maximum spectral norm is returned,
    at least 1 and capped by the analytic bound max_run * (2 + H)^max_run.
    """
    e0 = pot.value(alpha0)
    x = np.linspace(e0 - h, e0 + h, grid) - e0
    worst = 0.0
    for k in range(1, max_run + 1):
        rows = cocycle_rows(itertools.repeat(x, k), grid, derivative=True)
        mats = np.stack(rows, axis=-1).reshape(grid, 2, 2, 2)  # (power, derivative)
        worst = max(worst, *np.linalg.norm(mats, ord=2, axis=(2, 3)).max(axis=0).tolist())
    analytic = max_run * (2.0 + h) ** max_run
    return min(max(worst, 1.0), analytic)


# ---------------------------------------------------------------------------
# Parameter schedule


@dataclass(frozen=True)
class LevelParams:
    n: int
    N: int  # grouping arity from this level to the next
    eta: float
    chi: float
    log_lam_bar: float
    M: float
    inf_l: int
    sup_l: int

    @property
    def kappa(self) -> float:
        return math.exp(self.log_kappa)

    @property
    def log_kappa(self) -> float:
        return -self.eta * self.log_lam_bar

    @property
    def lam_bar(self) -> float:
        try:
            return math.exp(self.log_lam_bar)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class ScheduleCheck:
    name: str
    ok: bool
    required: bool  # construction identity (True) vs large-coupling item (False)
    detail: str


@dataclass
class ParamSchedule:
    """Exponent bookkeeping for the accelerated return-word cocycles."""

    gamma: float
    gamma_prime: float
    c: float
    xi: float
    lam: float
    consts: Constants
    c_value: float  # resolved marker-block bound C
    levels: list[LevelParams] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)  # failed large-coupling items

    def level(self, n: int) -> LevelParams:
        if not 0 <= n < len(self.levels):
            raise ScheduleError(f"schedule has levels 0..{len(self.levels) - 1}, not {n}")
        return self.levels[n]

    def zeta(self, n: int) -> float:
        try:
            return math.exp(self.log_zeta(n))
        except OverflowError:
            return math.inf

    def log_zeta(self, n: int) -> float:
        """log of zeta_n = C^P lam_bar_n^(2 eta_n - 2) N_n."""
        lv = self.level(n)
        return (
            self.consts.P * math.log(self.c_value)
            + (2.0 * lv.eta - 2.0) * lv.log_lam_bar
            + math.log(lv.N)
        )

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> list[ScheduleCheck]:
        """Machine-check every schedule identity and large-coupling item.

        Required checks are construction identities; the rest hold only once
        the coupling clears unspecified thresholds and are reported as
        warnings, naming the failed inequality.
        """
        out: list[ScheduleCheck] = []
        g, gp, c = self.gamma, self.gamma_prime, self.c

        def add(name: str, ok: bool, required: bool, detail: str = "") -> None:
            out.append(ScheduleCheck(name, bool(ok), required, detail))

        add("0 < gamma < gamma_prime < 1/4", 0 < g < gp < 0.25, True, f"gamma={g}, gamma'={gp}")
        add("gamma_prime < c < 2 - 3*gamma_prime", gp < c < 2 - 3 * gp, True, f"c={c}")
        add(
            "xi = -(1/10) log gamma_prime",
            abs(self.xi + 0.1 * math.log(gp)) <= 1e-15,
            True,
            f"xi={self.xi}",
        )
        n0 = self.levels[0].N
        add(
            "sum_n log((N_n+1)/N_n) < xi",
            2.0 / n0 < self.xi,
            True,
            f"bound 2/N_0={2.0 / n0:.6g} vs xi={self.xi:.6g}",
        )
        lv0 = self.levels[0]
        for lv in self.levels:
            add(
                f"N_{lv.n} >= 2/(1 - exp(-xi))",
                lv.N >= 2.0 / (1.0 - math.exp(-self.xi)),
                True,
                f"N={lv.N}",
            )
            add(
                f"gamma/2^{lv.n} < eta_{lv.n} <= eta_0 < gamma_prime",
                g / 2**lv.n < lv.eta <= lv0.eta < gp,
                True,
                f"eta={lv.eta}",
            )
            add(
                f"sup l_{lv.n} <= M_{lv.n} inf l_{lv.n}",
                lv.sup_l <= lv.M * lv.inf_l * (1 + 1e-12),
                True,
                f"sup={lv.sup_l}, M*inf={lv.M * lv.inf_l:.6g}",
            )
        for prev, nxt in zip(self.levels, self.levels[1:]):
            add(f"N_{nxt.n} <= 2 N_{prev.n}", nxt.N <= 2 * prev.N, True)
            add(
                f"lam_bar_{nxt.n} = exp(chi_{nxt.n} inf l_{nxt.n})",
                abs(nxt.log_lam_bar - nxt.chi * nxt.inf_l) <= 1e-9 * max(1.0, abs(nxt.log_lam_bar)),
                True,
            )
            add(
                f"M_{nxt.n} = ((N_{prev.n}+1)/N_{prev.n}) M_{prev.n}",
                abs(nxt.M - (prev.N + 1) / prev.N * prev.M) <= 1e-12 * max(1.0, prev.M),
                True,
            )
        # large-coupling items, warned not asserted
        chi0 = self.levels[0].chi
        for lv in self.levels:
            add(
                f"zeta_{lv.n} < lam_bar_{lv.n}^-c",
                self.log_zeta(lv.n) < -c * lv.log_lam_bar,
                False,
                f"log zeta={self.log_zeta(lv.n):.6g} vs {-c * lv.log_lam_bar:.6g}",
            )
            add(
                f"chi_{lv.n} > C' chi_0",
                lv.chi > self.consts.C_prime * chi0,
                False,
                f"chi={lv.chi:.6g}",
            )
            add(
                f"lam_bar_{lv.n}^-gamma' < kappa_{lv.n} < lam_bar_0^-gamma",
                -gp * lv.log_lam_bar < lv.log_kappa < -g * lv0.log_lam_bar,
                False,
                f"log kappa={lv.log_kappa:.6g}",
            )
            add(
                f"M_{lv.n} <= C'' M_0",
                lv.M <= math.exp(self.xi) * lv0.M * (1 + 1e-12),
                False,
                f"M={lv.M:.6g}, C''={math.exp(self.xi):.6g}",
            )
            add(
                f"N_{lv.n}+1 <= C2^-1 kappa_{lv.n}^3 lam_bar_{lv.n}^2",
                math.log(lv.N + 1) + math.log(self.consts.C2)
                <= 3 * lv.log_kappa + 2 * lv.log_lam_bar,
                False,
            )
        for prev, nxt in zip(self.levels, self.levels[1:]):
            add(
                f"kappa_{nxt.n} < kappa_{prev.n}",
                nxt.log_kappa < prev.log_kappa,
                False,
                "observed tangency thresholds shrink level by level",
            )
        return out


def init_schedule(
    gamma: float,
    gamma_prime: float,
    c: float,
    lam: float,
    inf_l0: int,
    sup_l0: int,
    consts: Constants,
    c_value: float,
) -> ParamSchedule:
    """Level-0 schedule from the coupling and observed level-0 return lengths.

    lam_bar_0 = lam/2 and chi_0 = log lam_bar_0 (valid once every non-marker
    letter is at least lam - H away in energy), M_0 = sup l_0 / inf l_0,
    xi = -(1/10) log gamma', eta_n = ((gamma+gamma')/2) 2^-n, and
    N_0 = max(ceil(2/(1-e^-xi)), ceil(4/xi)) with N_{n+1} = 2 N_n, which
    satisfies every arity constraint with closed-form margin.
    """
    if not 0 < gamma:
        raise ScheduleError("parameter chain violated: need 0 < gamma")
    if not gamma < gamma_prime:
        raise ScheduleError("parameter chain violated: need gamma < gamma_prime")
    if not gamma_prime < 0.25:
        raise ScheduleError("parameter chain violated: need gamma_prime < 1/4")
    if not gamma_prime < c:
        raise ScheduleError("parameter chain violated: need gamma_prime < c")
    if not c < 2.0 - 3.0 * gamma_prime:
        raise ScheduleError("parameter chain violated: need c < 2 - 3*gamma_prime")
    if not lam > 2.0 * consts.cone_gap:
        raise CouplingTooSmallError(
            f"coupling too small: need lam > 2*cone_gap = {2 * consts.cone_gap}, got lam={lam}"
        )
    if inf_l0 < 1 or sup_l0 < inf_l0:
        raise ScheduleError(f"bad level-0 length stats: inf={inf_l0}, sup={sup_l0}")

    xi = -0.1 * math.log(gamma_prime)
    n0 = max(math.ceil(2.0 / (1.0 - math.exp(-xi))), math.ceil(4.0 / xi))
    lam_bar0 = 0.5 * lam
    chi0 = math.log(lam_bar0)
    level0 = LevelParams(
        n=0,
        N=n0,
        eta=0.5 * (gamma + gamma_prime),
        chi=chi0,
        log_lam_bar=chi0,
        M=sup_l0 / inf_l0,
        inf_l=inf_l0,
        sup_l=sup_l0,
    )
    return ParamSchedule(gamma, gamma_prime, c, xi, lam, consts, c_value, [level0])


def advance_schedule(
    sched: ParamSchedule,
    inf_l_next: int,
    sup_l_next: int,
    observed_r: tuple[int, int] | None = None,
) -> ParamSchedule:
    """Append the next level's parameters from the observed return lengths.

    chi_{n+1} = chi_n + (log kappa_n - P log C) / inf l_n, the exact infimum
    of the per-window growth exponent (attained by a single shortest block,
    since the numerator is negative); then lam_bar, kappa, M, zeta follow
    their defining recursions.  Raises ``CouplingTooSmallError`` when chi_{n+1} <= 0,
    i.e. the coupling is too small for this schedule.
    """
    cur = sched.levels[-1]
    step = (cur.log_kappa - sched.consts.P * math.log(sched.c_value)) / cur.inf_l
    chi_next = cur.chi + step
    if chi_next <= 0.0:
        raise CouplingTooSmallError(f"coupling too small: chi_{cur.n + 1} = {chi_next:.6g} <= 0")
    if inf_l_next < 1 or sup_l_next < inf_l_next:
        raise ScheduleError(f"bad level-{cur.n + 1} length stats")
    if observed_r is not None and not (
        cur.N <= observed_r[0] and observed_r[1] <= cur.N + 1
    ):
        raise ScheduleError(
            f"observed window arities {observed_r} not in {{N_n, N_n+1}} = "
            f"{{{cur.N}, {cur.N + 1}}}"
        )
    nxt = LevelParams(
        n=cur.n + 1,
        N=2 * cur.N,
        eta=0.5 * cur.eta,
        chi=chi_next,
        log_lam_bar=chi_next * inf_l_next,
        M=(cur.N + 1) / cur.N * cur.M,
        inf_l=inf_l_next,
        sup_l=sup_l_next,
    )
    sched.levels.append(nxt)
    for chk in sched.check_invariants():
        if not chk.required and not chk.ok and chk.name not in sched.warnings:
            sched.warnings.append(chk.name)
    return sched


# ---------------------------------------------------------------------------
# Exclusion sets


@dataclass(frozen=True)
class TripleExclusion:
    alpha: Word  # core word whose expanding frame enters from the right
    beta: Word  # core word whose contracting frame receives on the left
    j: int  # marker-run length of the block in between
    intervals: IntervalSet
    c1_hat: float  # empirical min |d(angle)/dE| over the grid
    c5_hat: float  # empirical Lipschitz constant of the angle map in (u, s)

    @property
    def measure(self) -> float:
        return self.intervals.measure


@dataclass
class ExclusionReport:
    level: int
    kappa: float
    interval: tuple[float, float]
    grid: int
    refine_tol: float
    triples: list[TripleExclusion]
    j_set: IntervalSet
    c1_hat: float
    c5_hat: float  # max frame-perturbation sensitivity over triples
    warnings: list[str]

    @property
    def measure(self) -> float:
        return self.j_set.measure


def _renumber(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` of non-negative integer keys, the
    inverse shaped as ``keys``, by a table up to the largest key, not a sort."""
    seen = np.zeros(int(keys.max(initial=-1)) + 1, dtype=bool)
    seen[keys] = True
    return np.flatnonzero(seen), np.cumsum(seen)[keys] - 1


def _distinct_core_probes(
    probes: np.ndarray, bracket: np.ndarray, ai: np.ndarray, bi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (core, energy) pairs that the edges k, each probing the row
    probes[bracket[k]] for the triple (cores[ai[k]], cores[bi[k]], .), evaluate
    over both roles, energies keyed on their bits (-0.0 and 0.0 stay apart, equal
    NaNs merge): the core index and energy of each pair, then the (edges, probes
    per row) pair indices of each edge's alpha and beta roles."""
    bits, e_id = np.unique(probes.view(np.int64).ravel(), return_inverse=True)
    e_id = e_id.reshape(probes.shape)[bracket]
    key, pair = _renumber(np.stack((ai[:, None], bi[:, None])) * bits.size + e_id)
    return key // bits.size, bits.view(float)[key % bits.size], pair[0], pair[1]


def core_cocycles(cores: Sequence[Word], pot: Potential, level: int):
    """``evaluate(core, energy)``: the (k, m, 2, 2) cocycles of the level-``level``
    cores cores[core[i]] at energy[i], for k core indices and (k, m) energies
    ((m,) when shared), bit for bit what ``cocycle_stack`` gives; the cores of
    one length take one ``cocycle_rows`` recurrence.  A non-finite entry, from
    float64 overflow on long cores, raises ``CocycleOverflowError`` without
    numpy's overflow warnings: its frames would say nothing."""
    length = np.array([len(w) for w in cores])
    # per core length n, the (n, cores) table of v(i-th letter), 0 for other lengths
    tables = {
        n: np.array([[pot.value(w[i]) if len(w) == n else 0.0 for w in cores] for i in range(n)])
        for n in dict.fromkeys(length.tolist())
    }

    def evaluate(core: np.ndarray, energy: np.ndarray) -> np.ndarray:
        energy = np.broadcast_to(energy, (core.size, np.shape(energy)[-1]))
        out = np.empty((*energy.shape, 2, 2))
        for n_letters, values in tables.items():
            sel = np.flatnonzero(length[core] == n_letters)
            if sel.size:
                e, k = energy[sel], core[sel, None]
                with np.errstate(over="ignore", invalid="ignore"):
                    rows = cocycle_rows((e - v[k] for v in values), e.shape)
                mats = out[sel] = np.stack(rows, axis=-1).reshape(*e.shape, 2, 2)
                bad = ~np.isfinite(mats).all(axis=(-2, -1))
                if bad.any():
                    row = bad[np.argmax(bad.any(axis=1))]  # the first overflowing core
                    raise CocycleOverflowError(
                        f"level-{level} core cocycle of {n_letters} letters is not finite "
                        f"at {int(row.sum())} of {row.size} energies (float64 overflow)"
                    )
        return out

    return evaluate


def exclusion_sets(
    structure: ReturnStructure,
    level: int,
    pot: Potential,
    kappa: float,
    interval: tuple[float, float],
    grid: int,
    refine_tol: float,
    consts: Constants = Constants(),
) -> ExclusionReport:
    """Energies where two return-word frames are kappa-tangent across the marker.

    For each pair (alpha, beta) of level cores and each observed marker-run
    length j, the excluded set is {E : g(E) <= kappa} with

        g(E) = angle( R_(pi/2 - s(A^E(beta))) C^E_j R_(u(A^E(alpha))) e1, e2 ).

    A rotation adds its angle, angle(R_t w) = angle(w) + t, so g is the
    distance mod pi of phi = theta + (pi/2 - s_beta) to pi/2, where
    theta = arctan2(C^E_j R_(u_alpha) e1) depends on alpha, j and E alone:
    one arctan2 per energy of each (alpha, j) and one add per beta, equal
    to the rotated vector's angle up to rounding.  For the same reason the
    s-part of the frame sensitivity c5, the change of pi/2 - s when s shifts
    by ``frame_delta``, over ``frame_delta``, is 1 up to rounding; only the
    u-part depends on the cores and the marker block.  And dg/dE = theta' -
    s_beta' splits into one derivative per core (alpha with its marker run,
    and beta).

    The sets are found by uniform sampling, one (cores, grid) pass per alpha
    core and marker-run length that covers every beta core at once, in fresh
    temporaries (reused work arrays gained nothing: ``BENCH_27.json``); a pass
    finds its components where grid membership changes between neighbours.
    The passes fill one table of (triple index, first and last grid point) per
    component, stably sorted by triple index into (alpha, beta, j) order and
    checked against the component cap before any bisection.  Every edge
    brackets one grid step, its last point inside and first point outside, and
    runs the ceil(log2(largest step / refine_tol)) rounds of the largest step:
    linspace steps differ only in their last bits, so that is at most one
    round more than its own step needs.  A bracket is a function of its grid
    step and side, later of its parent bracket and the leaf reached, so each
    distinct bracket is refined once for all its edges.  The rounds go
    ``BISECT_DEPTH`` at a time: one pass takes every midpoint the next rounds
    could visit in each bracket, and each distinct (core, energy) pair of the
    edges' probes once over both roles (alpha gives u, beta gives s).  The
    scan's frames and each pass's pairs come from one evaluator,
    ``core_cocycles``, so both see the same floats, and a core cocycle that
    overflows raises ``CocycleOverflowError`` there; each marker power is one
    ``cocycle_stack`` call per run length and pass, over every bracket's
    probes.  Each probe is the float a one-round loop would
    compute, so the endpoints depend neither on the depth nor on the sharing,
    and a triple's components stay in grid order, so one pass over the table
    merges the touching ones.  Recorded endpoints sit on the outside of each
    component (conservative by at most ``refine_tol`` per side); components
    entirely between grid points are missed, which is the documented grid
    resolution limit.  Energies where either core's cocycle is rotation-like
    are folded into the exclusion (tangency is then undefined but
    hyperbolicity fails, which is exactly what exclusion must cover).
    """
    if grid < 8:
        raise ValueError("grid must have at least 8 points")
    if not 0.0 <= kappa <= PI / 2:
        raise ValueError("kappa must lie in [0, pi/2]")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("empty energy interval")

    lv = structure.level(level)
    cores, runs = lv.cores, lv.runs
    evaluate = core_cocycles(cores, pot, level)

    def theta_of(u: np.ndarray, cpow: np.ndarray) -> np.ndarray:
        """Raw projective angle of the alpha frame e^(iu) pushed through the
        marker power C^E_j."""
        vx, vy = np.cos(u), np.sin(u)
        wx = cpow[..., 0, 0] * vx + cpow[..., 0, 1] * vy
        wy = cpow[..., 1, 0] * vx + cpow[..., 1, 1] * vy
        return np.arctan2(wy, wx)

    def member(
        probes: np.ndarray, bracket: np.ndarray, ai: np.ndarray, bi: np.ndarray, ji: np.ndarray
    ) -> np.ndarray:
        """Sublevel membership, one row per edge k, of the probes
        probes[bracket[k]] for the triple (cores[ai[k]], cores[bi[k]], runs[ji[k]])."""
        # each distinct (core, energy) pair once, one recurrence per core length
        core, energy, alpha_pair, beta_pair = _distinct_core_probes(probes, bracket, ai, bi)
        u, s, _, h = svd_angles_stack(evaluate(core, energy[:, None])[:, 0])
        u_a, s_b, hyp = u[alpha_pair], s[beta_pair], h[alpha_pair] & h[beta_pair]
        marker = [cocycle_stack(structure.alpha0 * j, probes.ravel(), pot) for j in runs]
        cpow = np.reshape(marker, (len(runs), *probes.shape, 2, 2))[ji, bracket]
        phi = theta_of(u_a, cpow) + (PI / 2 - s_b)
        return np.where(hyp, _dist_mod_pi(phi, PI / 2) <= kappa, True)

    n_cores, n_runs = len(cores), len(runs)
    grid_pts = np.linspace(lo, hi, grid)
    u_all, s_all, _, hyp = svd_angles_stack(evaluate(np.arange(n_cores), grid_pts))
    cpows = [cocycle_stack(structure.alpha0 * j, grid_pts, pot) for j in runs]
    frame_delta = 1e-4  # probe size for the empirical frame-angle sensitivity
    # (cores, grid) rotation angle pi/2 - s of every beta core, and its
    # change when s shifts by frame_delta: the s-part of c5
    rot = PI / 2 - s_all
    d_s = _dist_mod_pi(PI / 2 - (s_all + frame_delta), rot)
    de = grid_pts[1] - grid_pts[0]

    # membership between two outside columns: per row, its 1st, 3rd, ... change
    # is a component's first point and its 2nd, 4th, ... one is one past its last
    padded = np.zeros((n_cores, grid + 2), dtype=bool)
    grid_member, flips = padded[:, 1:-1], np.empty((n_cores, grid + 1), dtype=bool)

    def scan(
        u: np.ndarray, not_both: np.ndarray, invalid: np.ndarray, c5_s: np.ndarray,
        cpow: np.ndarray,
    ) -> tuple:
        """One pass over every beta core for one alpha frame u and marker
        power: row b of each (cores, grid) array belongs to the triple
        (alpha, cores[b], j).  ``not_both`` marks the cells where either frame
        is rotation-like, ``invalid`` the grid steps that touch one, and
        ``c5_s`` is the s-part of c5 per row.  Returns the components as
        (row, start, end) arrays in row order and c1, c5 per row."""
        theta = theta_of(u, cpow)
        phi = theta + rot
        np.logical_or(_dist_mod_pi(phi, PI / 2) <= kappa, not_both, out=grid_member)
        rows, cols = np.nonzero(np.not_equal(padded[:, 1:], padded[:, :-1], out=flips))
        rows, starts, ends = rows[::2], cols[::2], cols[1::2] - 1

        # empirical Lipschitz constant of the composed angle under a frame
        # perturbation of u (the unnamed closeness constant)
        c5_u = np.where(not_both, 0.0, _dist_mod_pi(theta_of(u + frame_delta, cpow), theta))
        c5 = np.maximum(np.max(c5_u, axis=1), c5_s) / frame_delta
        steps = np.where(invalid, np.inf, _dist_mod_pi(phi[:, 1:], phi[:, :-1]))
        c1 = np.min(steps, axis=1) / de
        return rows, starts, ends, c1, c5

    # the component table: triple index, first and last grid point of every
    # component, where triple (cores[a], cores[b], runs[j]) has index
    # (a * n_cores + b) * n_runs + j, its position in (alpha, beta, j) order
    shape = (n_cores, n_cores, n_runs)
    table = []
    c1, c5 = np.empty((2, *shape))
    for ai in range(n_cores):
        not_both = ~(hyp[ai] & hyp)
        invalid = not_both[:, 1:] | not_both[:, :-1]
        c5_s = np.max(np.where(not_both, 0.0, d_s), axis=1)
        for ji, cpow in enumerate(cpows):
            rows, starts, ends, c1[ai, :, ji], c5[ai, :, ji] = scan(
                u_all[ai], not_both, invalid, c5_s, cpow
            )
            table.append(np.stack(((ai * n_cores + rows) * n_runs + ji, starts, ends)))
    # a stable sort keeps each triple's components in grid order
    table = np.concatenate(table, axis=1)
    tri, starts, ends = table[:, np.argsort(table[0], kind="stable")]
    counts = np.bincount(tri, minlength=c1.size)
    if counts.max() > consts.triple_component_cap:
        k = int(np.argmax(counts > consts.triple_component_cap))
        ai, bi, ji = np.unravel_index(k, shape)
        raise RuntimeError(
            f"triple ({cores[ai]!r}, {cores[bi]!r}, {runs[ji]}) produced {counts[k]} "
            f"components, above cap {consts.triple_component_cap}"
        )

    # bisect every edge; f stays outside its component and t inside.  Edges are
    # keyed by bracket (f, t), first by grid step and side.  One pass takes up
    # to BISECT_DEPTH rounds: it evaluates every midpoint those rounds could
    # probe, a heap-ordered tree per bracket in which node n brackets (f, t)
    # and its probe, inside or not, leads to child 2n + 1 = (f, probe) or
    # 2n + 2 = (probe, t); the leaves reached are the next pass's brackets.
    left, right = starts > 0, ends < grid - 1
    step_side, bracket = _renumber(np.concatenate((2 * starts[left] - 2, 2 * ends[right] + 1)))
    step, side = np.divmod(step_side, 2)  # a right edge's f lies above its t
    f, t = grid_pts[step + side], grid_pts[step + 1 - side]
    keys = np.array(np.unravel_index(np.concatenate((tri[left], tri[right])), shape))
    gap = float(np.max(np.diff(grid_pts)))
    rounds = max(0, math.ceil(math.log2(max(gap / refine_tol, 1.0)))) if f.size else 0
    for r in range(0, rounds, BISECT_DEPTH):
        depth = min(BISECT_DEPTH, rounds - r)
        n_probes = 2**depth - 1
        fs, ts = np.empty((2, f.size, 2 * n_probes + 1))
        fs[:, 0], ts[:, 0] = f, t
        for n in range(n_probes):
            mid = 0.5 * (fs[:, n] + ts[:, n])
            fs[:, 2 * n + 1], ts[:, 2 * n + 1] = fs[:, n], mid
            fs[:, 2 * n + 2], ts[:, 2 * n + 2] = mid, ts[:, n]
        # node n's probe is the t of its left child
        inside = member(ts[:, 1 : 2 * n_probes : 2], bracket, *keys)
        node, edge = np.zeros(bracket.size, dtype=int), np.arange(bracket.size)
        for _ in range(depth):
            node = 2 * node + 2 - inside[edge, node]
        leaf, bracket = _renumber(bracket * fs.shape[1] + node)
        f, t = fs.ravel()[leaf], ts.ravel()[leaf]

    lo_pts, hi_pts = grid_pts[starts], grid_pts[ends]
    lo_pts[left], hi_pts[right] = np.split(f[bracket], [np.count_nonzero(left)])
    c1_all, c5_all = c1.ravel().tolist(), c5.ravel().tolist()
    triples = [
        TripleExclusion(alpha, beta, j, intervals, c1_k, c5_k)
        for (alpha, beta, j), intervals, c1_k, c5_k in zip(
            itertools.product(cores, cores, runs),
            IntervalSet.per_group(tri, lo_pts, hi_pts, c1.size), c1_all, c5_all,
        )
    ]
    # Python's min and max fold in (alpha, beta, j) order from inf and 0.0
    c1_level, c5_level = min([math.inf, *c1_all]), max([0.0, *c5_all])
    j_set = IntervalSet.from_pairs(np.column_stack((lo_pts, hi_pts))).clip(lo, hi)
    return ExclusionReport(
        level, kappa, (lo, hi), grid, refine_tol, triples, j_set, c1_level, c5_level, []
    )


# ---------------------------------------------------------------------------
# Acceleration verification


@dataclass
class AccelerationReport:
    """Aggregate outcome of window checks over an energy grid.

    A "window" is a product of r consecutive level blocks
    B(last) C ... C B(first); checks per window and energy:

    * hyperbolicity of the product,
    * |u(window) - u(last block)| and |s(window) - s(first block)| <= zeta,
    * log growth >= chi_next * (total window length),
    * log growth >= -P r log C + sum of block log growths + r log kappa.

    The per-block inequality log lam(B) >= chi_n * l is reported as a rate
    only: with short cores it overstates the actual one-block growth.
    """

    level: int
    r_max: int
    energies: list[float]
    n_windows: int
    n_checks: int
    hyper_violations: int
    drift_failures: int
    growth_chi_failures: int
    growth_product_failures: int
    block_floor_failures: int
    worst_drift: float
    worst_growth_margin: float  # min of (log lam - bound), over both bounds
    block_chi_rate: float  # fraction of blocks with log lam >= chi_n * l
    zeta: float
    chi_next: float

    @property
    def all_passed(self) -> bool:
        return (
            self.hyper_violations == 0
            and self.drift_failures == 0
            and self.growth_chi_failures == 0
            and self.growth_product_failures == 0
            and self.block_floor_failures == 0
        )


def verify_windows(
    blocks: np.ndarray,
    markers: np.ndarray,
    entries: Sequence[tuple[int, int, int]],
    *,
    level: int,
    energies: np.ndarray,
    zeta: float,
    chi_n: float,
    chi_next: float,
    log_kappa: float,
    log_lam_bar: float,
    p_const: int,
    log_c: float,
    r_max: int,
) -> AccelerationReport:
    """Core window verification, one product and one split per window class.

    ``blocks`` stacks the distinct core cocycles over the m energies as
    (k, m, 2, 2) and ``markers`` the marker-run powers as (j, m, 2, 2); entry
    (b, c, length) is the core ``blocks[b]`` of ``length`` letters after the
    marker power ``markers[c]``.  Windows are all contiguous runs of 1..r_max
    entries.  Each entry gets an integer key for its (block, marker, length)
    and a window of length r the class of the pair (class of its first r - 1
    entries, key of its last entry).  The blocks are split in one
    ``svd_angles_stack`` call; per length, every class product is formed from
    its parent class, ``block @ (marker @ parent)``, and all are split in one
    call, the counts weighted by class size.  Per window and energy the
    arithmetic is that of a window-by-window loop.  Only the class products of
    the previous length, at most one per entry, are kept.  The classes stay
    because they pay: with every window its own class, a tower-bisect op of
    the benchmark took 0.0493 s instead of 0.0386 s (medians of 10 pairs, all
    slower; ``BENCH_25.json``).  Raises ``ValueError`` when r_max < 1 or there
    are no energies: no window would be checked.
    """
    if r_max < 1:
        raise ValueError(f"acceleration windows need r_max >= 1, not {r_max}")
    m = energies.size
    if m == 0:
        raise ValueError("acceleration windows need at least one energy")
    bi, mi, lengths = np.asarray(entries, dtype=int).reshape(-1, 3).T
    n_entries = bi.size
    u_b, s_b, ll_b, hyp_b = svd_angles_stack(blocks)
    ll_e = ll_b[bi]
    block_floor_failures = int(np.sum((~hyp_b | (ll_b < log_lam_bar - 1e-12))[bi]))
    block_chi_hits = int(np.sum(ll_e >= chi_n * lengths[:, None]))
    shape = (len(blocks), len(markers), int(lengths.max(initial=0)) + 1)
    _, key = np.unique(np.ravel_multi_index((bi, mi, lengths), shape), return_inverse=True)
    n_keys = int(key.max(initial=-1)) + 1

    n_windows = n_checks = hyper_violations = drift_failures = 0
    growth_chi_failures = growth_product_failures = 0
    worst_drift, worst_margin = 0.0, math.inf

    def fold(worst: float, rows: np.ndarray, pick) -> float:
        """Fold per-window extrema into ``worst`` as Python's min/max over the
        windows would: a window whose extremum is NaN leaves it unchanged."""
        rows = rows[~np.isnan(rows)]
        return float(pick(worst, pick.reduce(rows))) if rows.size else worst

    cls = np.zeros(n_entries, dtype=int)  # class of the window of length r - 1 at each start
    for r in range(1, min(r_max, n_entries) + 1):
        # class c of length r: its first window starts at first[c], its first
        # r - 1 entries form class parent[c], its last entry is last[c]
        prev = cls
        _, first, cls = np.unique(
            prev[: n_entries - r + 1] * n_keys + key[r - 1 :],
            return_index=True,
            return_inverse=True,
        )
        parent, last, w = prev[first], first + r - 1, np.bincount(cls)
        b_last = bi[last]
        n_windows += n_entries - r + 1
        n_checks += (n_entries - r + 1) * m
        if r == 1:
            acc = blocks[b_last]
            sum_len, sum_ll = lengths[last], ll_e[last]
            u_w, s_w, ll_w, hyp_w = u_b[b_last], s_b[b_last], sum_ll, hyp_b[b_last]
        else:
            acc = blocks[b_last] @ (markers[mi[last]] @ acc[parent])
            sum_len = sum_len[parent] + lengths[last]
            sum_ll = sum_ll[parent] + ll_e[last]
            u_w, s_w, ll_w, hyp_w = svd_angles_stack(acc)

        hyper_violations += int(np.sum(~hyp_w, axis=1) @ w)
        drift = np.maximum(_dist_mod_pi(u_w, u_b[b_last]), _dist_mod_pi(s_w, s_b[bi[first]]))
        # a rotation-like first or last block has NaN frames: its drift
        # fails, and in a hyperbolic window it is the worst drift
        drift = np.where(hyp_w & ~np.isnan(drift), drift, np.inf)
        drift_failures += int(np.sum(~(drift <= zeta), axis=1) @ w)
        worst_drift = fold(
            worst_drift, np.max(np.where(hyp_w, drift, 0.0), axis=1, initial=0.0), np.maximum
        )

        bound_chi = (chi_next * sum_len)[:, None]
        bound_prod = -p_const * r * log_c + sum_ll + r * log_kappa
        growth_chi_failures += int(np.sum(ll_w < bound_chi, axis=1) @ w)
        growth_product_failures += int(np.sum(ll_w < bound_prod, axis=1) @ w)
        worst_margin = fold(worst_margin, np.min(ll_w - bound_chi, axis=1), np.minimum)
        worst_margin = fold(worst_margin, np.min(ll_w - bound_prod, axis=1), np.minimum)

    return AccelerationReport(
        level=level,
        r_max=r_max,
        energies=[float(e) for e in energies],
        n_windows=n_windows,
        n_checks=n_checks,
        hyper_violations=hyper_violations,
        drift_failures=drift_failures,
        growth_chi_failures=growth_chi_failures,
        growth_product_failures=growth_product_failures,
        block_floor_failures=block_floor_failures,
        worst_drift=worst_drift,
        worst_growth_margin=worst_margin,
        block_chi_rate=block_chi_hits / max(1, n_entries * m),
        zeta=zeta,
        chi_next=chi_next,
    )


def acceleration_verify(
    structure: ReturnStructure,
    sched: ParamSchedule,
    pot: Potential,
    energies: np.ndarray,
    level: int,
    r_max: int,
) -> AccelerationReport:
    """Check the accelerated-cocycle growth and frame-drift claims at ``level``.

    The energy grid must avoid the cumulative exclusion sets up to ``level``;
    violations show up as hyperbolicity flags, signalling an under-refined
    exclusion set.  An overflowing core raises ``CocycleOverflowError``.
    """
    if level + 1 >= len(sched.levels):
        raise ScheduleError(f"schedule must be advanced past level {level}")
    lv = sched.level(level)
    energies = np.asarray(energies, dtype=float)
    lvl = structure.level(level)
    cores, runs = lvl.cores, lvl.runs
    return verify_windows(
        core_cocycles(cores, pot, level)(np.arange(len(cores)), energies),
        np.array([cocycle_stack(structure.alpha0 * j, energies, pot) for j in runs]),
        [(cores.index(e.core), runs.index(e.run), e.length) for e in lvl.entries],
        level=level,
        energies=energies,
        zeta=sched.zeta(level),
        chi_n=lv.chi,
        chi_next=sched.level(level + 1).chi,
        log_kappa=lv.log_kappa,
        log_lam_bar=lv.log_lam_bar,
        p_const=sched.consts.P,
        log_c=math.log(sched.c_value),
        r_max=r_max,
    )


# ---------------------------------------------------------------------------
# Covering and measure check


@dataclass(frozen=True)
class CoveringReport:
    approx_measure: float  # measure of approximant within the window
    residue: float  # measure of approximant not covered by the dilated exclusion
    residue_fraction: float
    covered: bool
    dilation: float
    jbar_measure: float
    c3_hat: float  # Leb(Jbar) * lam^gamma


def covering_and_measure_check(
    approx: IntervalSet,
    jbar: IntervalSet,
    interval: tuple[float, float],
    dilation: float,
    lam: float,
    gamma: float,
) -> CoveringReport:
    """Is the approximant spectrum inside the dilated exclusion set, and how
    large is the exclusion relative to lam^-gamma?"""
    window = IntervalSet.single(*interval)
    approx_in = approx.intersect(window)
    covered_set = jbar.dilate(dilation) if jbar else jbar
    residue_set = approx_in.difference(covered_set)
    residue = residue_set.measure
    meas = approx_in.measure
    return CoveringReport(
        approx_measure=meas,
        residue=residue,
        residue_fraction=residue / meas if meas > 0 else 0.0,
        covered=residue == 0.0,
        dilation=dilation,
        jbar_measure=jbar.measure,
        c3_hat=jbar.measure * lam**gamma,
    )


def grid_outside(
    interval: tuple[float, float],
    excluded: IntervalSet,
    count: int,
    margin: float = 0.0,
) -> np.ndarray:
    """Deterministic energy grid inside ``interval`` avoiding ``excluded``.

    Points are distributed across the complement components proportionally
    to their lengths, placed strictly in component interiors.
    """
    window = IntervalSet.single(*interval)
    free = window.difference(excluded.dilate(margin) if excluded else excluded)
    comps = [(lo, hi) for lo, hi in free if hi > lo]
    if not comps:
        raise ValueError("no room outside the excluded set")
    total = sum(hi - lo for lo, hi in comps)
    counts = [max(1, round(count * (hi - lo) / total)) for lo, hi in comps]
    while sum(counts) > count:
        counts[counts.index(max(counts))] -= 1
    while sum(counts) < count:
        counts[counts.index(max(counts))] += 1
    pts: list[float] = []
    for (lo, hi), k in zip(comps, counts):
        if k <= 0:
            continue
        width = hi - lo
        pts.extend(lo + width * (i + 0.5) / k for i in range(k))
    return np.array(sorted(pts))


# ---------------------------------------------------------------------------
# Pipeline


@dataclass
class TowerResult:
    """Everything the tower and verification commands report for one coupling."""

    pot: Potential
    alpha0: str
    interval: tuple[float, float]
    structure: ReturnStructure
    schedule: ParamSchedule
    exclusions: list[ExclusionReport]
    jbar: IntervalSet
    approx: IntervalSet
    accel: AccelerationReport
    covering: CoveringReport


def tower_pipeline(
    spec: SubshiftSpec,
    pot: Potential,
    alpha0: str,
    *,
    gamma: float,
    gamma_prime: float,
    c: float,
    consts: Constants = Constants(),
    levels: int = 1,
    sample_len: int = 650,
    grid: int = 2049,
    refine_tol: float = 1e-7,
    approx_len: int = 13,
    approx_sample_len: int = 1024,
    accel_energies: int = 64,
    accel_r_max: int = 5,
) -> TowerResult:
    """Run the full desk-scale pipeline at one coupling.

    Builds the return tower, initializes and advances the schedule, computes
    the per-level exclusion sets and their union, verifies the accelerated
    cocycles on energies outside the level-0 exclusion, and checks that the
    periodic-approximant spectrum is covered by the dilated exclusion union.
    """
    lam = pot.sparseness
    e0 = pot.value(alpha0)
    interval = (e0 - consts.H, e0 + consts.H)

    base = return_structure(spec, alpha0, 0, [], sample_len, consts.K_max)
    lv0 = base.level(0)
    max_run = max(e.run for e in lv0.entries)
    c_value = consts.C if consts.C is not None else critical_matrix_bound(
        pot, alpha0, max_run, consts.H
    )
    sched = init_schedule(
        gamma, gamma_prime, c, lam, lv0.inf_l, lv0.sup_l, consts, c_value
    )

    arities = [sched.level(0).N * 2**i for i in range(levels)]
    structure = return_structure(spec, alpha0, levels, arities, sample_len, consts.K_max)
    for n in range(1, levels + 1):
        lvn = structure.level(n)
        advance_schedule(sched, lvn.inf_l, lvn.sup_l, (lvn.group_arity, lvn.group_arity))

    exclusions = [
        exclusion_sets(
            structure, n, pot, sched.level(n).kappa, interval, grid, refine_tol, consts
        )
        for n in range(levels + 1)
    ]
    jbar = IntervalSet.empty()
    for rep in exclusions:
        jbar = jbar.union(rep.j_set)

    energies = grid_outside(interval, exclusions[0].j_set, accel_energies, margin=refine_tol)
    accel = acceleration_verify(structure, sched, pot, energies, 0, accel_r_max)

    approx = spectrum_approximant(spec, pot, approx_len, approx_sample_len)
    covering = covering_and_measure_check(
        approx, jbar, interval, 10.0 * refine_tol, lam, gamma
    )
    return TowerResult(
        pot, alpha0, interval, structure, sched, exclusions, jbar, approx, accel, covering
    )

"""End-to-end reproductions at desk scale.

Four experiments: the coupling-decay law of approximant spectra, the staged
construction of an aperiodic subshift whose spectrum keeps at least half of
its first-stage measure, the elliptic-interval filling check for unbounded
marker repetitions, and a randomized suite for the sandwiched-product
growth/drift estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bands import periodic_bands
from .intervals import IntervalSet
from .sl2 import _dist_mod_pi, svd_angles_stack
from .words import (
    AdzStages,
    Potential,
    SubshiftSpec,
    Word,
    adz_next_stage,
    bracelet_representatives,
    complexity,
    factor_set,
    letter,
)

#: fixed wording so reports cannot be mistaken for statements about the
#: almost-sure spectrum itself
APPROXIMANT_NOTE = (
    "measures are unions of periodic-approximant bands over observed factors, "
    "a proxy for the subshift spectrum"
)


class RetentionError(RuntimeError):
    """The stage search exhausted its cap without meeting the retention budget."""


# ---------------------------------------------------------------------------
# Decay sweep


@dataclass(frozen=True)
class DecayRow:
    lam: float
    factor_len: int
    measure: float


@dataclass
class DecayTable:
    rows: list[DecayRow]
    e0_letter: str
    h: float
    slope: float | None  # least-squares slope of log measure vs log lam
    gamma_hat: float | None  # -slope
    residual: float | None
    degenerate: bool  # identical or vanishing measures
    note: str = APPROXIMANT_NOTE

    @property
    def measures(self) -> list[float]:
        return [r.measure for r in self.rows]


def fit_decay(lams: list[float], measures: list[float]):
    """Least-squares slope of log measure against log lam.

    Returns (slope, gamma_hat, residual, degenerate); a constant measure
    sequence fits slope 0 exactly but is flagged degenerate, and any
    non-positive measure makes the fit undefined.
    """
    if len(lams) != len(measures) or len(lams) < 2:
        raise ValueError("need matching lists with at least two points")
    if any(m <= 0.0 for m in measures):
        return None, None, None, True
    degenerate = len(set(measures)) == 1
    x = np.log(np.asarray(lams))
    y = np.log(np.asarray(measures))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), float(-slope), resid, degenerate


def decay_sweep(
    spec: SubshiftSpec,
    v_base: Potential,
    lam_list: list[float],
    factor_len: int,
    e0_letter: str,
    h: float,
    sample_len: int = 4096,
) -> DecayTable:
    """Measure of the approximant spectrum near one potential value, per coupling.

    For each lam the potential is lam * v_base and the reported number is the
    Lebesgue measure of the length-``factor_len`` approximant intersected
    with [lam v(e0) - H, lam v(e0) + H].  The approximant is the union of the
    periodic spectra of the observed factors; it is solved on one factor per
    rotation/reversal class (``bracelet_representatives``), since the
    periodic spectrum of a word does not change under either symmetry.
    """
    if sorted(lam_list) != list(lam_list) or len(set(lam_list)) != len(lam_list):
        raise ValueError("lam_list must be strictly ascending")
    if len(lam_list) < 3:
        raise ValueError("need at least three couplings")
    if len(set(v_base.values.values())) < 2:
        raise ValueError("base potential must be non-constant")
    words = bracelet_representatives(factor_set(spec, factor_len, sample_len))
    rows = []
    for lam in lam_list:
        pot = v_base.scale(lam)
        e0 = pot.value(e0_letter)
        approx = periodic_bands(words, pot)
        rows.append(DecayRow(lam, factor_len, approx.clip(e0 - h, e0 + h).measure))
    slope, gamma_hat, residual, degenerate = fit_decay(lam_list, [r.measure for r in rows])
    return DecayTable(rows, e0_letter, h, slope, gamma_hat, residual, degenerate)


# ---------------------------------------------------------------------------
# Staged construction with band-measure retention


@dataclass
class AdzStageRecord:
    index: int  # stage number n (1-based, matching S_n)
    words: list[Word]
    bands: IntervalSet
    chosen_n: int | None  # repetition count used to build the NEXT stage
    deficit: float | None  # Leb(sigma_n \ sigma_{n+1})
    budget: float | None  # Leb(sigma_1) * 2^-(n+1)


@dataclass
class AdzRun:
    eps: float
    pot: Potential
    stages: list[AdzStageRecord]
    sigma1_measure: float
    final_measure: float
    retained_half: bool
    searched: list[tuple[int, int, float]] = field(default_factory=list)  # (stage, N, deficit)

    @property
    def spec(self) -> AdzStages:
        return AdzStages(tuple(tuple(st.words) for st in self.stages))


def adz_construct(
    k: int,
    eps: float,
    pot: Potential,
    stages: int,
    n_cap: int,
    n_floor: int = 1,
    max_word_len: int = 2048,
) -> AdzRun:
    """Build ``stages`` stages of the concatenation-with-powers construction.

    Stage 1 is the alphabet; each later stage prefixes the full previous
    stage and appends powers ``w^l`` for l in [N, N + N^(eps/2)).  N is
    searched upward from ``n_floor`` (unit steps first, then geometric)
    until the band-measure deficit of the new stage against the current one
    drops under Leb(sigma_1) * 2^-(n+1); the search fails with
    ``RetentionError`` when the cap or the per-word length cap is reached
    first.  The first fit is taken: small N keeps the stage words short,
    which is what lets later stages recover band measure within the length
    cap (each repetition count contributes one phase sample per band, so
    coverage grows with the count of l values, not their size).
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if stages < 1:
        raise ValueError("need at least one stage")
    if k < 2:
        raise ValueError("need an alphabet of size >= 2")
    letters = [letter(i) for i in range(k)]
    for ch in letters:
        pot.value(ch)  # raises if missing

    words = list(letters)
    bands = periodic_bands(words, pot)
    run = AdzRun(
        eps=eps,
        pot=pot,
        stages=[AdzStageRecord(1, words, bands, None, None, None)],
        sigma1_measure=bands.measure,
        final_measure=bands.measure,
        retained_half=True,
    )
    for n in range(1, stages):
        cur = run.stages[-1]
        budget = run.sigma1_measure * 2.0 ** -(n + 1)
        chosen = None
        trial = max(1, n_floor)
        best = math.inf
        while trial <= n_cap:
            next_words = adz_next_stage(cur.words, trial, eps)
            if max(len(w) for w in next_words) > max_word_len:
                raise RetentionError(
                    f"stage {n + 1}: words exceed {max_word_len} letters at N={trial} "
                    f"before retention was met (best deficit {best:.3e} vs budget {budget:.3e})"
                )
            next_bands = periodic_bands(next_words, pot)
            deficit = cur.bands.difference(next_bands).measure
            run.searched.append((n + 1, trial, deficit))
            best = min(best, deficit)
            if deficit < budget:
                chosen = trial
                break
            trial = trial + 1 if trial < 16 else math.ceil(trial * 1.5)
        if chosen is None:
            raise RetentionError(
                f"stage {n + 1}: retention unachievable at cap {n_cap} "
                f"(best deficit {best:.3e} vs budget {budget:.3e})"
            )
        cur.chosen_n = chosen
        cur.deficit = deficit
        cur.budget = budget
        run.stages.append(AdzStageRecord(n + 1, next_words, next_bands, None, None, None))

    run.final_measure = run.stages[-1].bands.measure
    run.retained_half = run.final_measure >= 0.5 * run.sigma1_measure
    return run


# ---------------------------------------------------------------------------
# Elliptic interval filling


@dataclass(frozen=True)
class EllipticCheck:
    bands: IntervalSet
    target: tuple[float, float]
    uncovered_measure: float  # Leb(target \ bands); does NOT vanish with reps
    max_gap: float  # largest connected uncovered piece; shrinks ~ 1/reps


def elliptic_interval_check(
    marker: str, tail: Word, pot: Potential, reps: int
) -> EllipticCheck:
    """Band spectrum of marker^reps + tail against [v(marker)-2, v(marker)+2].

    With an empty tail the word is a constant potential and the target is
    covered exactly.  A nonempty tail scatters: the bands inside the target
    stay thin (their total measure is essentially independent of ``reps``)
    but their positions densify, so the largest uncovered component
    ``max_gap`` shrinks like 1/reps.  That densification, not measure
    filling, is what puts the whole target interval inside the limit
    spectrum when marker runs are unbounded.
    """
    if reps < 1:
        raise ValueError("need at least one marker repetition")
    word = marker * reps + tail
    bands = periodic_bands(word, pot)
    v = pot.value(marker)
    target = (v - 2.0, v + 2.0)
    leftover = IntervalSet.single(*target).difference(bands)
    max_gap = max((hi - lo for lo, hi in leftover), default=0.0)
    return EllipticCheck(bands, target, leftover.measure, max_gap)


# ---------------------------------------------------------------------------
# Complexity growth of a staged run


@dataclass
class ComplexityGrowth:
    anchor_len: int
    c_hat: float
    exponent: float  # 1 + eps
    rows: list[tuple[int, int, float]]  # (L, p(L), bound)
    within_bound: bool


def complexity_growth_check(
    run: AdzRun, eps: float, l_max: int, sample_len: int
) -> ComplexityGrowth:
    """Check p(L) <= C_hat * L^(1+eps) on dyadic lengths of a stage sample.

    C_hat is anchored at the smallest length (8) and the bound is then
    verified at every larger dyadic L up to ``l_max``.
    """
    if len(run.stages) < 2:
        raise ValueError("need a run with at least two stages")
    if l_max < 16:
        raise ValueError("l_max must be at least 16")
    if sample_len < 4 * l_max:
        raise ValueError(f"sample_len {sample_len} < 4*l_max; margin too small")
    spec = run.spec
    lens = []
    length = 8
    while length <= l_max:
        lens.append(length)
        length *= 2
    rows = []
    exponent = 1.0 + eps
    c_hat = None
    ok = True
    for length in lens:
        p = complexity(spec, length, sample_len)
        if c_hat is None:
            c_hat = p / 8.0**exponent
        bound = c_hat * length**exponent
        rows.append((length, p, bound))
        if p > bound * (1 + 1e-12):
            ok = False
    return ComplexityGrowth(8, c_hat, exponent, rows, ok)


# ---------------------------------------------------------------------------
# Randomized sandwiched-product suite


@dataclass
class SandwichSuite:
    trials: int
    tested: int
    excluded: int  # draws failing the angle hypothesis
    c0: float
    c_slack: float
    seed: int
    growth_failures: int
    drift_failures: int
    non_hyperbolic: int
    worst_growth_ratio: float  # min over trials of lam(A) / (C0^-1 lam0 lam1 kappa)
    worst_drift_over_ceiling: float

    @property
    def all_passed(self) -> bool:
        failures = self.growth_failures + self.drift_failures + self.non_hyperbolic
        return self.tested > 0 and failures == 0


def scaled_product_suite(
    trials: int,
    c0: float,
    lam_floor_grid: list[float],
    seed: int,
    c_slack: float = 100.0,
) -> SandwichSuite:
    """Randomized verification of the sandwiched-product growth/drift claims.

    Each trial draws D = R_a diag(m, 1/m) R_b with m <= C0 and random
    lam0, lam1 >= lam_floor, keeps it only when the frame angle clears
    lam_floor^(-1/4), then draws kappa inside the admissible window and
    checks lam(A) >= C0^-1 lam0 lam1 kappa / c_slack together with the angle
    drifts against c_slack * C0^4 lam_floor^-2 kappa^-2.  Fully determined
    by the seed.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    floors = np.asarray(lam_floor_grid, dtype=float)[
        rng.integers(0, len(lam_floor_grid), trials)
    ]
    m = rng.uniform(1.0, c0, trials)
    ang_a = rng.uniform(0.0, math.pi, trials)
    ang_b = rng.uniform(0.0, math.pi, trials)
    lam0 = floors * 10.0 ** rng.uniform(0.0, 2.0, trials)
    lam1 = floors * 10.0 ** rng.uniform(0.0, 2.0, trials)
    kappa_draw = rng.uniform(0.0, 1.0, trials)

    ca, sa = np.cos(ang_a), np.sin(ang_a)
    cb, sb = np.cos(ang_b), np.sin(ang_b)
    # D = R_a diag(m, 1/m) R_b, assembled entrywise
    d00 = ca * m * cb - sa / m * sb
    d01 = -ca * m * sb - sa / m * cb
    d10 = sa * m * cb + ca / m * sb
    d11 = -sa * m * sb + ca / m * cb

    angle = _dist_mod_pi(np.arctan2(d10, d00) % math.pi, math.pi / 2)
    floor_angle = floors**-0.25
    keep = angle > floor_angle
    kappa = floor_angle + kappa_draw * (angle - floor_angle)

    a = np.zeros((trials, 2, 2))
    a[:, 0, 0] = lam1 * d00 * lam0
    a[:, 0, 1] = lam1 * d01 / lam0
    a[:, 1, 0] = d10 * lam0 / lam1
    a[:, 1, 1] = d11 / (lam0 * lam1)

    u, s, log_lam, hyp = svd_angles_stack(a)
    log_target = np.log(lam0) + np.log(lam1) + np.log(kappa) - math.log(c0)
    growth_ratio = np.exp(log_lam - log_target)
    ceiling = c_slack * c0**4 * floors**-2 * kappa**-2
    u_drift = _dist_mod_pi(u, 0.0)
    s_drift = _dist_mod_pi(s, math.pi / 2)
    drift = np.maximum(u_drift, s_drift)

    tested = int(np.sum(keep))
    non_hyp = int(np.sum(keep & ~hyp))
    ok = keep & hyp
    growth_failures = int(np.sum(ok & (growth_ratio < 1.0 / c_slack)))
    drift_failures = int(np.sum(ok & (drift > ceiling)))
    worst_ratio = float(np.min(growth_ratio[ok], initial=math.inf))
    worst_drift = float(np.max((drift / ceiling)[ok], initial=0.0))
    return SandwichSuite(
        trials=trials,
        tested=tested,
        excluded=trials - tested,
        c0=c0,
        c_slack=c_slack,
        seed=seed,
        growth_failures=growth_failures,
        drift_failures=drift_failures,
        non_hyperbolic=non_hyp,
        worst_growth_ratio=worst_ratio,
        worst_drift_over_ceiling=worst_drift,
    )

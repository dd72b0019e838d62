from pathlib import Path

import numpy as np
import pytest

from subshift_spectra import FIBONACCI, IntervalSet, Potential, Sample, periodic_bands
from subshift_spectra.cli import load_config
from subshift_spectra.experiments import (
    AdzRun,
    AdzStageRecord,
    RetentionError,
    adz_construct,
    complexity_growth_check,
    decay_sweep,
    elliptic_interval_check,
    fit_decay,
    scaled_product_suite,
    _stage_bands,
)
from subshift_spectra.words import factor_set

from conftest import de_bruijn, rng

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# -- decay fits ---------------------------------------------------------------


def test_fit_decay_constant_measures():
    slope, gamma_hat, resid, degenerate = fit_decay([10.0, 20.0, 40.0], [0.5, 0.5, 0.5])
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert gamma_hat == pytest.approx(0.0, abs=1e-12)
    assert degenerate


def test_fit_decay_exact_line():
    slope, gamma_hat, resid, degenerate = fit_decay([10.0, 100.0], [1.0, 0.1])
    assert gamma_hat == pytest.approx(1.0, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)
    assert not degenerate


def test_fit_decay_zero_measure_flags():
    slope, gamma_hat, resid, degenerate = fit_decay([10.0, 20.0], [0.1, 0.0])
    assert slope is None and gamma_hat is None
    assert degenerate


def test_decay_sweep_validation():
    pot = Potential({"a": 0.0, "b": 1.0})
    with pytest.raises(ValueError):
        decay_sweep(FIBONACCI, pot, [10.0, 5.0, 20.0], 6, "a", 3.0, 256)
    with pytest.raises(ValueError):
        decay_sweep(FIBONACCI, pot, [10.0, 20.0], 6, "a", 3.0, 256)
    with pytest.raises(ValueError):
        decay_sweep(FIBONACCI, Potential({"a": 0.5}), [1.0, 2.0, 4.0], 6, "a", 3.0, 256)


def test_decay_sweep_monotone_mini():
    pot = Potential({"a": 0.0, "b": 1.0})
    table = decay_sweep(FIBONACCI, pot, [10.0, 20.0, 40.0], 6, "a", 3.0, 512)
    ms = table.measures
    assert all(b <= a + 1e-12 for a, b in zip(ms, ms[1:]))
    assert table.gamma_hat is not None and table.gamma_hat > 0
    assert "proxy" in table.note


def _full_factor_sweep(spec, v_base, lam_list, factor_len, e0_letter, h, sample_len):
    """The decay sweep over every observed factor, as it ran before it solved
    one factor per rotation/reversal class: per coupling, the clipped band
    union, then the fit of its measures."""
    words = factor_set(spec, factor_len, sample_len)
    clipped = []
    for lam in lam_list:
        pot = v_base.scale(lam)
        e0 = pot.value(e0_letter)
        clipped.append(periodic_bands(words, pot).clip(e0 - h, e0 + h))
    return clipped, fit_decay(lam_list, [c.measure for c in clipped])


#: eigenvalue rounding allowance per reported band endpoint, in units of
#: eps * ||H|| with ||H|| <= lam max|v| + 2; the worst seen is about 3
C_ENDPOINT = 8


@pytest.mark.parametrize("subshift", ["shipped", "random sample"])
def test_decay_sweep_matches_full_factor_set(subshift):
    cfg = load_config(CONFIG_DIR / "acceptance_decay.json")
    sec = cfg.section("decay")
    spec = cfg.subshift()
    if subshift == "random sample":
        spec = Sample("".join(rng(11).choice(list("ab"), 4096)))
    v_base = cfg.potential()
    args = (sec["lam_list"], sec["factor_len"], sec["e0_letter"], float(cfg.consts.H), sec["sample_len"])
    table = decay_sweep(spec, v_base, *args)
    clipped, (slope, gamma_hat, _, _) = _full_factor_sweep(spec, v_base, *args)
    v_max = max(abs(v) for v in v_base.values.values())
    eps = np.finfo(float).eps
    for row, ref in zip(table.rows, clipped, strict=True):
        endpoints = 2 * len(ref)
        bound = endpoints * C_ENDPOINT * eps * (row.lam * v_max + 2.0)
        assert abs(row.measure - ref.measure) <= bound, row.lam
    assert table.slope == pytest.approx(slope, rel=0, abs=1e-9)
    assert table.gamma_hat == pytest.approx(gamma_hat, rel=0, abs=1e-9)


# -- staged construction -------------------------------------------------------


def test_adz_stage1_bands_exact():
    pot = Potential({"a": 0.0, "b": 1.0})
    bands = _stage_bands(["a", "b"], pot)
    assert bands.intervals == ((-2.0, 3.0),)


def test_adz_construct_three_stages():
    pot = Potential({"a": 0.0, "b": 1.0})
    run = adz_construct(2, 0.5, pot, 3, 10_000)
    assert len(run.stages) == 3
    assert run.sigma1_measure == pytest.approx(5.0)
    for st in run.stages[:-1]:
        assert st.chosen_n is not None and st.chosen_n <= 10_000
        assert st.deficit < st.budget
    assert run.retained_half
    assert run.final_measure >= 0.5 * run.sigma1_measure
    # stage-2 words follow the construction rule from stage 1
    st2 = run.stages[1].words
    assert all(w.startswith("ab") for w in st2)


def test_adz_construct_validation():
    pot = Potential({"a": 0.0, "b": 1.0})
    with pytest.raises(ValueError):
        adz_construct(2, 1.5, pot, 3, 100)
    with pytest.raises(ValueError):
        adz_construct(1, 0.5, pot, 3, 100)
    with pytest.raises(KeyError):
        adz_construct(3, 0.5, pot, 3, 100)  # letter 'c' missing from pot


def test_adz_retention_error_at_tiny_cap():
    # a strong barrier keeps deficits large; a tiny cap must fail loudly
    pot = Potential({"a": 0.0, "b": 30.0})
    with pytest.raises(RetentionError, match="cap"):
        adz_construct(2, 0.5, pot, 3, 2)


# -- elliptic interval ---------------------------------------------------------


def test_elliptic_empty_tail_exact():
    pot = Potential({"a": 0.0, "b": 8.0})
    chk = elliptic_interval_check("a", "", pot, 50)
    assert chk.uncovered_measure == 0.0
    assert chk.max_gap == 0.0


def test_elliptic_gaps_shrink_but_measure_does_not():
    pot = Potential({"a": 0.0, "b": 8.0})
    chk25 = elliptic_interval_check("a", "b", pot, 25)
    chk50 = elliptic_interval_check("a", "b", pot, 50)
    chk100 = elliptic_interval_check("a", "b", pot, 100)
    assert chk50.max_gap <= 0.5
    assert chk100.max_gap <= chk25.max_gap
    # the thin bands keep roughly constant total measure: the literal
    # leftover measure stays large and essentially rep-independent
    assert chk50.uncovered_measure > 3.0
    assert abs(chk100.uncovered_measure - chk25.uncovered_measure) < 1e-6


# -- complexity growth -----------------------------------------------------------


def test_complexity_growth_on_staged_run():
    pot = Potential({"a": 0.0, "b": 1.0})
    run = adz_construct(2, 0.5, pot, 3, 10_000)
    growth = complexity_growth_check(run, 0.5, 128, 2048)
    assert growth.within_bound
    assert growth.anchor_len == 8
    assert growth.rows[0][1] <= growth.rows[-1][1]  # p nondecreasing in L


def test_complexity_growth_negative_control():
    # a de Bruijn sample has p(L) ~ 2^L up to the window limit; no L^1.5
    # bound anchored at L=8 survives that
    pot = Potential({"a": 0.0, "b": 1.0})
    db = de_bruijn(12)
    fake = AdzRun(
        eps=0.5,
        pot=pot,
        stages=[
            AdzStageRecord(1, ["a", "b"], _stage_bands(["a", "b"], pot), None, None, None),
            AdzStageRecord(2, [db], IntervalSet.empty(), None, None, None),
        ],
        sigma1_measure=5.0,
        final_measure=0.0,
        retained_half=False,
    )
    growth = complexity_growth_check(fake, 0.5, 64, 4096)
    assert not growth.within_bound


def test_complexity_growth_periodic_control():
    pot = Potential({"a": 0.0, "b": 1.0})
    fake = AdzRun(
        eps=0.5,
        pot=pot,
        stages=[
            AdzStageRecord(1, ["a", "b"], _stage_bands(["a", "b"], pot), None, None, None),
            AdzStageRecord(2, ["abab"], IntervalSet.empty(), None, None, None),
        ],
        sigma1_measure=5.0,
        final_measure=0.0,
        retained_half=False,
    )
    growth = complexity_growth_check(fake, 0.5, 256, 2048)
    assert growth.within_bound  # p(L) = 2 for all L >= 2


def test_complexity_growth_validation():
    pot = Potential({"a": 0.0, "b": 1.0})
    run = adz_construct(2, 0.5, pot, 2, 10_000)
    with pytest.raises(ValueError):
        complexity_growth_check(run, 0.5, 512, 100)  # sample too short


# -- randomized suite ------------------------------------------------------------


def test_suite_single_trial():
    suite = scaled_product_suite(1, 10.0, [1000.0], seed=3)
    assert suite.trials == 1
    assert suite.tested + suite.excluded == 1
    assert suite.all_passed


def test_suite_reproducible_bitwise():
    a = scaled_product_suite(2000, 10.0, [1e3, 1e4], seed=99)
    b = scaled_product_suite(2000, 10.0, [1e3, 1e4], seed=99)
    assert a == b
    c = scaled_product_suite(2000, 10.0, [1e3, 1e4], seed=100)
    assert c != a


def test_suite_boundary_draws_are_excluded():
    suite = scaled_product_suite(5000, 10.0, [1e3], seed=5)
    assert suite.excluded > 0  # draws with angle under the floor do occur
    assert suite.tested + suite.excluded == suite.trials
    assert suite.all_passed

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subshift_spectra import (
    IntervalSet,
    Periodic,
    Potential,
    cone_certificate,
    discriminant,
    periodic_bands,
    spectrum_approximant,
)
from subshift_spectra import bands
from subshift_spectra.bands import BandComputationError, discriminant_curve
from subshift_spectra.words import FIBONACCI

from conftest import endpoint_reprs, rng, sequential_merge


def test_discriminant_examples(pot04, pot_free):
    assert discriminant("a", pot_free, 1.0) == 1.0
    # w = "ab", v = {0, 4}: trace is E^2 - 4E - 2
    for e in (-1.0, 0.0, 2.0, 5.0):
        assert discriminant("ab", pot04, e) == e * e - 4 * e - 2
    assert discriminant("ab", pot04, 0.0) == -2.0
    # free two-site word at E=0: 2 cos(2 * pi/2) = -2
    assert discriminant("aa", pot_free, 0.0) == -2.0


def test_free_laplacian_bands_all_periods(pot_free):
    for q in range(1, 33):
        bands = periodic_bands("a" * q, pot_free)
        assert len(bands) == 1
        (lo, hi), = bands.intervals
        assert abs(lo + 2.0) <= 1e-9 and abs(hi - 2.0) <= 1e-9
        assert abs(bands.measure - 4.0) <= 1e-9


def test_single_site_band_is_shifted_interval():
    for c in (-1.5, 0.0, 0.7, 8.0):
        bands = periodic_bands("a", Potential({"a": c}))
        assert bands.intervals == ((c - 2.0, c + 2.0),)


def test_two_letter_band_oracle(pot04):
    # quadratic-root oracle: E^2-4E-2 = +-2 at {2-2sqrt2, 0, 4, 2+2sqrt2}
    bands = periodic_bands("ab", pot04)
    expected = [2 - 2 * math.sqrt(2), 0.0, 4.0, 2 + 2 * math.sqrt(2)]
    got = [x for pair in bands.intervals for x in pair]
    assert len(got) == 4
    for g, e in zip(got, expected):
        assert abs(g - e) <= 1e-9
    assert abs(bands.measure - (4 * math.sqrt(2) - 4)) <= 1e-9


def test_discriminant_sign_pattern():
    # |D| <= 2 inside bands (16 interior probes per band), >= 2 outside
    pot = Potential({"a": 0.0, "b": 3.0})
    g = rng(17)
    words = ["ab", "aab", "abab", "aabba", "babab"]
    for word in words:
        bands = periodic_bands(word, pot)
        for lo, hi in bands:
            inner = np.linspace(lo, hi, 18)[1:-1]
            assert np.all(np.abs(discriminant_curve(word, pot, inner)) <= 2 + 1e-7)
        outside = IntervalSet.single(-6.0, 9.0).difference(bands.dilate(1e-4))
        for lo, hi in outside:
            probes = np.linspace(lo, hi, 40)
            assert np.all(np.abs(discriminant_curve(word, pot, probes)) >= 2 - 1e-7)


def test_band_cyclic_invariance():
    pot = Potential({"a": 0.0, "b": 3.0})
    g = rng(29)
    for _ in range(10):
        length = int(g.integers(2, 9))
        word = "".join("ab"[int(k)] for k in g.integers(0, 2, length))
        base = periodic_bands(word, pot)
        for shift in range(1, length):
            rotated = periodic_bands(word[shift:] + word[:shift], pot)
            assert len(rotated) == len(base)
            for (lo1, hi1), (lo2, hi2) in zip(base, rotated):
                assert abs(lo1 - lo2) <= 1e-9 and abs(hi1 - hi2) <= 1e-9


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.text("abc", min_size=1, max_size=16), st.sampled_from([1.0, 10.0, 80.0]))
def test_bands_invariant_under_rotation_and_reversal(word, lam):
    # the premise of solving one word per rotation/reversal class: the
    # w-periodic operator is conjugate to that of every rotation (a shift)
    # and of the reversal (a reflection).  The eigensolves differ by
    # rounding only; the worst seen on random words is 16 eps (max|v| + 2).
    pot = Potential({"a": 0.0, "b": lam, "c": -0.5 * lam})
    tol = 64 * np.finfo(float).eps * (lam + 2.0)
    base = periodic_bands(word, pot).intervals
    for other in [word[i:] + word[:i] for i in range(1, len(word))] + [word[::-1]]:
        got = periodic_bands(other, pot).intervals
        assert len(got) == len(base), other
        assert np.max(np.abs(np.subtract(got, base))) <= tol, other


def test_periodic_bands_validation(pot04):
    with pytest.raises(ValueError):
        periodic_bands("", pot04)


def test_approximant_periodic_two_letter(pot04):
    approx = spectrum_approximant(Periodic("ab"), pot04, 2, 64)
    union = periodic_bands("ab", pot04).union(periodic_bands("ba", pot04))
    assert approx.intervals == union.intervals
    # trace cyclicity: both factors give the same band set
    ab = periodic_bands("ab", pot04)
    ba = periodic_bands("ba", pot04)
    for (lo1, hi1), (lo2, hi2) in zip(ab, ba):
        assert abs(lo1 - lo2) <= 1e-12 and abs(hi1 - hi2) <= 1e-12


def test_approximant_single_letters():
    lam = 10.0
    pot = Potential({"a": 0.0, "b": lam})
    corpus = Periodic("ab")
    approx = spectrum_approximant(corpus, pot, 1, 64)
    assert approx.intervals == ((-2.0, 2.0), (lam - 2.0, lam + 2.0))


def test_approximant_measure_shrinks_with_factor_length():
    pot = Potential({"a": 0.0, "b": 10.0})
    m1 = spectrum_approximant(FIBONACCI, pot, 1, 512).measure
    m8 = spectrum_approximant(FIBONACCI, pot, 8, 512).measure
    assert m8 < m1


def test_approximant_measure_monotone_over_doublings():
    # desk-scale check on a substitution system: nonincreasing when the
    # factor length doubles
    pot = Potential({"a": 0.0, "b": 10.0})
    measures = [
        spectrum_approximant(FIBONACCI, pot, n, 1024).measure for n in (1, 2, 4, 8, 16)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(measures, measures[1:]))


def test_cone_certified_outside_envelope():
    lam = 100.0
    pot = Potential({"a": 0.0, "b": lam})
    env = IntervalSet.from_pairs([(v - 3.0, v + 3.0) for v in pot.values.values()])
    window = IntervalSet.single(-20.0, lam + 20.0)
    for lo, hi in window.difference(env):
        for e in np.linspace(lo + 1e-9, hi - 1e-9, 25):
            assert cone_certificate(float(e), pot, None, 0.5, 3.0)


# -- batched factor sets -------------------------------------------------------


def _reference_bands(words, pot) -> tuple:
    """Band union computed word by word, as before batching: two eigvalsh
    calls per word on its wrapped Jacobi matrices, then the pair-by-pair
    merge of each word's bands and of their union."""
    pairs = []
    for word in words:
        q = len(word)
        diag = np.array([pot.value(ch) for ch in word], dtype=float)
        eigs = []
        for wrap in (1.0, -1.0):
            h = np.diag(diag)
            if q == 1:
                h[0, 0] += 2.0 * wrap
            elif q == 2:
                h[0, 1] = h[1, 0] = 1.0 + wrap
            else:
                i = np.arange(q - 1)
                h[i, i + 1] = h[i + 1, i] = 1.0
                h[0, q - 1] = h[q - 1, 0] = wrap
            eigs.append(np.linalg.eigvalsh(h))
        edges = np.sort(np.concatenate(eigs))
        raw = [(float(edges[2 * i]), float(edges[2 * i + 1])) for i in range(q)]
        pairs.extend(sequential_merge(raw))
    return sequential_merge(pairs)


def _random_words(g, length: int, count: int, alphabet: str = "ab") -> list[str]:
    return sorted({"".join(g.choice(list(alphabet), length)) for _ in range(count)})


@pytest.mark.parametrize("stack_elements", [bands.STACK_ELEMENTS, 40])
@pytest.mark.parametrize("lam", [1.0, 10.0, 80.0])
def test_batched_bands_equal_word_by_word(lam, stack_elements, monkeypatch):
    # a budget of 40 entries stacks at most four words of length 3 and
    # one of length 13 or 40 at a time
    monkeypatch.setattr(bands, "STACK_ELEMENTS", stack_elements)
    g = rng(int(lam) + 7)
    pot = Potential({"a": 0.0, "b": lam})
    sets = {q: _random_words(g, q, 40) for q in (1, 2, 3, 13, 40)}
    mixed = [w for q in (13, 1, 40, 3, 2) for w in sets[q][::3]]
    g.shuffle(mixed)
    three = _random_words(g, 5, 30, "abc")
    cases = [(ws, pot) for ws in sets.values()] + [(mixed, pot)]
    cases.append((three, Potential({"a": 0.0, "b": lam, "c": -0.5 * lam})))
    for words, p in cases:
        got = periodic_bands(words, p).intervals
        want = _reference_bands(words, p)
        assert got == want
        assert endpoint_reprs(got) == endpoint_reprs(want)


def test_str_argument_is_one_word(pot04):
    assert periodic_bands("ab", pot04) == periodic_bands(["ab"], pot04)
    assert periodic_bands("ab", pot04) != periodic_bands(["a", "b"], pot04)
    assert periodic_bands([], pot04) == IntervalSet.empty()
    with pytest.raises(ValueError):
        periodic_bands(["ab", ""], pot04)


@pytest.mark.parametrize(
    "words, broken, named",
    [
        # the two failing words sit in different length groups; the error
        # names the earlier one in the input, whichever group is solved first
        (["aab", "aaab", "bab", "abab"], {"bab", "abab"}, "bab"),
        (["aab", "abab", "bab"], {"bab", "abab"}, "abab"),
    ],
)
def test_batch_check_failure_names_first_failing_word(words, broken, named, monkeypatch):
    pot = Potential({"a": 0.0, "b": 3.0})
    real = np.linalg.eigvalsh

    def shifted(h, *args, **kwargs):
        # move the lowest eigenvalue of each broken word into its band
        out = real(h, *args, **kwargs).copy()
        for word in broken:
            if h.shape[-1] == len(word):
                row = np.all(np.diagonal(h, axis1=1, axis2=2) == [pot.value(c) for c in word], 1)
                out[row, 0] += 1e-3
        return out

    monkeypatch.setattr(bands.np.linalg, "eigvalsh", shifted)
    with pytest.raises(BandComputationError, match=f"band edge of word {named!r}"):
        periodic_bands(words, pot)
    # each broken word alone fails; the others pass
    for word in words:
        if word in broken:
            with pytest.raises(BandComputationError, match=repr(word)):
                periodic_bands(word, pot)
        else:
            periodic_bands(word, pot)


def test_batch_eigensolve_failure_is_a_band_error(pot04, monkeypatch):
    def fail(h, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(bands.np.linalg, "eigvalsh", fail)
    with pytest.raises(BandComputationError, match="'ab'"):
        periodic_bands(["ab", "ba"], pot04)

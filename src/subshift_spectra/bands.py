"""Exact spectra of periodic approximants via boundary-condition eigenvalues.

The spectrum of the period-q operator with potential v(w_0..w_{q-1}) is
{E : |tr cocycle(w, E)| <= 2}.  Band edges are computed as the eigenvalues
of the two real symmetric q x q wrapped Jacobi matrices (wrap coupling +1
and -1); sorted and paired consecutively they bound the q closed bands,
which is numerically robust out to periods of a few thousand.

A factor set is one batch: words of one length share stacked eigensolves and
array-wide self-checks, and all their bands merge in one sweep.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .intervals import IntervalSet
from .sl2 import cocycle_product, cocycle_rows, cocycle_stack
from .words import Potential, SubshiftSpec, Word, factor_set


class BandComputationError(RuntimeError):
    """Eigenvalue solve or band self-check failed for a specific word."""


def discriminant(word: Word, pot: Potential, energy: float) -> float:
    """Trace of the period cocycle at this energy."""
    if not word:
        raise ValueError("discriminant needs a nonempty word")
    return cocycle_product(word, energy, pot).trace


def discriminant_curve(word: Word, pot: Potential, energies: np.ndarray) -> np.ndarray:
    """Vectorized discriminant over an energy grid."""
    if not word:
        raise ValueError("discriminant needs a nonempty word")
    m = cocycle_stack(word, np.asarray(energies, dtype=float), pot)
    return m[:, 0, 0] + m[:, 1, 1]


#: float64 entries of one (k, q, q) Jacobi stack (2 MiB); bounds the memory of a batch
STACK_ELEMENTS = 1 << 18

#: the band self-checks, in the order a word is put through them
_CHECKS = (
    "overlapping raw bands for word {!r}",
    "discriminant exceeds 2 inside a band of word {!r}",
    "discriminant below 2 at a band edge of word {!r}",
)


def _wrapped_jacobi(diag: np.ndarray, wrap: float) -> np.ndarray:
    """(k, q, q) stack of wrapped Jacobi matrices, one per row of ``diag``."""
    k, q = diag.shape
    idx = np.arange(q)
    h = np.zeros((k, q, q))
    h[:, idx, idx] = diag
    if q == 1:
        # both neighbors of the single site wrap around
        h[:, 0, 0] += 2.0 * wrap
        return h
    if q == 2:
        h[:, 0, 1] = h[:, 1, 0] = 1.0 + wrap
        return h
    h[:, idx[:-1], idx[1:]] = 1.0
    h[:, idx[1:], idx[:-1]] = 1.0
    h[:, 0, q - 1] = wrap
    h[:, q - 1, 0] = wrap
    return h


def _band_noise_log(diag: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Per word (row), log10 bound on float noise of the discriminant at the probes.

    The trace is exact up to ~1e-16 times the largest intermediate product
    norm; a loose per-letter norm bound is enough to budget it.
    """
    log_growth = np.zeros_like(probes, dtype=float)
    for v in diag.T:
        log_growth += np.log10(np.abs(probes - v[:, None]) + 2.0)
    return -15.0 + log_growth.max(axis=1, initial=0.0)


def _stack_bands(diag: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw band ends lo, hi (k, q) of k words with potentials ``diag`` (k, q),
    and which of ``_CHECKS`` each word fails (k, 3).  The discriminant check
    at band midpoints (<= 2 + tol) and edges (>= 2 - tol) has tol = 1e-7 plus
    a float-noise allowance, and skips a word whose noise exceeds 1e-3."""
    q = diag.shape[1]
    eigs = [np.linalg.eigvalsh(_wrapped_jacobi(diag, wrap)) for wrap in (1.0, -1.0)]
    edges = np.sort(np.concatenate(eigs, axis=1), axis=1)
    lo, hi = edges[:, 0::2], edges[:, 1::2]
    failed = np.zeros((len(diag), 3), dtype=bool)
    failed[:, 0] = np.any(lo[:, 1:] < hi[:, :-1] - 1e-12 * np.maximum(1.0, np.abs(hi[:, :-1])), 1)
    probes = np.concatenate([0.5 * (lo + hi), edges], axis=1)
    noise_log = _band_noise_log(diag, probes)
    rows = np.flatnonzero(noise_log <= -3.0)
    # Python's pow: numpy's power can differ from it in the last bit of the tolerance
    tol = 1e-7 + 1e2 * np.array([10.0**x for x in noise_log[rows].tolist()])[:, None]
    x = (probes[rows] - v[:, None] for v in diag[rows].T)
    a, _, _, d = cocycle_rows(x, (rows.size, 3 * q))
    disc = np.abs(a + d)
    failed[rows, 1] = np.any(disc[:, :q] > 2.0 + tol, axis=1)
    failed[rows, 2] = np.any(disc[:, q:] < 2.0 - tol, axis=1)
    return lo, hi, failed


def periodic_bands(word: Word | Sequence[Word], pot: Potential) -> IntervalSet:
    """Band spectrum {E : |discriminant| <= 2} of the ``word``-periodic operator.

    The 2q eigenvalues of the wrap-coupling +1/-1 matrices are sorted and
    paired into q closed bands; touching bands merge, so a constant
    potential reports the single interval [v-2, v+2] with measure exactly 4.
    A failed self-check (``_stack_bands``) raises ``BandComputationError``
    naming the first failing word.  A sequence of words gives the union of
    their spectra: words of one length are solved in stacks of at most
    ``STACK_ELEMENTS`` entries, one ``eigvalsh`` call per stack and wrap.
    """
    words = [word] if isinstance(word, str) else list(word)
    if not all(words):
        raise ValueError("periodic word must be nonempty")
    pairs, fails = [], []
    for q in dict.fromkeys(map(len, words)):
        idx = [i for i, w in enumerate(words) if len(w) == q]
        step = max(1, STACK_ELEMENTS // (q * q))
        for chunk in (idx[s : s + step] for s in range(0, len(idx), step)):
            # potential along each word, looked up by the letters' code points
            codes = np.frombuffer("".join(words[i] for i in chunk).encode("utf-32-le"), np.uint32)
            letters = np.flatnonzero(np.bincount(codes))
            values = np.zeros(letters[-1] + 1)
            values[letters] = [pot.value(chr(c)) for c in letters]
            try:
                lo, hi, failed = _stack_bands(values[codes].reshape(-1, q))
            except np.linalg.LinAlgError as e:
                raise BandComputationError(f"eigensolve failed near {words[chunk[0]]!r}") from e
            fails += [(chunk[i], int(failed[i].argmax())) for i in np.flatnonzero(failed.any(1))]
            pairs.append(np.stack([lo, hi], axis=-1).reshape(-1, 2))
    if fails:
        i, check = min(fails)
        raise BandComputationError(_CHECKS[check].format(words[i]))
    return IntervalSet.from_pairs(np.concatenate(pairs) if pairs else [])


def spectrum_approximant(
    spec: SubshiftSpec, pot: Potential, n: int, sample_len: int
) -> IntervalSet:
    """Union of band spectra over every distinct length-``n`` sample factor.

    A periodic-approximation proxy for the subshift spectrum: exact band
    unions for the observed factor language, with no convergence claim for
    arbitrary systems.
    """
    return periodic_bands(factor_set(spec, n, sample_len), pot)


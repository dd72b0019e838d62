"""Sorted disjoint closed real intervals with exact sweep-line set algebra.

The canonical form merges touching or overlapping intervals (touching up to
``MERGE_TOL``, so eigenvalue bands that meet at a point report the exact
joint measure).  All operations work on endpoints only; no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: endpoints closer than this are considered touching and merged
MERGE_TOL = 1e-12


def _cuts(lo: np.ndarray, run: np.ndarray, merge_tol: float, new=False) -> np.ndarray:
    """The merge rule, one flag before each row of a (lo, hi)-ordered sweep and one
    after the last: a row starts an interval if it is the first, is marked ``new``,
    or its lo exceeds the running max hi ``run`` before it by more than ``merge_tol``."""
    cut = np.ones(lo.size + 1, dtype=bool)
    cut[1:-1] = (lo[1:] > run[:-1] + merge_tol) | new
    return cut


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of closed intervals in canonical (sorted, disjoint) form."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        prev_hi = None
        for lo, hi in self.intervals:
            if not lo <= hi:
                raise ValueError(f"invalid interval [{lo}, {hi}]")
            if prev_hi is not None and lo <= prev_hi:
                raise ValueError("intervals must be strictly increasing and disjoint")
            prev_hi = hi

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def single(cls, lo: float, hi: float) -> "IntervalSet":
        return cls(((float(lo), float(hi)),))

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Sequence[float]], merge_tol: float = MERGE_TOL
    ) -> "IntervalSet":
        """Canonicalize arbitrary [lo, hi] pairs: sort and merge touching ones.

        One sweep in (lo, hi) order, ties in input order: an interval starts
        wherever lo exceeds the running max hi by more than ``merge_tol``, and
        ends at the first maximal hi of its group (so -0.0 and 0.0 survive).
        """
        arr = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=float)
        if not arr.size:
            return cls(())
        lo, hi = arr.T
        if np.count_nonzero(lo <= hi) < lo.size:
            bad = np.flatnonzero(~(lo <= hi))[0]
            raise ValueError(f"invalid interval [{lo[bad]}, {hi[bad]}]")
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        run = np.maximum.accumulate(hi)
        start = np.flatnonzero(_cuts(lo, run, merge_tol)[:-1])
        # run only grows from one group to the next: first index reaching each group max
        top = np.searchsorted(run, np.maximum.reduceat(hi, start))
        return cls(tuple(zip(lo[start].tolist(), hi[top].tolist())))

    @classmethod
    def per_group(
        cls, group: np.ndarray, lo: np.ndarray, hi: np.ndarray, n: int
    ) -> list["IntervalSet"]:
        """``from_pairs`` of the (lo, hi) rows of each group 0 .. n - 1 in one sweep, for
        rows sorted by group with lo and hi strictly increasing in a group (the running
        max hi is the previous hi); other rows are the caller's fault: ``RuntimeError``.
        One ``from_pairs`` per group took a tower-bisect op 5% longer (``BENCH_27.json``)."""
        same = group[1:] == group[:-1]
        if not np.all(lo <= hi) or np.any(same & ((lo[1:] <= lo[:-1]) | (hi[1:] <= hi[:-1]))):
            raise RuntimeError("a group's rows need lo <= hi, both strictly increasing")
        cut = _cuts(lo, hi, MERGE_TOL, ~same)
        first, last = np.flatnonzero(cut[:-1]), np.flatnonzero(cut[1:])
        merged = list(zip(lo[first].tolist(), hi[last].tolist()))
        bounds = np.searchsorted(group[first], np.arange(n + 1)).tolist()
        return [cls(tuple(merged[a:b])) for a, b in zip(bounds, bounds[1:])]

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    @property
    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def contains_point(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def subset_of(self, other: "IntervalSet") -> bool:
        """Exact endpoint containment: every interval fits inside one of ``other``."""
        return all(
            any(olo <= lo and hi <= ohi for olo, ohi in other.intervals)
            for lo, hi in self.intervals
        )

    # -- algebra -----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_pairs(list(self.intervals) + list(other.intervals))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        # zero-tolerance merge: adjacent outputs can share an endpoint
        return IntervalSet.from_pairs(out, merge_tol=0.0)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Closure of the set difference (kept as closed intervals).

        An interval that no interval of ``other`` meets is kept whole, a
        point interval included."""
        out = []
        for lo, hi in self.intervals:
            cursor, cut = lo, False
            for olo, ohi in other.intervals:
                if ohi < cursor or olo > hi:
                    continue
                if olo > cursor:
                    out.append((cursor, olo))
                cursor, cut = max(cursor, ohi), True
                if cursor >= hi:
                    break
            if cursor < hi or not cut:
                out.append((cursor, hi))
        return IntervalSet.from_pairs(out, merge_tol=0.0)

    def dilate(self, radius: float) -> "IntervalSet":
        """Expand every interval by ``radius`` on both sides and re-merge."""
        if radius < 0:
            raise ValueError("dilation radius must be >= 0")
        return IntervalSet.from_pairs(
            [(lo - radius, hi + radius) for lo, hi in self.intervals]
        )

    def clip(self, lo: float, hi: float) -> "IntervalSet":
        return self.intersect(IntervalSet.single(lo, hi))

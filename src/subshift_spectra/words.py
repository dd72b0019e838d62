"""Finite-alphabet words, subshift generators, and return-word towers.

Letters are single ASCII characters ('a', 'b', ...) and finite words are
plain Python strings, so samples serialize directly to text files.  A
subshift is described by a finite generator (periodic word, substitution
rule, staged concatenation sets, or an explicit sample) from which
arbitrarily long factors are drawn deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Union

Letter = str
Word = str


class UnknownLetterError(KeyError):
    """A word contains a letter outside the potential's domain."""

    def __str__(self) -> str:  # the message, without KeyError's quotes
        return str(self.args[0])


class RunLengthError(ValueError):
    """A marker-letter run exceeds the configured cap K_max."""


def letter(index: int) -> Letter:
    """Letter for a small integer index: 0 -> 'a', 1 -> 'b', ..."""
    if not 0 <= index < 26:
        raise ValueError(f"letter index {index} out of range 0..25")
    return chr(ord("a") + index)


@dataclass(frozen=True)
class Potential:
    """Letter -> real coupling map with pairwise distinct values.

    ``sparseness`` is the minimal pairwise gap between values, the
    large-coupling parameter of the whole construction.
    """

    values: Mapping[Letter, float]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("potential needs at least one letter")
        object.__setattr__(self, "values", dict(self.values))
        vals = list(self.values.values())
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if vals[i] == vals[j]:
                    raise ValueError(
                        "potential values must be pairwise distinct "
                        f"(duplicate value {vals[i]!r})"
                    )

    def value(self, ch: Letter) -> float:
        try:
            return self.values[ch]
        except KeyError:
            raise UnknownLetterError(f"letter {ch!r} not in potential domain") from None

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(self.values)

    @property
    def sparseness(self) -> float:
        """Minimal pairwise |v(a) - v(b)|; +inf for a single letter."""
        vals = sorted(self.values.values())
        if len(vals) < 2:
            return math.inf
        return min(b - a for a, b in zip(vals, vals[1:]))

    def scale(self, lam: float) -> "Potential":
        return Potential({ch: lam * v for ch, v in self.values.items()})


# ---------------------------------------------------------------------------
# Subshift generators


@dataclass(frozen=True)
class Periodic:
    """Orbit closure of the two-sided periodic repetition of ``word``."""

    word: Word

    def __post_init__(self) -> None:
        if not self.word:
            raise ValueError("periodic word must be nonempty")


@dataclass(frozen=True)
class Substitution:
    """Substitution system: iterate ``rules`` on ``seed`` (non-erasing)."""

    rules: Mapping[Letter, Word]
    seed: Letter

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", dict(self.rules))
        if self.seed not in self.rules:
            raise ValueError(f"seed letter {self.seed!r} has no rule")
        for ch, image in self.rules.items():
            if not image:
                raise ValueError(f"erasing rule for {ch!r}")
            for out in image:
                if out not in self.rules:
                    raise ValueError(f"rule image letter {out!r} has no rule")


@dataclass(frozen=True)
class AdzStages:
    """Finitely many construction stages, each a nonempty ordered word set."""

    stages: tuple[tuple[Word, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "stages", tuple(tuple(stage) for stage in self.stages)
        )
        if not self.stages:
            raise ValueError("need at least one stage")
        for i, stage in enumerate(self.stages):
            if not stage:
                raise ValueError(f"stage {i} is empty")
            if any(not w for w in stage):
                raise ValueError(f"stage {i} contains an empty word")


@dataclass(frozen=True)
class Sample:
    """An explicitly given finite sample; factors are its prefixes."""

    word: Word

    def __post_init__(self) -> None:
        if not self.word:
            raise ValueError("sample word must be nonempty")


SubshiftSpec = Union[Periodic, Substitution, AdzStages, Sample]

FIBONACCI = Substitution({"a": "ab", "b": "a"}, "a")


def sample_word(spec: SubshiftSpec, length: int) -> Word:
    """Deterministic factor of the specified system with exactly ``length`` letters.

    Periodic systems repeat their word, substitutions iterate the rule on
    the seed until long enough, staged systems concatenate the last stage's
    words cyclically, and explicit samples return a prefix.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return ""
    if isinstance(spec, Periodic):
        reps = -(-length // len(spec.word))
        return (spec.word * reps)[:length]
    if isinstance(spec, Substitution):
        w = spec.seed
        while len(w) < length:
            grown = "".join(spec.rules[ch] for ch in w)
            if len(grown) <= len(w):
                raise ValueError("substitution does not grow; cannot reach length")
            w = grown
        return w[:length]
    if isinstance(spec, AdzStages):
        stage = spec.stages[-1]
        period = "".join(stage)
        reps = -(-length // len(period))
        return (period * reps)[:length]
    if isinstance(spec, Sample):
        if length > len(spec.word):
            raise ValueError(
                f"sample of length {len(spec.word)} cannot supply {length} letters"
            )
        return spec.word[:length]
    raise TypeError(f"not a subshift spec: {spec!r}")


def factor_set(spec: SubshiftSpec, n: int, sample_len: int) -> list[Word]:
    """Sorted distinct length-``n`` factors observed in a sample.

    Exact for periodic and substitution systems once the sample is long
    enough; in general a lower approximation of the factor language.
    """
    if n < 1:
        raise ValueError("factor length must be >= 1")
    if n > sample_len:
        raise ValueError(f"factor length {n} exceeds sample length {sample_len}")
    if sample_len < 4 * n:
        raise ValueError(f"sample length {sample_len} < 4*{n}; margin too small")
    s = sample_word(spec, sample_len)
    return sorted({s[i : i + n] for i in range(len(s) - n + 1)})


def bracelet_representatives(words: Iterable[Word]) -> list[Word]:
    """First word of each class of words equal up to rotation and reversal.

    The classes (bracelets) are listed in the order their first word occurs
    in ``words``.  The ``w``-periodic operator is conjugate to the one of
    every rotation of ``w`` (by a shift) and of its reversal (by a
    reflection), so one word per class gives the same periodic spectrum.
    """
    seen: set[Word] = set()
    reps = []
    for w in words:
        if w not in seen:
            reps.append(w)
            q = len(w)
            for twice in (w + w, w[::-1] * 2):
                seen.update(twice[i : i + q] for i in range(q))
    return reps


def complexity(spec: SubshiftSpec, n: int, sample_len: int) -> int:
    """Number of distinct length-``n`` factors observed in a sample."""
    return len(factor_set(spec, n, sample_len))


def adz_next_stage(stage: Sequence[Word], n_reps: int, eps: float) -> list[Word]:
    """One construction step: prefix every stage word block, then append powers.

    Given the ordered stage ``w_1, ..., w_k``, returns the words
    ``w_1 w_2 ... w_k  w_i^l`` for every ``i`` and every integer ``l`` with
    ``n_reps <= l < n_reps + n_reps**(eps/2)``, in (i, l) order.
    """
    if not stage:
        raise ValueError("stage is empty")
    if n_reps < 1:
        raise ValueError("repetition count must be >= 1")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    count = math.ceil(n_reps + n_reps ** (0.5 * eps)) - n_reps
    count = max(count, 1)
    prefix = "".join(stage)
    return [prefix + w * l for w in stage for l in range(n_reps, n_reps + count)]


# ---------------------------------------------------------------------------
# Run statistics


@dataclass(frozen=True)
class RunStats:
    """Observed per-letter maximal runs and the minimal all-letter window."""

    max_run: dict[Letter, int]
    window: float  # minimal L with every length-L window containing all letters; inf if none


def run_stats(
    spec: SubshiftSpec, sample_len: int, alphabet: Sequence[Letter] | None = None
) -> RunStats:
    """Scan a sample for maximal letter runs and the covering window length.

    ``alphabet`` defaults to the letters observed in the sample; pass the
    intended alphabet to detect letters that never occur (window becomes inf).
    """
    if sample_len < 1:
        raise ValueError("sample_len must be >= 1")
    s = sample_word(spec, sample_len)
    letters = tuple(alphabet) if alphabet is not None else tuple(dict.fromkeys(s))
    max_run: dict[Letter, int] = {ch: 0 for ch in letters}
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        if s[i] in max_run:
            max_run[s[i]] = max(max_run[s[i]], j - i)
        i = j
    window = 1
    for ch in letters:
        positions = [k for k, c in enumerate(s) if c == ch]
        if not positions:
            return RunStats(max_run, math.inf)
        gaps = [positions[0], len(s) - 1 - positions[-1]]
        gaps += [b - a - 1 for a, b in zip(positions, positions[1:])]
        window = max(window, max(gaps) + 1)
    return RunStats(max_run, window)


# ---------------------------------------------------------------------------
# Return-word towers


@dataclass(frozen=True)
class ReturnEntry:
    """One return word: a marker run of length ``run`` followed by ``core``."""

    run: int
    core: Word

    @property
    def length(self) -> int:
        return self.run + len(self.core)


@dataclass
class ReturnLevel:
    """All level-``index`` return words of the sample, in visit order."""

    index: int
    entries: list[ReturnEntry]
    group_arity: int | None  # blocks of the previous level per entry; None at level 0

    @property
    def alphabet(self) -> list[ReturnEntry]:
        """Distinct entries in first-occurrence order."""
        return list(dict.fromkeys(self.entries))

    @property
    def cores(self) -> list[Word]:
        return list(dict.fromkeys(e.core for e in self.entries))

    @property
    def runs(self) -> list[int]:
        return sorted({e.run for e in self.entries})

    @property
    def inf_l(self) -> int:
        return min(e.length for e in self.entries)

    @property
    def sup_l(self) -> int:
        return max(e.length for e in self.entries)


@dataclass
class ReturnStructure:
    """Marker-anchored return decomposition of a sample, by level.

    Level 0 splits the sample at the starts of maximal ``alpha0`` runs; each
    entry records the run length and the core word up to the next run start.
    Level n+1 groups exactly ``N_n`` consecutive level-n entries counted from
    the first visit, so every level-n block recurs after exactly ``N_n``
    level-(n-1) returns.
    """

    alpha0: Letter
    sample: Word
    first_start: int
    levels: list[ReturnLevel] = field(default_factory=list)

    def level(self, n: int) -> ReturnLevel:
        if not 0 <= n < len(self.levels):
            raise ValueError(f"level {n} not built (have 0..{len(self.levels) - 1})")
        return self.levels[n]


def _combine(alpha0: Letter, block: Sequence[ReturnEntry]) -> ReturnEntry:
    core = block[0].core + "".join(alpha0 * e.run + e.core for e in block[1:])
    return ReturnEntry(block[0].run, core)


def return_structure(
    spec: SubshiftSpec,
    alpha0: Letter,
    levels: int,
    n_seq: Sequence[int],
    sample_len: int,
    k_max: int = 64,
) -> ReturnStructure:
    """Build the level-0..``levels`` return decomposition of a sample.

    ``n_seq`` gives the grouping arity for each level step and must have at
    least ``levels`` entries.  Raises ``RunLengthError`` when a marker run
    exceeds ``k_max`` (the bounded-run hypothesis fails at this cap) and
    ``ValueError`` when the sample shows too few returns for the requested
    tower height.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if len(n_seq) < levels:
        raise ValueError(f"need {levels} grouping arities, got {len(n_seq)}")
    s = sample_word(spec, sample_len)
    if alpha0 not in s:
        raise ValueError(f"marker letter {alpha0!r} does not occur in the sample")

    # the origin counts as a run start when it carries the marker, so the
    # decomposition is anchored at the start of the observation
    starts = [
        p
        for p in range(len(s))
        if s[p] == alpha0 and (p == 0 or s[p - 1] != alpha0)
    ]
    if len(starts) < 2:
        raise ValueError("sample too short: fewer than two marker-run starts")

    entries: list[ReturnEntry] = []
    for p, q in zip(starts, starts[1:]):
        run = 1
        while p + run < len(s) and s[p + run] == alpha0:
            run += 1
        if run > k_max:
            raise RunLengthError(
                f"{alpha0!r}-run of length {run} at {p} exceeds cap {k_max}; "
                "bounded-run hypothesis violated"
            )
        entries.append(ReturnEntry(run, s[p + run : q]))

    needed = 4
    for n in n_seq[:levels]:
        needed *= n
    if len(entries) < needed:
        raise ValueError(
            f"sample shows {len(entries)} level-0 returns; "
            f"need >= {needed} for {levels} level(s) with arities {list(n_seq[:levels])}"
        )

    structure = ReturnStructure(alpha0, s, starts[0])
    structure.levels.append(ReturnLevel(0, entries, None))
    for lvl in range(1, levels + 1):
        arity = int(n_seq[lvl - 1])
        if arity < 1:
            raise ValueError("grouping arity must be >= 1")
        prev = structure.levels[-1].entries
        grouped = [
            _combine(alpha0, prev[i : i + arity])
            for i in range(0, len(prev) - arity + 1, arity)
        ]
        if not grouped:
            raise ValueError(f"not enough level-{lvl - 1} entries to group by {arity}")
        structure.levels.append(ReturnLevel(lvl, grouped, arity))
    return structure


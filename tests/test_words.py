import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subshift_spectra import (
    AdzStages,
    Alphabet,
    FIBONACCI,
    Periodic,
    Potential,
    Sample,
    Substitution,
    adz_next_stage,
    complexity,
    head_tail_cores,
    return_structure,
    run_stats,
    sample_word,
)
from subshift_spectra.words import (
    ReturnEntry,
    RunLengthError,
    StructureError,
    _combine,
    bracelet_representatives,
    factor_set,
)

from conftest import fibonacci_word


# -- generators --------------------------------------------------------------


def test_sample_word_examples():
    assert sample_word(Periodic("ab"), 5) == "ababa"
    assert sample_word(FIBONACCI, 8) == "abaababa"
    assert sample_word(Sample("aab"), 2) == "aa"
    assert sample_word(Periodic("ab"), 0) == ""


def test_sample_word_matches_independent_fibonacci():
    assert sample_word(FIBONACCI, 500) == fibonacci_word(500)


def test_sample_word_errors():
    with pytest.raises(ValueError):
        sample_word(Sample("aab"), 7)
    with pytest.raises(ValueError):
        sample_word(Substitution({"a": "b", "b": "a"}, "a"), 5)  # no growth
    with pytest.raises(ValueError):
        sample_word(Periodic("ab"), -1)


def test_adz_stage_sampling():
    spec = AdzStages((("a", "b"), ("aba", "abb")))
    assert sample_word(spec, 8) == "abaabbab"
    with pytest.raises(ValueError):
        AdzStages((("a",), ()))


def test_alphabet_and_potential_validation():
    with pytest.raises(ValueError):
        Alphabet(("a",))
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    assert len(Alphabet.of_size(3)) == 3
    with pytest.raises(ValueError):
        Potential({"a": 1.0, "b": 1.0})
    assert Potential({"a": 0.0, "b": 4.0, "c": 9.0}).sparseness == 4.0
    assert Potential({"a": 2.0}).sparseness == math.inf
    assert Potential({"a": 0.0, "b": 1.0}).scale(7.0).value("b") == 7.0


# -- complexity --------------------------------------------------------------


def test_complexity_full_shift_corpus():
    corpus = "".join(a + b + c for a in "ab" for b in "ab" for c in "ab")
    assert complexity(Periodic(corpus), 3, 200) == 8


def test_complexity_periodic():
    # enumeration oracle: distinct cyclic rotations
    word = "aab"
    rotations = {word[i:] + word[:i] for i in range(len(word))}
    assert complexity(Periodic(word), 5, 100) == len(rotations) == 3


def test_complexity_fibonacci():
    assert complexity(FIBONACCI, 4, 200) == 5
    # brute-force enumeration oracle on an independent sample
    w = fibonacci_word(500)
    assert len({w[i : i + 4] for i in range(len(w) - 3)}) == 5


def test_complexity_periodic_saturates_at_period():
    # "a"*(q-1) + "b" has minimal period q, so p(n) = q exactly for n >= q
    for q in (2, 3, 5, 8, 13, 16):
        spec = Periodic("a" * (q - 1) + "b")
        for n in (q, q + 1, 2 * q, 64):
            assert complexity(spec, n, max(4 * n, 6 * q)) == q


def test_complexity_monotonicity_and_branching():
    for spec, k in ((FIBONACCI, 2), (Periodic("aabab"), 2)):
        prev = None
        for n in range(1, 12):
            p = complexity(spec, n, 4096)
            assert p >= 1
            if prev is not None:
                assert p >= prev  # nondecreasing on a long enough sample
                assert p <= k * prev
            prev = p


def test_complexity_preconditions():
    with pytest.raises(ValueError):
        complexity(FIBONACCI, 10, 5)  # n > sample
    with pytest.raises(ValueError):
        complexity(FIBONACCI, 10, 30)  # sample < 4n
    assert factor_set(Periodic("ab"), 2, 20) == ["ab", "ba"]


# -- rotation/reversal classes -------------------------------------------------

_PROPS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def bracelet_key(w: str) -> str:
    """Class label: the least rotation of ``w`` or of its reversal."""
    return min(min(u[i:] + u[:i] for i in range(len(u))) for u in (w, w[::-1]))


@st.composite
def _class_words(draw):
    """Words over {a, b, c} of length 1-16, most of them a rotation or the
    reversal of a rotation of a few base words, so that classes repeat."""
    bases = draw(st.lists(st.text("abc", min_size=1, max_size=16), min_size=1, max_size=4))
    variants = st.tuples(st.sampled_from(bases), st.integers(0, 15), st.booleans())
    words = []
    for base, shift, flip in draw(st.lists(variants, max_size=24)):
        k = shift % len(base)
        w = base[k:] + base[:k]
        words.append(w[::-1] if flip else w)
    return words


def test_bracelet_representatives_examples():
    assert bracelet_representatives(["ab", "ba", "aab", "aba", "baa", "abb"]) == ["ab", "aab", "abb"]
    # aababb and aabbab are reversals up to rotation, not rotations of each other
    assert bracelet_representatives(["aabbab", "aababb"]) == ["aabbab"]
    assert bracelet_representatives(["acb", "abc", "a", "aa"]) == ["acb", "a", "aa"]
    assert bracelet_representatives([]) == []


@_PROPS
@given(_class_words())
@example(["ab", "ba", "ab"])
def test_bracelet_representatives_one_first_word_per_class(words):
    reps = bracelet_representatives(words)
    assert all(r in words for r in reps)
    keys = [bracelet_key(r) for r in reps]
    assert len(set(keys)) == len(keys)
    first = {}
    for w in words:
        first.setdefault(bracelet_key(w), w)
    assert reps == list(first.values())  # the first word of each class, in order
    assert set(keys) == {bracelet_key(w) for w in words}
    assert bracelet_representatives(reps) == reps


# -- staged construction rule ------------------------------------------------


def test_adz_next_stage_examples():
    out = adz_next_stage(["a", "b"], 4, 1.0)
    assert out == ["abaaaa", "abaaaaa", "abbbbb", "abbbbbb"]
    assert len(out) == 4  # 4^(1/2) * 2
    assert adz_next_stage(["ab"], 1, 0.5) == ["abab"]
    assert len(adz_next_stage(["a", "b", "c"], 9, 1.0)) == 3 * 3


def test_adz_next_stage_shared_prefix():
    stage = ["aba", "abb"]
    prefix = "abaabb"
    for w in adz_next_stage(stage, 7, 0.5):
        assert w.startswith(prefix)


def test_adz_next_stage_errors():
    with pytest.raises(ValueError):
        adz_next_stage([], 4, 0.5)
    with pytest.raises(ValueError):
        adz_next_stage(["a"], 0, 0.5)
    with pytest.raises(ValueError):
        adz_next_stage(["a"], 4, 1.5)


# -- run statistics ----------------------------------------------------------


def test_run_stats_examples():
    st = run_stats(Periodic("aab"), 300)
    assert st.max_run == {"a": 2, "b": 1}
    assert st.window == 3

    st = run_stats(Sample("aaaa"), 4, alphabet=("a", "b"))
    assert st.window == math.inf

    st = run_stats(FIBONACCI, 1000)
    assert st.max_run == {"a": 2, "b": 1}


# -- return structures -------------------------------------------------------


def test_return_structure_level0():
    rs = return_structure(Periodic("aabab"), "a", 0, [], 120)
    lv = rs.level(0)
    assert [(e.run, e.core) for e in lv.alphabet] == [(2, "b"), (1, "b")]
    assert lv.inf_l == 2 and lv.sup_l == 3

    rs2 = return_structure(Periodic("ab"), "a", 0, [], 60)
    assert [(e.run, e.core) for e in rs2.level(0).alphabet] == [(1, "b")]
    assert rs2.level(0).inf_l == 2 and rs2.level(0).sup_l == 2


def test_return_structure_level1_grouping():
    rs = return_structure(Periodic("aabab"), "a", 1, [2], 200)
    lv1 = rs.level(1)
    assert [(e.run, e.core) for e in lv1.alphabet] == [(2, "bab")]
    assert lv1.inf_l == 5 and lv1.sup_l == 5

    rs2 = return_structure(Periodic("ab"), "a", 1, [2], 80)
    assert [(e.run, e.core) for e in rs2.level(1).alphabet] == [(1, "bab")]
    assert rs2.level(1).inf_l == 4


def test_return_structure_lossless_decomposition():
    for spec in (Periodic("aabab"), FIBONACCI, Periodic("ab")):
        rs = return_structure(spec, "a", 0, [], 400)
        rebuilt = "".join("a" * e.run + e.core for e in rs.level(0).entries)
        assert rebuilt == rs.sample[rs.first_start : rs.first_start + len(rebuilt)]


def test_return_structure_errors():
    with pytest.raises(RunLengthError):
        return_structure(Periodic("a" * 70 + "b"), "a", 0, [], 300)
    with pytest.raises(ValueError):
        return_structure(Periodic("bbb" + "a"), "c", 0, [], 100)
    with pytest.raises(ValueError):  # too few returns for the tower height
        return_structure(Periodic("ab"), "a", 1, [40], 100)


def test_head_tail_cores():
    rs = return_structure(Periodic("aabab"), "a", 1, [2], 200)
    entry = rs.level(1).alphabet[0]
    assert head_tail_cores(rs, 1, entry, 0) == ("b", "b")
    assert head_tail_cores(rs, 1, "bab", 0) == ("b", "b")

    rs2 = return_structure(Periodic("ab"), "a", 1, [2], 80)
    assert head_tail_cores(rs2, 1, "bab", 0) == ("b", "b")

    with pytest.raises(ValueError):
        head_tail_cores(rs, 1, entry, 1)  # m = level is forbidden
    with pytest.raises(StructureError):
        head_tail_cores(rs, 1, "zzz", 0)


def test_head_tail_cores_prefix_suffix_property():
    rs = return_structure(FIBONACCI, "a", 2, [3, 2], 800)
    for level in (1, 2):
        for entry in rs.level(level).alphabet:
            for m in range(level):
                head, tail = head_tail_cores(rs, level, entry, m)
                assert entry.core.startswith(head)
                assert entry.core.endswith(tail)


def test_return_entry_length():
    assert ReturnEntry(2, "bab").length == 5


@st.composite
def _marker_samples(draw):
    """(sample, arities) whose a-runs leave enough returns for the tower."""
    arities = draw(st.lists(st.integers(1, 3), max_size=2))
    needed = 4 * math.prod(arities) + 1
    blocks = draw(
        st.lists(
            st.tuples(st.integers(1, 3), st.text("bc", min_size=1, max_size=3)),
            min_size=needed,
            max_size=needed + 12,
        )
    )
    head = draw(st.text("bc", max_size=3))
    return head + "".join("a" * run + core for run, core in blocks), arities


@_PROPS
@given(_marker_samples())
def test_return_structure_levels_rebuild_the_sample(case):
    sample, arities = case
    rs = return_structure(Sample(sample), "a", len(arities), arities, len(sample))
    assert len(rs.levels) == len(arities) + 1
    for lv in rs.levels:
        rebuilt = "".join(rs.entry_word(e) for e in lv.entries)
        assert rebuilt == sample[rs.first_start : rs.first_start + len(rebuilt)]
    for prev, lv in zip(rs.levels, rs.levels[1:]):
        n = lv.group_arity
        assert len(lv.entries) == len(prev.entries) // n
        for i, e in enumerate(lv.entries):
            assert e == _combine("a", prev.entries[i * n : (i + 1) * n])

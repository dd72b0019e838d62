import numpy as np
import pytest

from subshift_spectra import Potential


@pytest.fixture
def pot04() -> Potential:
    return Potential({"a": 0.0, "b": 4.0})


@pytest.fixture
def pot_free() -> Potential:
    return Potential({"a": 0.0})


def fibonacci_word(length: int) -> str:
    """Independent Fibonacci-word construction by string rewriting."""
    w = "a"
    while len(w) < length:
        w = w.replace("a", "A").replace("b", "a").replace("A", "ab")
    return w[:length]


def de_bruijn(order: int) -> str:
    """Binary de Bruijn sequence over {a, b} containing every order-word once."""
    alphabet = "ab"
    a = [0] * (2 * order)
    seq: list[int] = []

    def db(t: int, p: int) -> None:
        if t > order:
            if order % p == 0:
                seq.extend(a[1 : p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, 2):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    return "".join(alphabet[i] for i in seq)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def sequential_merge(pairs, merge_tol: float = 1e-12) -> tuple:
    """Reference canonical form: the pair-by-pair sweep ``IntervalSet.from_pairs``
    ran before it became one array sweep (sort, validate, then extend or open
    an interval per pair)."""
    items = sorted((float(lo), float(hi)) for lo, hi in pairs)
    for lo, hi in items:
        if not lo <= hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
    merged: list[list[float]] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1] + merge_tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def endpoint_reprs(intervals) -> list[str]:
    """repr of every endpoint: tells -0.0 from 0.0, which ``==`` does not."""
    return [repr(x) for pair in intervals for x in pair]

"""SL(2,R) transfer-matrix kernel.

Transfer matrices and their ordered cocycle products (one vectorized
two-row recurrence over an energy grid), the projective angle
metric, the rotation-dilation-rotation (2x2 SVD) split of a hyperbolic
matrix, the closed-form peak angle of diagonally sandwiched products,
and the cone certificate for far-from-resonance energies.

Conventions: R_t is the counterclockwise rotation by t; a hyperbolic
A in SL(2,R) splits as

    A = R_u . diag(lam, 1/lam) . R_(pi/2 - s),    lam = ||A|| > 1,

so ``u`` is the direction of the image of the most-expanded input and ``s``
is the most-contracted input direction, each meaningful modulo pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterable

import numpy as np

from .words import Potential, Word

PI = math.pi

#: operational boundary between "rotation-like" and hyperbolic matrices
HYPER_TOL = 1e-9


class EllipticError(ValueError):
    """Matrix is a rotation (norm <= 1 + HYPER_TOL); no hyperbolic split exists."""


class DegenerateAngleError(ValueError):
    """The norm-square derivative has no sin(2x) component; peak angle undefined."""


# ---------------------------------------------------------------------------
# Matrices


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix, row-major [[a, b], [c, d]]."""

    a: float
    b: float
    c: float
    d: float

    IDENTITY: ClassVar["Mat2"]

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> float:
        return self.a + self.d

    @property
    def frob2(self) -> float:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    @property
    def norm(self) -> float:
        """Spectral norm, assuming det = 1 (exact closed form)."""
        t = self.frob2
        return 0.5 * (math.sqrt(t + 2.0) + math.sqrt(max(t - 2.0, 0.0)))

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    @classmethod
    def from_array(cls, m) -> "Mat2":
        return cls(float(m[0][0]), float(m[0][1]), float(m[1][0]), float(m[1][1]))

    @classmethod
    def rotation(cls, t: float) -> "Mat2":
        c, s = math.cos(t), math.sin(t)
        return cls(c, -s, s, c)

    @classmethod
    def diagonal(cls, lam: float) -> "Mat2":
        return cls(lam, 0.0, 0.0, 1.0 / lam)


Mat2.IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)


def transfer_matrix(energy: float, v: float) -> Mat2:
    """One-step transfer matrix [[E - v, -1], [1, 0]] of the difference equation."""
    return Mat2(energy - v, -1.0, 1.0, 0.0)


def cocycle_product(word: Word, energy: float, pot: Potential) -> Mat2:
    """Ordered product of transfer matrices along ``word``.

    The leftmost letter acts first, i.e. the product is
    ``T(w[-1]) @ ... @ T(w[0])``; the empty word gives the identity.
    """
    return Mat2.from_array(cocycle_stack(word, np.array([energy]), pot)[0])


def cocycle_rows(xs: Iterable[np.ndarray], shape) -> tuple[np.ndarray, ...]:
    """Entries (a, b, c, d) of the ordered product of [[x, -1], [1, 0]] over ``xs``.

    The package's one loop that multiplies transfer matrices: left-multiplying
    by [[x, -1], [1, 0]] is the two-row recurrence (a, b, c, d) -> (x a - c,
    x b - d, a, b), run on arrays of ``shape`` (x = E - v per letter).
    """
    a, b, c, d = np.ones(shape), np.zeros(shape), np.zeros(shape), np.ones(shape)
    for x in xs:
        a, b, c, d = x * a - c, x * b - d, a, b
    return a, b, c, d


def cocycle_stack(word: Word, energies: np.ndarray, pot: Potential) -> np.ndarray:
    """Ordered cocycle products over an energy grid; shape (len(E), 2, 2)."""
    e = np.asarray(energies, dtype=float)
    x = {ch: e - pot.value(ch) for ch in dict.fromkeys(word)}
    a, b, c, d = cocycle_rows((x[ch] for ch in word), e.size)
    return np.stack([a, b, c, d], axis=-1).reshape(e.size, 2, 2)


# ---------------------------------------------------------------------------
# Projective angles


def proj_angle(x) -> float:
    """Projective direction in [0, pi) of an angle or a nonzero 2-vector."""
    if isinstance(x, (int, float)):
        t = float(x)
    else:
        vx, vy = float(x[0]), float(x[1])
        if vx == 0.0 and vy == 0.0:
            raise ValueError("zero vector has no direction")
        t = math.atan2(vy, vx)
    t = math.fmod(t, PI)
    return t + PI if t < 0.0 else t


def proj_dist(x, y) -> float:
    """Distance on the projective line: min(|a-b| mod pi, pi - (|a-b| mod pi)).

    Arguments may be angles or nonzero 2-vectors; the value lies in [0, pi/2].
    """
    m = math.fmod(abs(proj_angle(x) - proj_angle(y)), PI)
    return min(m, PI - m)


def _dist_mod_pi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``min(|a - b| % pi, pi - |a - b| % pi)``, bit for bit.

    ``m % pi`` is m on [0, pi) and m - pi, exact by Sterbenz, on [pi, 2 pi), so
    only other entries (NaN too) go through numpy's scalar-loop ``%``: with ``%``
    on all, a tower-bisect op took 25% longer (``BENCH_27.json``, ablations).
    """
    m = np.asarray(np.abs(np.subtract(a, b)))
    big = ~(m < 2 * PI)
    if big.any():
        m[big] %= PI
    np.subtract(m, PI, out=m, where=m >= PI)
    return np.minimum(m, PI - m)


# ---------------------------------------------------------------------------
# Rotation-dilation-rotation split


@dataclass(frozen=True)
class SvdAngles:
    """Angles (u, s) and top singular value of a hyperbolic SL(2,R) matrix.

    ``u`` lies in (-pi/2, pi/2] (the expanding image direction, sign-pinned
    so the left rotation's first column has nonnegative first coordinate,
    ties toward nonnegative second coordinate); ``s`` is the exact partner
    angle in (-pi, pi], so ``reconstruct()`` reproduces the source matrix
    itself, not its negative.  Both angles are meaningful modulo pi.
    """

    u: float
    s: float
    lam: float

    @property
    def log_lam(self) -> float:
        return math.log(self.lam)

    def reconstruct(self) -> Mat2:
        return (
            Mat2.rotation(self.u)
            @ Mat2.diagonal(self.lam)
            @ Mat2.rotation(PI / 2 - self.s)
        )


def svd_angles(m: Mat2, hyper_tol: float = HYPER_TOL) -> SvdAngles:
    """Split a hyperbolic matrix as R_u . diag(lam, 1/lam) . R_(pi/2 - s).

    Closed form from the symmetric products: ``u`` is the principal-axis
    angle of A A^T; the right rotation is then solved exactly from the
    well-conditioned top row of R_(-u) A, which keeps the reconstruction
    error at machine scale even near the rotation boundary.

    Raises ``EllipticError`` when the norm is <= 1 + hyper_tol, which is a
    rotation for this purpose rather than a numerical failure.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    lam = m.norm
    if lam <= 1.0 + hyper_tol:
        raise EllipticError(
            f"norm {lam!r} <= 1 + {hyper_tol}; rotation-like matrix has no split"
        )
    u = 0.5 * math.atan2(2.0 * (a * c + b * d), a * a + b * b - c * c - d * d)
    cu, su = math.cos(u), math.sin(u)
    # top row of R_(-u) A equals lam * (cos w, -sin w)
    w = math.atan2(-(cu * b + su * d), cu * a + su * c)
    s = PI / 2 - w
    if s > PI:
        s -= 2 * PI
    return SvdAngles(u, s, lam)


def svd_angles_stack(
    mats: np.ndarray, hyper_tol: float = HYPER_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized split over a (..., 2, 2) stack.

    Returns ``(u, s, log_lam, hyperbolic)``; angle entries of non-hyperbolic
    matrices are NaN.  Entries are rescaled before the quadratic forms, so
    every finite norm gives finite results.  The det = 1 term 2 / scale^2
    squares the scale capped at 2^511: above it t >= 1 and t +- 2 / scale^2
    rounds to t either way, so the cap changes no bit and cannot overflow.
    """
    a = mats[..., 0, 0]
    b = mats[..., 0, 1]
    c = mats[..., 1, 0]
    d = mats[..., 1, 1]
    scale = np.maximum.reduce([np.abs(a), np.abs(b), np.abs(c), np.abs(d)])
    scale = np.where(scale == 0.0, 1.0, scale)
    an, bn, cn, dn = a / scale, b / scale, c / scale, d / scale
    t = an * an + bn * bn + cn * cn + dn * dn
    capped = np.minimum(scale, 2.0**511)
    inv2 = 2.0 / (capped * capped)  # 2 / scale^2, exact det = 1 assumed
    root = 0.5 * (np.sqrt(t + inv2) + np.sqrt(np.maximum(t - inv2, 0.0)))
    log_lam = np.log(scale) + np.log(root)
    hyperbolic = log_lam > math.log1p(hyper_tol)

    u = 0.5 * np.arctan2(2.0 * (an * cn + bn * dn), an * an + bn * bn - cn * cn - dn * dn)
    cu, su = np.cos(u), np.sin(u)
    w = np.arctan2(-(cu * bn + su * dn), cu * an + su * cn)
    s = PI / 2 - w
    s = np.where(s > PI, s - 2 * PI, s)
    u = np.where(hyperbolic, u, np.nan)
    s = np.where(hyperbolic, s, np.nan)
    return u, s, log_lam, hyperbolic


# ---------------------------------------------------------------------------
# Diagonally sandwiched products


@dataclass(frozen=True)
class PeakAngle:
    theta: float
    l1: float
    l2: float


def peak_angle(lam0: float, lam1: float, d: Mat2) -> PeakAngle:
    """Closed-form critical angle of x -> ||A (cos x, sin x)||^2 for
    A = diag(lam1, 1/lam1) . D . diag(lam0, 1/lam0).

    Returns theta = 0.5 * atan(-2 L1 / L2) with

        L1 = lam1^2 a b + lam1^-2 c d,
        L2 = -lam0^2 lam1^2 a^2 + lam0^-2 lam1^2 b^2
             - lam0^2 lam1^-2 c^2 + lam0^-2 lam1^-2 d^2.

    In the strongly hyperbolic regime theta agrees with s(A) - pi/2 mod pi;
    outside it the formula may land on the antipodal critical point, so no
    agreement is implied.  L2 = 0 raises ``DegenerateAngleError``.
    """
    if lam0 <= 1.0 or lam1 <= 1.0:
        raise ValueError("need lam0, lam1 > 1")
    a, b, c, d_ = d.a, d.b, d.c, d.d
    l1 = lam1**2 * a * b + lam1**-2 * c * d_
    l2 = (
        -(lam0**2) * lam1**2 * a * a
        + lam0**-2 * lam1**2 * b * b
        - lam0**2 * lam1**-2 * c * c
        + lam0**-2 * lam1**-2 * d_ * d_
    )
    if l2 == 0.0:
        raise DegenerateAngleError("L2 = 0: critical angle is degenerate")
    theta = 0.5 * math.atan(-2.0 * l1 / l2)
    return PeakAngle(theta, l1, l2)


# ---------------------------------------------------------------------------
# Cone certificate


def cone_certificate(
    energy: float,
    pot: Potential,
    exclude: str | None,
    cone_eps: float,
    gap: float,
) -> bool:
    """Certify strict invariance of the cone {|y| <= eps |x|} at this energy.

    True iff for every letter except ``exclude`` the gap |E - v| exceeds
    ``gap`` and the letter's transfer matrix maps both boundary rays
    (1, +-eps) strictly inside the cone with vector growth at least
    (2/3) |E - v|.  Checking the boundary rays is exact here: both the
    worst cone ratio and the worst growth over the cone are attained on a
    boundary ray for matrices of this shape.
    """
    if not 0.0 < cone_eps < 1.0:
        raise ValueError("cone_eps must lie in (0, 1)")
    for ch in pot.letters:
        if ch == exclude:
            continue
        eta = energy - pot.value(ch)
        if abs(eta) <= gap:
            return False
        for y in (cone_eps, -cone_eps):
            ix, iy = eta - y, 1.0  # image of ray (1, y)
            if ix == 0.0 or abs(iy) >= cone_eps * abs(ix):
                return False
            growth = math.hypot(ix, iy) / math.hypot(1.0, y)
            if growth < (2.0 / 3.0) * abs(eta):
                return False
    return True


# ---------------------------------------------------------------------------
# Deterministic sample streams for verification suites


def random_transfer_products(
    count: int,
    seed: int,
    norm_max: float = 1e6,
    value_range: tuple[float, float] = (2.0, 10.0),
    energy_range: tuple[float, float] = (-3.0, 3.0),
    max_len: int = 30,
) -> Iterable[Mat2]:
    """Deterministic stream of hyperbolic transfer-matrix products.

    Each product is grown letter by letter and truncated at the last prefix
    whose norm stays within ``norm_max``; rotation-like results are skipped.
    """
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < count:
        vb = rng.uniform(*value_range)
        energy = rng.uniform(*energy_range)
        pot = Potential({"a": 0.0, "b": vb})
        length = int(rng.integers(1, max_len + 1))
        word = "".join("ab"[int(k)] for k in rng.integers(0, 2, length))
        m = Mat2.IDENTITY
        for ch in word:
            nxt = transfer_matrix(energy, pot.value(ch)) @ m
            if nxt.norm > norm_max:
                break
            m = nxt
        if m.norm <= 1.0 + HYPER_TOL:
            continue
        produced += 1
        yield m

"""Finite-field laboratory: incidence modules for rank-3 projective spaces
and the principal-series orbit dimension check.

For a prime p, lines and planes of F_p^3 are enumerated as normalised
projective vectors (first nonzero coordinate 1); planes are identified with
lines of the dual space, so a line L lies in the plane with normal n exactly
when n . L = 0.  The maps

    tau  : F1 -> F2,  tau(f)(P)  = sum of f over lines inside P,
    tau' : F2 -> F1,  tau'(f)(L) = sum of f over planes through L,

act between the sum-zero function spaces F1, F2 (dimension p^2 + p each).
Ranks over F_p come from a blocked LU elimination whose bulk steps are
float64 matrix products on integers that a guard keeps below 2**53, so every
step is exact.

The principal-series check enumerates the free orbits of the rank-2 Weyl
group action on weights mod (p-1); each regular residue lifts uniquely into
coordinates 1..p-2, and the lifted dimensions over one orbit must sum to
(p+1)(p^2+p+1), the index of a Borel subgroup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .coxeter import generate
from .rootdata import CartanType, Weight, build_root_system, weyl_dim


class NotPrime(ValueError):
    """The modulus must be prime."""


class TooLarge(ValueError):
    """Prime exceeds the configured bound."""


# p = 61 (n = 3783) peaks near 0.75 GB; the dense n x n matrices grow as p^4
DEFAULT_PRIME_BOUND = 61


def _check_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise NotPrime(f"{p} is not prime")


@dataclass(eq=False)
class IncidenceSpace:
    """Lines, planes, and the 0/1 incidence matrix (rows planes, cols lines)."""

    p: int
    lines: tuple[tuple[int, int, int], ...]
    planes: tuple[tuple[int, int, int], ...]
    incidence: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.lines)


def _projective_points(p: int) -> list[tuple[int, int, int]]:
    pts = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    pts += [(0, 1, z) for z in range(1, p)]
    pts += [(1, 0, z) for z in range(1, p)]
    pts += [(1, y, 0) for y in range(1, p)]
    pts += [(1, y, z) for y in range(1, p) for z in range(1, p)]
    return sorted(pts)


def build_incidence(p: int, bound: int = DEFAULT_PRIME_BOUND) -> IncidenceSpace:
    """Enumerate the incidence geometry of F_p^3 and verify its regularity."""
    _check_prime(p)
    if p > bound:
        raise TooLarge(f"p = {p} exceeds bound {bound}")
    pts = _projective_points(p)
    n = p * p + p + 1
    if len(pts) != n:
        raise AssertionError("projective point count is off")
    lines = tuple(pts)
    planes = tuple(pts)  # dual space, same normal forms
    L = np.array(lines, dtype=np.int64)
    P = np.array(planes, dtype=np.int64)
    inc = ((P @ L.T) % p == 0).astype(np.int64)
    if not (inc.sum(axis=1) == p + 1).all() or not (inc.sum(axis=0) == p + 1).all():
        raise AssertionError("incidence regularity fails")
    return IncidenceSpace(p=p, lines=lines, planes=planes, incidence=inc)


# ---------------------------------------------------------------------------
# Linear algebra mod p
# ---------------------------------------------------------------------------

# Columns per elimination panel.  A trailing update is one GEMM whose inner
# dimension is at most this, which sets the exactness bound checked below.
_PANEL = 128
_EXACT = 2 ** 53  # float64 represents every integer of smaller magnitude


def _exactness_guard(bound: int, what: str) -> None:
    if bound >= _EXACT:
        raise AssertionError(f"{what} exactness guard tripped")


def _reduce(X: np.ndarray, p: int) -> None:
    """Replace the integer-valued float64 array X by X mod p, in place.

    The quotient floor(X / p) computed in floating point is off by at most one
    while |X| + p <= 2**53, so one correction on each side makes it exact.
    """
    q = X * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    X -= q
    np.add(X, p, out=X, where=X < 0)
    np.subtract(X, p, out=X, where=X >= p)


def rank_mod(M: np.ndarray, p: int) -> int:
    """Rank of the integer matrix M over F_p.

    Right-looking blocked LU with row pivoting.  Each panel of _PANEL columns
    is eliminated column by column with its multipliers stored in place; the
    panel's pivot rows then take one unit-lower triangular solve and the rows
    below them one GEMM update.  Entries are integers held in float64 and are
    reduced mod p before they are multiplied, so between reductions none
    exceeds _PANEL * (p-1)**2 in magnitude.  The guard keeps that plus the p
    of slack _reduce needs below 2**53, so every step is exact.
    """
    _exactness_guard(_PANEL * (p - 1) ** 2 + p, "rank_mod")
    A = (np.asarray(M) % p).astype(np.float64)
    rows, cols = A.shape
    r = 0
    for c0 in range(0, cols, _PANEL):
        c1 = min(c0 + _PANEL, cols)
        r0 = r
        pivots: list[int] = []
        for c in range(c0, c1):
            if r == rows:
                break
            col = A[r:, c]
            _reduce(col, p)
            nz = np.flatnonzero(col)
            if nz.size == 0:
                continue
            t = r + int(nz[0])
            if t != r:  # columns left of the panel are no longer read
                A[[r, t], c0:] = A[[t, r], c0:]
            _reduce(A[r, c + 1:c1], p)
            mult = A[r + 1:, c]
            mult *= pow(int(A[r, c]), -1, p)
            _reduce(mult, p)
            A[r + 1:, c + 1:c1] -= np.outer(mult, A[r, c + 1:c1])
            pivots.append(c)
            r += 1
        if r == rows or c1 == cols:
            break
        if r == r0:
            continue
        L = A[r0:r, pivots]  # multipliers below the diagonal
        U = A[r0:r, c1:]
        for i in range(1, r - r0):
            U[i] -= L[i, :i] @ U[:i]
            _reduce(U[i], p)
        trailing = A[r:, c1:]
        trailing -= A[r:, pivots] @ U
        _reduce(trailing, p)
    return r


def _composite_is_zero(A: np.ndarray, B: np.ndarray, p: int) -> bool:
    """Whether A @ B vanishes mod p, by one exact float64 GEMM."""
    _exactness_guard(A.shape[1] * (p - 1) ** 2 + p, "composition")
    prod = (A % p).astype(np.float64) @ (B % p).astype(np.float64)
    _reduce(prod, p)
    return not prod.any()


# ---------------------------------------------------------------------------
# The maps tau, tau'
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TauMaps:
    """Matrices of tau and tau' on the sum-zero subspaces.

    The basis of F1 is e_L - e_L0 over lines L != L0 (dually for F2), so the
    matrices have shape (n, n-1) with values in ambient function coordinates.
    """

    space: IncidenceSpace
    tau: np.ndarray
    tau_prime: np.ndarray

    @property
    def dim_f1(self) -> int:
        return self.space.n_points - 1

    @property
    def dim_f2(self) -> int:
        return self.space.n_points - 1


def tau_maps(space: IncidenceSpace) -> TauMaps:
    p = space.p
    inc = space.incidence
    # tau(e_L - e_L0) has plane values inc[:, L] - inc[:, L0]
    tau = (inc[:, 1:] - inc[:, :1]) % p
    tau_prime = (inc.T[:, 1:] - inc.T[:, :1]) % p
    return TauMaps(space=space, tau=tau, tau_prime=tau_prime)


@dataclass(frozen=True)
class KernelReport:
    p: int
    dim_f1: int
    dim_ker_tau: int
    dim_ker_tau_prime: int
    ker_tau_eq_im_tau_prime: bool
    ker_tau_prime_eq_im_tau: bool


def kernel_analysis(maps: TauMaps) -> KernelReport:
    """Kernel dimensions of tau, tau' and the kernel/image subspace identities.

    Lines and planes share normal forms, so the incidence matrix is symmetric
    and tau, tau' are the same matrix: one rank serves both.  The columns of
    tau' are sum-zero functions, so dropping their entry at index 0 gives
    their F1-basis coordinates and tau @ tau_prime[1:] is tau o tau'.  It
    vanishes iff im tau' lies in ker tau, and equal dimensions then make the
    two equal.  By the symmetry, tau' o tau is the same product, so the same
    two facts decide ker tau' = im tau.
    """
    p = maps.space.p
    if not np.array_equal(maps.tau, maps.tau_prime):
        raise AssertionError("tau and tau' differ: the incidence is not symmetric")
    rank = rank_mod(maps.tau, p)
    composite_zero = _composite_is_zero(maps.tau, maps.tau_prime[1:], p)
    return KernelReport(
        p=p,
        dim_f1=maps.dim_f1,
        dim_ker_tau=maps.dim_f1 - rank,
        dim_ker_tau_prime=maps.dim_f2 - rank,
        ker_tau_eq_im_tau_prime=composite_zero and rank == maps.dim_f1 - rank,
        ker_tau_prime_eq_im_tau=composite_zero and rank == maps.dim_f2 - rank,
    )


def equivariance_spot_check(space: IncidenceSpace, samples: int = 20) -> bool:
    """inc[gP, gL] == inc[P, L] for a deterministic sample of g in GL_3(F_p)."""
    p = space.p
    rng = random.Random(10007 * p)
    lines = np.array(space.lines, dtype=np.int64)
    planes = np.array(space.planes, dtype=np.int64)
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    # normalised vector (x, y, z) -> position in space.lines, keyed x p^2 + y p + z
    line_index = np.zeros(p ** 3, dtype=np.int64)
    line_index[lines @ (p * p, p, 1)] = np.arange(len(lines))

    def image(m, pts):
        """Positions in space.lines of the normalised images m v of pts."""
        v = (pts @ np.array(m, dtype=np.int64).T) % p
        lead = v[np.arange(len(v)), (v != 0).argmax(axis=1)]
        if not lead.all():
            raise AssertionError("zero vector")
        v = (v * inverse[lead][:, None]) % p
        return line_index[v @ (p * p, p, 1)]

    done = 0
    while done < samples:
        m = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        ) % p
        if det == 0:
            continue
        done += 1
        # inverse transpose via adjugate
        adj = [
            [
                ((m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
                  - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]))
                % p
                for j in range(3)
            ]
            for i in range(3)
        ]
        dinv = pow(det, -1, p)
        minvt = [[(adj[j][i] * dinv) % p for j in range(3)] for i in range(3)]
        moved = space.incidence[np.ix_(image(minvt, planes), image(m, lines))]
        if not np.array_equal(moved, space.incidence):
            return False
    return True


# ---------------------------------------------------------------------------
# Principal series orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitResult:
    rep: tuple[int, int]
    members: tuple[tuple[int, int], ...]
    lifts: tuple[tuple[int, int], ...]
    dims: tuple[int, ...]
    total: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.total == self.expected


@dataclass(frozen=True)
class PrincipalSeriesReport:
    p: int
    orbits: tuple[OrbitResult, ...]

    @property
    def all_ok(self) -> bool:
        return all(o.ok for o in self.orbits)


def principal_series_check(p: int) -> PrincipalSeriesReport:
    """Free-orbit dimension sums for the rank-2 symmetric Weyl group at p.

    Stabilisers are computed honestly (an orbit is free iff it has |W|
    elements); freeness forces every coordinate nonzero mod p-1, which makes
    the lift into 1..p-2 unique.
    """
    _check_prime(p)
    if p < 5:
        raise ValueError("principal-series check needs p >= 5")
    ct = CartanType.parse("A2")
    g = generate(ct)
    rs = build_root_system(ct)
    q = p - 1
    expected = (p + 1) * (p * p + p + 1)

    def act(w, zeta):
        img = g.act_on_weight(w, Weight(zeta))
        return (img.coords[0] % q, img.coords[1] % q)

    seen: set[tuple[int, int]] = set()
    orbits: list[OrbitResult] = []
    for a in range(q):
        for b in range(q):
            zeta = (a, b)
            if zeta in seen:
                continue
            orbit = sorted({act(w, zeta) for w in g.elements})
            seen.update(orbit)
            if len(orbit) != g.size:
                continue  # nontrivial stabiliser
            lifts = []
            dims = []
            for z in orbit:
                if z[0] == 0 or z[1] == 0:
                    raise AssertionError("free orbit contains a zero coordinate")
                lift = ((z[0] - 1) % q + 1, (z[1] - 1) % q + 1)
                lifts.append(lift)
                dims.append(weyl_dim(rs, Weight(lift)))
            orbits.append(OrbitResult(
                rep=orbit[0],
                members=tuple(orbit),
                lifts=tuple(lifts),
                dims=tuple(dims),
                total=sum(dims),
                expected=expected,
            ))
    return PrincipalSeriesReport(p=p, orbits=tuple(orbits))

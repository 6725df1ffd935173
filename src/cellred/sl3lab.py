"""Finite-field laboratory: incidence modules for rank-3 projective spaces
and the principal-series orbit dimension check.

For a prime p, lines and planes of F_p^3 are enumerated as normalised
projective vectors (first nonzero coordinate 1); planes are identified with
lines of the dual space, so a line L lies in the plane with normal n exactly
when n . L = 0.  The maps

    tau  : F1 -> F2,  tau(f)(P)  = sum of f over lines inside P,
    tau' : F2 -> F1,  tau'(f)(L) = sum of f over planes through L,

act between the sum-zero function spaces F1, F2 (dimension p^2 + p each).

Ranks and the composite tau o tau' come from Singer coordinates (Singer,
Trans. AMS 43, 1938), with no elimination.  For a primitive cubic f over
F_p, the powers x^i (i < n = p^2 + p + 1) of x in F_p[x]/(f) run once over
the projective points, and the planes are the translates j + D of the
perfect difference set D = {i : x^i has coordinate 0 equal to 0}.  In that
order the incidence is the circulant of a(x) = sum of x^d over d in D, so
(MacWilliams and Mann, Information and Control 12, 1968)

    rank tau = n - deg gcd((x - 1) a(x), x^n - 1)  over F_p,

and tau o tau' vanishes iff (x - 1) a(x) a(1/x) = 0 in F_p[x]/(x^n - 1).
``kernel_analysis`` rebuilds tau from the labelling and requires it to equal
the matrix it was given, so both facts are about that matrix.  The dense
``rank_mod`` (a blocked LU whose bulk steps are float64 products on integers
kept below 2**53) and ``_composite_is_zero`` stay as the references the tests
compare against.

The principal-series check enumerates the free orbits of the rank-2 Weyl
group action on weights mod (p-1); each regular residue lifts uniquely into
coordinates 1..p-2, and the lifted dimensions over one orbit must sum to
(p+1)(p^2+p+1), the index of a Borel subgroup.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .coxeter import generate
from .rootdata import CartanType, Weight, build_root_system, weyl_dim


class NotPrime(ValueError):
    """The modulus must be prime."""


class TooLarge(ValueError):
    """Prime exceeds the configured bound."""


# The dense n x n int64 incidence, tau and tau' (0.11 GB each at p = 61,
# n = 3783) grow as p^4; p = 97 waits for a sparse incidence
DEFAULT_PRIME_BOUND = 61


def _check_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
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
    if p > bound:  # before the trial division, which is O(sqrt p)
        raise TooLarge(f"p = {p} exceeds bound {bound}")
    _check_prime(p)
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


def _trim(a: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(a)
    return a[:nz[-1] + 1] if nz.size else a[:0]


def _gcd_degree(a: np.ndarray, b: np.ndarray, p: int) -> int:
    """Degree of gcd(a, b) over F_p, for coefficient arrays (lowest degree
    first, values in [0, p)) not both zero.  Euclid in int64: every product
    is below p**2 and every value is reduced back into [0, p)."""
    a, b = _trim(a), _trim(b)
    while b.size:
        r = a.copy()
        top = b.size - 1
        monic = b * pow(int(b[top]), -1, p) % p
        for k in range(r.size - 1, top - 1, -1):
            c = int(r[k])
            if c:
                r[k - top:k + 1] = (r[k - top:k + 1] - c * monic) % p
        a, b = b, _trim(r[:top])
    return a.size - 1


def _group_ring_kernel(n: int, D: np.ndarray, p: int) -> tuple[int, bool]:
    """Rank of tau, and whether tau o tau' vanishes, for the circulant
    incidence C[j, i] = [i - j in D] on Z/n over F_p.

    tau maps the sum-zero functions, the ideal (x - 1) of F_p[x]/(x^n - 1),
    onto the ideal of (x - 1) a(x) (up to x -> 1/x, which keeps dimensions),
    of dimension n - deg gcd((x - 1) a(x), x^n - 1).  C C^T is multiplication
    by a(x) a(1/x), the count of each difference in D - D.
    """
    a = np.bincount(D, minlength=n)
    shifted = (np.roll(a, 1) - a) % p  # (x - 1) a(x) mod x^n - 1
    modulus = np.zeros(n + 1, dtype=np.int64)
    modulus[[0, n]] = (p - 1, 1)  # x^n - 1
    rank = n - _gcd_degree(modulus, shifted, p)
    diffs = np.bincount((D[:, None] - D[None, :]).ravel() % n, minlength=n)
    return rank, not ((np.roll(diffs, 1) - diffs) % p).any()


# ---------------------------------------------------------------------------
# Singer coordinates
# ---------------------------------------------------------------------------

def _prime_factors(m: int) -> list[int]:
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + [m] if m > 1 else out


def _cubic_pow(f: tuple[int, int, int], e: int, p: int) -> tuple[int, ...]:
    """x**e in F_p[x]/(x^3 + f2 x^2 + f1 x + f0), as coefficients on 1, x, x^2."""

    def mul(u, v):
        r = [0] * 5
        for i in range(3):
            for j in range(3):
                r[i + j] += u[i] * v[j]
        for k in (4, 3):  # x^3 = -(f0 + f1 x + f2 x^2)
            c, r[k] = r[k], 0
            for i in range(3):
                r[k - 3 + i] -= c * f[i]
        return tuple(c % p for c in r[:3])

    out, base = (1, 0, 0), (0, 1, 0)
    while e:
        if e & 1:
            out = mul(out, base)
        base = mul(base, base)
        e >>= 1
    return out


def _primitive_cubic(p: int) -> tuple[int, int, int]:
    """(f0, f1, f2) of the first monic cubic over F_p whose root x generates
    F_{p^3}^*.  The norm -f0 of such an x generates F_p^*, which prunes
    almost every candidate before any power of x is taken."""
    order = p ** 3 - 1
    qs = _prime_factors(order)
    small = _prime_factors(p - 1)
    roots = [g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in small)]
    one = (1, 0, 0)
    for f2 in range(p):
        for f1 in range(p):
            for g in roots:
                f = ((-g) % p, f1, f2)
                if _cubic_pow(f, order, p) == one and all(
                    _cubic_pow(f, order // q, p) != one for q in qs
                ):
                    return f
    raise AssertionError(f"no primitive cubic over F_{p}")


def _normal_keys(v: np.ndarray, p: int) -> np.ndarray:
    """Keys x p^2 + y p + z of the normal forms of the rows of v (in [0, p))."""
    lead = v[np.arange(len(v)), (v != 0).argmax(axis=1)]
    if not lead.all():
        raise AssertionError("zero vector")
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    return ((v * inverse[lead][:, None]) % p) @ (p * p, p, 1)


def _is_permutation(a: np.ndarray) -> bool:
    return np.array_equal(np.sort(a), np.arange(a.size))


def _singer_labelling(space: IncidenceSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, pi, sigma): line pi[i] is the point x^i and plane sigma[j] is the
    plane through the points j + D, indices taken mod n.

    Refuses a space whose lines and planes are not the normal-form points of
    PG(2, p), before anything of size p^3 is built.
    """
    p = space.p
    n = p * p + p + 1
    if len(space.lines) != n:
        raise AssertionError(f"{len(space.lines)} lines, but PG(2, {p}) has {n} points")
    if space.lines != tuple(_projective_points(p)):
        raise AssertionError(f"lines are not the normal-form points of PG(2, {p})")
    if space.planes != space.lines:
        raise AssertionError("planes are not the normal forms of the lines")
    f0, f1, f2 = _primitive_cubic(p)
    powers = []
    c = (1, 0, 0)
    for _ in range(n):
        powers.append(c)
        c = ((-f0 * c[2]) % p, (c[0] - f1 * c[2]) % p, (c[1] - f2 * c[2]) % p)
    powers = np.array(powers, dtype=np.int64)
    keys = np.array(space.lines, dtype=np.int64) @ (p * p, p, 1)  # ascending
    pi = np.searchsorted(keys, _normal_keys(powers, p))
    D = np.flatnonzero(powers[:, 0] == 0)
    if D.size != p + 1:
        raise AssertionError(f"difference set has {D.size} elements, not {p + 1}")
    j = np.arange(n)
    normals = np.cross(powers[(j + D[0]) % n], powers[(j + D[1]) % n]) % p
    sigma = np.searchsorted(keys, _normal_keys(normals, p))
    if not (_is_permutation(pi) and _is_permutation(sigma)):
        raise AssertionError("Singer labelling is not a bijection")
    return D, pi, sigma


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

    Both the rank and the composite come from Singer coordinates.  The
    incidence C they describe is rebuilt and must be symmetric, with
    (C[:, 1:] - C[:, :1]) % p equal to maps.tau; then tau o tau' is C C^T on
    the sum-zero functions, a group-ring product.
    """
    p = maps.space.p
    if not np.array_equal(maps.tau, maps.tau_prime):
        raise AssertionError("tau and tau' differ: the incidence is not symmetric")
    D, pi, sigma = _singer_labelling(maps.space)
    n = pi.size
    planes = np.repeat(sigma, D.size)
    lines = pi[(np.arange(n)[:, None] + D) % n].ravel()
    # signed and wide enough for residues mod p: one byte an entry for p < 128
    C = np.zeros((n, n), dtype=np.min_scalar_type(-p))
    C[planes, lines] = 1
    # C has n (p + 1) ones, so ones on the transposed pairs make it symmetric
    if not C[lines, planes].all():
        raise AssertionError("the Singer incidence is not symmetric")
    if not np.array_equal((C[:, 1:] - C[:, :1]) % p, maps.tau):
        raise AssertionError("tau is not the incidence of PG(2, p) in Singer order")
    rank, composite_zero = _group_ring_kernel(n, D, p)
    return KernelReport(
        p=p,
        dim_f1=maps.dim_f1,
        dim_ker_tau=maps.dim_f1 - rank,
        dim_ker_tau_prime=maps.dim_f2 - rank,
        ker_tau_eq_im_tau_prime=composite_zero and rank == maps.dim_f1 - rank,
        ker_tau_prime_eq_im_tau=composite_zero and rank == maps.dim_f2 - rank,
    )


def equivariance_spot_check(space: IncidenceSpace, samples: int = 20) -> bool:
    """inc[gP, gL] == inc[P, L] for a deterministic sample of g in GL_3(F_p).

    Each g must permute the lines and the planes, so the moved matrix has as
    many ones as the incidence; it is then equal to the incidence iff it is 1
    on every incident pair, and only those n (p + 1) entries are read.
    """
    p = space.p
    rng = random.Random(10007 * p)
    lines = np.array(space.lines, dtype=np.int64)
    planes = np.array(space.planes, dtype=np.int64)
    # normalised vector (x, y, z) -> position in space.lines, keyed x p^2 + y p + z
    line_index = np.zeros(p ** 3, dtype=np.int64)
    line_index[lines @ (p * p, p, 1)] = np.arange(len(lines))
    incident_planes, incident_lines = np.nonzero(space.incidence)

    def image(m, pts):
        """Positions in space.lines of the normalised images m v of pts."""
        return line_index[_normal_keys((pts @ np.array(m, dtype=np.int64).T) % p, p)]

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
        ip, il = image(minvt, planes), image(m, lines)
        if not (_is_permutation(ip) and _is_permutation(il)):
            return False
        if not space.incidence[ip[incident_planes], il[incident_lines]].all():
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

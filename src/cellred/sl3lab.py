"""Finite-field laboratory: incidence modules for rank-3 projective spaces
and the principal-series orbit dimension check.

For a prime p, lines and planes of F_p^3 are enumerated as normalised
projective vectors (first nonzero coordinate 1); planes are identified with
lines of the dual space, so a line L lies in the plane with normal n exactly
when n . L = 0.  The maps

    tau  : F1 -> F2,  tau(f)(P)  = sum of f over lines inside P,
    tau' : F2 -> F1,  tau'(f)(L) = sum of f over planes through L,

act between the sum-zero function spaces F1, F2 (dimension p^2 + p each).

The incidence is held as its Singer labelling (Singer, Trans. AMS 43,
1938).  For a primitive cubic f over F_p, the powers x^i (i < n = p^2 + p +
1) of x in the Singer field F_p[x]/(f) run once over the projective points,
and x^n is the scalar lambda, the norm of x, which generates F_p^*.
Conversely, a cubic whose norm generates F_p^* is primitive iff x^n is the
first scalar power of x (a reducible f leaves fewer than n units modulo the
scalars; Lidl and Niederreiter, Finite Fields, ch. 3), so the walk that
tabulates the powers is the primitivity test.  The planes are the
translates j + D of the perfect difference set D = {i : x^i has coordinate
0 equal to 0}.  With line pi[i] the point x^i and plane sigma[j] the plane
through the points j + D, the incident (plane, line) pairs are (sigma[j],
pi[j + d]) for d in D, indices mod n.
``build_incidence`` certifies the labelling by the Singer cycle, in n
facts: C = ``powers[1:4].T``, multiplication by x, takes line pi[i] to
pi[i + 1], its cofactor matrix takes plane sigma[j] to sigma[j + 1], and
plane sigma[0] = {v : v_0 = 0} holds the points x^d, d in D, so every pair
is incident.  With D a set and pi, sigma bijections the n (p + 1) pairs are
distinct, as many as PG(2, p) has, so they are the whole incidence.

In that order the incidence is the circulant of a(x) = sum of x^d over d in
D, and tau maps onto the cyclic code of (x - 1) a(x) in F_p[x]/(x^n - 1).
n = 1 mod p, so x^n - 1 has n distinct roots, the powers of zeta = x^(p-1),
and the code's dimension is n less the number of its zeros (MacWilliams and
Sloane, The Theory of Error-Correcting Codes, ch. 8; MacWilliams and Mann,
Information and Control 12, 1968):

    rank tau = n - #{k in Z/n : (zeta^k - 1) a(zeta^k) = 0}.

Each zeta^(kd) = lambda^q x^r, (p - 1)(kd mod n) = q n + r, is read off the
power table.  tau o tau' vanishes iff (x - 1) a(x) a(1/x) = 0 in
F_p[x]/(x^n - 1), a count over the differences D - D.  The dense
``tau_maps`` and ``rank_mod`` (Gaussian elimination in int64 under
``poly.check_magnitude``) are on no command path; the tests compare
against them.

GL_3(F_p) preserves the incidence: ``equivariance_spot_check`` proves it on
five generators g of the group by (cof(g) N) . (g L) = det(g) (N . L), det g
!= 0 mod p, with no pair moved.  The principal-series check finds the free
orbits of the rank-2 Weyl group on weights mod (p-1) as one array
computation; a free orbit's residues have every coordinate in 1..p-2, so
each is its own lift, and their Weyl dimensions over one orbit must sum to
(p+1)(p^2+p+1), the index of a Borel subgroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import poly
from .coxeter import generate
from .rootdata import CartanType, Weight, build_root_system


class NotPrime(ValueError):
    """The modulus must be prime."""


class TooLarge(ValueError):
    """Prime exceeds the configured bound."""


# Every stage holds O(n) = O(p^2) entries; the zero count, p + 1 steps over
# n/3 orbit representatives, grows as p^3: at p = 97 (n = 9507) a run takes
# about 0.06 s after import and 33 MB peak RSS (2-vCPU Intel Xeon)
DEFAULT_PRIME_BOUND = 97


def _check_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise NotPrime(f"{p} is not prime")


def check_p(p: int) -> None:
    """Refuse a ``p`` the lab cannot serve: TooLarge beyond the bound, else
    NotPrime.  The bound comes first, because trial division is O(sqrt p)."""
    if p > DEFAULT_PRIME_BOUND:
        raise TooLarge(f"p = {p} exceeds bound {DEFAULT_PRIME_BOUND}")
    _check_prime(p)


@dataclass(eq=False)
class IncidenceSpace:
    """PG(2, p) and its Singer field, with the incidence as its Singer
    labelling: line pi[i] is the point x^i and plane sigma[j] is the plane
    through the points j + D, indices mod n.  Lines and planes share the
    normal forms ``points``, where a vector v sits at ``_positions(v, p)``;
    ``powers[i]`` is x^i on the basis 1, x, x^2 and ``norm`` the scalar x^n."""

    p: int
    points: np.ndarray
    powers: np.ndarray
    norm: int
    D: np.ndarray
    pi: np.ndarray
    sigma: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.points)

    def incident_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Plane and line positions of the pairs (sigma[j], pi[j + d]), d in D."""
        n = self.n_points
        return (np.repeat(self.sigma, self.D.size),
                self.pi[(np.arange(n)[:, None] + self.D) % n].ravel())


def _projective_points(p: int) -> np.ndarray:
    """The normal forms (0, 0, 1), (0, 1, z) and (1, y, z), in the order of
    their keys 1, p + z and p^2 + p y + z, as an (n, 3) array; ``_positions``
    maps a vector to its row."""
    keys = np.concatenate(([1], np.arange(p, 2 * p), np.arange(p * p, 2 * p * p)))
    return np.stack((keys // (p * p), keys // p % p, keys % p), axis=1)


def build_incidence(p: int) -> IncidenceSpace:
    """The points of PG(2, p), its Singer field and its incidence, certified
    by the Singer cycle (see the module docstring)."""
    check_p(p)
    points = _projective_points(p)
    powers, norm = _singer_field(p)
    D, pi, sigma = _singer_labelling(p, powers)
    if not (D.size == p + 1 and np.bincount(D % len(points)).max() == 1
            and _is_permutation(pi) and _is_permutation(sigma)):
        raise AssertionError("incidence regularity fails")
    C = powers[1:4].T  # multiplication by x
    cof = np.cross(C[[1, 2, 0]], C[[2, 0, 1]])  # det(C) C^-T, on plane normals
    if not (pi[0] == sigma[0] == _positions(np.eye(1, 3, dtype=np.int64), p)[0]
            and not points[pi[D % len(points)], 0].any()
            and all(np.array_equal(_positions(points[at] @ m.T % p, p), np.roll(at, -1))
                    for at, m in ((pi, C), (sigma, cof)))):
        raise AssertionError("a Singer pair is not incident")
    return IncidenceSpace(p, points, powers, norm, D, pi, sigma)


# ---------------------------------------------------------------------------
# Linear algebra mod p
# ---------------------------------------------------------------------------

def rank_mod(M: np.ndarray, p: int) -> int:
    """Rank of the integer matrix M over F_p.

    Right-looking Gaussian elimination in int64 with row pivoting.  A column
    is reduced mod p when it is searched for a pivot, and the pivot row once
    it is chosen; the trailing block is left unreduced.  Each update adds
    at most (p-1)**2 to an entry, at most min(rows, cols) times, so one
    magnitude guard makes every step exact.
    """
    rows, cols = np.shape(M)
    poly.check_magnitude(min(rows, cols) * (p - 1) ** 2 + p, "rank_mod")
    A = np.asarray(M, dtype=np.int64) % p
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = A[r:, c]
        col %= p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        t = r + int(nz[0])
        if t != r:
            A[[r, t], c:] = A[[t, r], c:]
        top = A[r, c + 1:]
        top %= p
        mult = A[r + 1:, c] * pow(int(A[r, c]), -1, p) % p
        A[r + 1:, c + 1:] -= np.outer(mult, top)
        r += 1
    return r


def _group_ring_kernel(space: IncidenceSpace) -> tuple[int, bool]:
    """Rank of tau, and whether tau o tau' vanishes, for the circulant
    incidence C[j, i] = [i - j in D] on Z/n over F_p.

    tau maps the sum-zero functions, the ideal (x - 1) of F_p[x]/(x^n - 1),
    onto the ideal of (x - 1) a(x) (up to x -> 1/x, which keeps dimensions),
    whose dimension is n less its number of zeros zeta^k (see the module
    docstring).  a has coefficients in F_p, so a(zeta^(kp)) = a(zeta^k)^p:
    one k is evaluated per orbit {k, kp, kp^2} (p^3 = 1 mod n).  C C^T is
    multiplication by a(x) a(1/x), the count of each difference in D - D.
    """
    p, n, D = space.p, space.n_points, space.D
    k = np.arange(n)
    kp = k * p % n
    reps = k[(k <= kp) & (k <= kp * p % n)]  # least member of each orbit
    orbit_size = np.where(kp[reps] == reps, 1, 3)
    norm_powers = np.array([pow(space.norm, i, p) for i in range(p - 1)], dtype=np.int64)
    poly.check_magnitude(D.size * (p - 1) ** 2, "Singer zero count")
    a = np.zeros((reps.size, 3), dtype=np.int64)
    for d in D:  # zeta^(kd) = lambda^q x^r, one (n/3, 3) step per d
        q, r = np.divmod((p - 1) * (reps * d % n), n)
        a += norm_powers[q][:, None] * space.powers[r]
    zero = ~(a % p).any(axis=1)
    zero[0] = True  # zeta^0 - 1 = 0, and reps[0] = 0
    rank = n - int(orbit_size[zero].sum())
    diffs = np.bincount((D[:, None] - D[None, :]).ravel() % n, minlength=n)
    return rank, not ((np.roll(diffs, 1) - diffs) % p).any()


# ---------------------------------------------------------------------------
# Singer coordinates
# ---------------------------------------------------------------------------

def _positions(v: np.ndarray, p: int) -> np.ndarray:
    """Positions in ``_projective_points(p)`` of the normal forms of the rows
    of v (in [0, p)): (0, 0, 1) is 0, (0, 1, z) is 1 + z and (1, y, z) is
    1 + p + p y + z."""
    lead = v[np.arange(len(v)), (v != 0).argmax(axis=1)]
    if not lead.all():
        raise AssertionError("zero vector")
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    x, y, z = ((v * inverse[lead][:, None]) % p).T
    return np.where(x == 1, 1 + p + p * y + z, y * (1 + z))  # x = 0: y is 0 or 1


def _is_permutation(a: np.ndarray) -> bool:
    return np.array_equal(np.sort(a), np.arange(a.size))


def _unit_generators(p: int) -> list[int]:
    """The generators of F_p^*, ascending: the powers g0^k, gcd(k, p - 1) =
    1, of the least g0 whose powers first reach 1 at exponent p - 1."""
    for g0 in range(1, p):
        x, order = g0, 1
        while x != 1:
            x, order = x * g0 % p, order + 1
        if order == p - 1:
            return sorted(pow(g0, k, p) for k in range(1, p) if math.gcd(k, p - 1) == 1)
    raise AssertionError(f"F_{p}^* has no generator")


def _singer_field(p: int) -> tuple[np.ndarray, int]:
    """The Singer field F_p[x]/(f) of the first primitive cubic f: the power
    table x^i (i < n) on the basis 1, x, x^2, and the norm x^n.

    Candidates x^3 + f2 x^2 + f1 x + f0 come in the order f2, f1, then g =
    -f0 over the generators of F_p^*; each is walked from x^0 = 1 to its
    first scalar power x^i, i >= 1, and accepted iff i = n.  A reducible f
    has at most max((p-1)^2, p^2-1, p(p-1), p^2) < n units modulo the
    scalars, so i < n; an irreducible f has x^n = g, so i divides n, and x
    has order (p - 1) n = p^3 - 1 iff i = n.  Each walk takes at most n steps.
    """
    n = p * p + p + 1
    norms = _unit_generators(p)
    for f2 in range(p):
        for f1 in range(p):
            for g in norms:  # x^3 = g - f1 x - f2 x^2
                powers, c = [(1, 0, 0)], (0, 1, 0)
                while c[1] or c[2]:  # up to the first scalar power
                    powers.append(c)
                    c = (g * c[2] % p, (c[0] - f1 * c[2]) % p, (c[1] - f2 * c[2]) % p)
                if len(powers) == n:
                    return np.array(powers, dtype=np.int64), c[0]
    raise AssertionError(f"no primitive cubic over F_{p}")


def _singer_labelling(p: int, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, pi, sigma): line pi[i] is the point x^i and plane sigma[j] is the
    plane through the points j + D, indices taken mod n, as positions in
    ``_projective_points(p)``."""
    n = len(powers)
    pi = _positions(powers, p)
    D = np.flatnonzero(powers[:, 0] == 0)
    j = np.arange(n)
    normals = np.cross(powers[(j + D[0]) % n], powers[(j + D[1]) % n]) % p
    sigma = _positions(normals, p)
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

    tau: np.ndarray
    tau_prime: np.ndarray


def tau_maps(space: IncidenceSpace) -> TauMaps:
    """Dense tau and tau', scattered from the incident pairs (off every
    command path: the tests compare against them)."""
    p, n = space.p, space.n_points
    inc = np.zeros((n, n), dtype=np.int64)
    inc[space.incident_pairs()] = 1
    # tau(e_L - e_L0) has plane values inc[:, L] - inc[:, L0]
    tau = (inc[:, 1:] - inc[:, :1]) % p
    tau_prime = (inc.T[:, 1:] - inc.T[:, :1]) % p
    return TauMaps(tau=tau, tau_prime=tau_prime)


@dataclass(frozen=True)
class KernelReport:
    """dim ker tau and whether ker tau = im tau'.  tau' is tau (see
    ``kernel_analysis``), so these are also dim ker tau' and whether
    ker tau' = im tau."""

    dim_f1: int
    dim_ker_tau: int
    ker_tau_eq_im_tau_prime: bool


def kernel_analysis(space: IncidenceSpace) -> KernelReport:
    """The kernel dimension of tau and the identity ker tau = im tau'.

    The dot product is symmetric and lines and planes share normal forms, so
    the certified incidence is symmetric and tau, tau' are the same matrix:
    one rank and one composite decide both maps, and the report states them
    once.  tau o tau' vanishes iff im tau' lies in ker tau, and equal
    dimensions then make the two equal.  Both the rank and the composite
    come from the difference set D and the Singer field (see the module
    docstring).
    """
    dim = space.n_points - 1
    rank, composite_zero = _group_ring_kernel(space)
    return KernelReport(
        dim_f1=dim,
        dim_ker_tau=dim - rank,
        ker_tau_eq_im_tau_prime=composite_zero and rank == dim - rank,
    )


def _generators(space: IncidenceSpace) -> np.ndarray:
    """E12, E21, E23, E32 (I plus a single 1) and diag(norm, 1, 1): the
    Singer field's norm is drawn from ``_unit_generators``."""
    gens = np.repeat(np.eye(3, dtype=np.int64)[None], 5, axis=0)
    gens[range(5), [0, 1, 1, 2, 0], [1, 0, 2, 1, 0]] = [1, 1, 1, 1, space.norm]
    return gens


def equivariance_spot_check(space: IncidenceSpace) -> bool:
    """GL_3(F_p), acting on lines by g and on plane normals by the cofactor
    matrix cof(g) = det(g) g^-T, maps incident pairs to incident pairs,
    proved on its ``_generators``: E12, E21, E23, E32 generate SL_3(F_p)
    (Artin, Geometric Algebra, ch. IV) and diag(norm, 1, 1), the norm a
    generator of F_p^*, adds every determinant.  For each generator m,
    cof(m)^T m must be det(m) I with det(m) != 0 mod p.  Then (cof(m) N) .
    (m L) = det(m) (N . L), so m maps each pair of the incidence that
    ``build_incidence`` certified to an incident pair, and no pair is read.
    The line map, placed by the closed form ``_positions``, must be a
    permutation; then m permutes the finite pair set, and so does every
    product of generators.  The plane map needs no placement of its own:
    cof(m) = det(m) m^-T is invertible with m, and ``points`` lists every
    projective point once, so points cof(m)^T and points m^T are the same
    point set, and one is a permutation exactly when the other is.
    """
    p, points = space.p, space.points
    for m in _generators(space):
        cof = np.cross(m[[1, 2, 0]], m[[2, 0, 1]])
        det_eye = cof.T @ m % p  # det(m) I
        if not (det_eye[0, 0] and np.array_equal(det_eye, det_eye[0, 0] * np.eye(3, dtype=int))):
            return False
        if not _is_permutation(_positions(points @ m.T % p, p)):
            return False
    return True


# ---------------------------------------------------------------------------
# Principal series orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PrincipalSeries:
    """The free orbits at p: orbit k has the |W| residues ``members[k]``,
    ascending, and their Weyl dimensions ``dims[k]``, which must sum to
    ``expected`` = (p+1)(p^2+p+1)."""

    p: int
    members: np.ndarray  # (orbits, |W|, 2) int64, every coordinate in 1..p-2
    dims: np.ndarray  # (orbits, |W|) int64
    expected: int


def principal_series_check(p: int) -> PrincipalSeries:
    """Free-orbit dimension sums for the rank-2 symmetric Weyl group at p.

    W acts linearly: its |W| integer 2 x 2 matrices map all (p-1)^2 residues
    at once.  An orbit is free iff its |W| images are distinct, and it is
    listed at the residue that is its least image.  Freeness forces every
    coordinate nonzero mod p-1, so each residue, in 1..p-2, is its own lift.
    """
    _check_prime(p)
    if p < 5:
        raise ValueError("principal-series check needs p >= 5")
    ct = CartanType.parse("A2")
    g, rs = generate(ct), build_root_system(ct)
    q = p - 1
    # mats[w] has column i the image of the i-th fundamental weight under w
    mats = np.array([[g.act_on_weight(w, Weight(e)).coords for e in ((1, 0), (0, 1))]
                     for w in range(g.size)], dtype=np.int64).transpose(0, 2, 1)
    residues = np.arange(q * q)
    images = mats @ np.stack(np.divmod(residues, q)) % q  # (|W|, 2, q^2)
    keys = np.sort(images[:, 0] * q + images[:, 1], axis=0)  # each column ascending
    reps = np.flatnonzero((keys[0] == residues) & (np.diff(keys, axis=0) != 0).all(axis=0))
    members = np.stack(np.divmod(keys[:, reps].T, q), axis=-1)  # (orbits, |W|, 2)
    if not members.all():
        raise AssertionError("free orbit contains a zero coordinate")
    dims, rem = np.divmod(((members + 1) @ np.array(rs.coroot_pairings).T).prod(axis=-1),
                          math.prod(rs.weyl_vector_pairings))
    if rem.any():
        raise AssertionError("Weyl dimension quotient is not integral")
    return PrincipalSeries(p, members, dims, (p + 1) * (p * p + p + 1))

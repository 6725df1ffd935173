"""References for the sl3 lab, for the primes of the tests.

The incidence of PG(2, p) from all n^2 dot products of normal forms, and
the test whether tau o tau' vanishes by one exact int64 product.  The
certificate of the Singer labelling from its n (p + 1) pairs, one dot
product each, that the Singer cycle of the lab replaced.  Each n x n
array is O(p^4), so these stay here, off every ``cellred sl3`` path.  The
rank of tau as n - deg gcd((x - 1) a(x), x^n - 1), by Euclid over F_p in
O(n^2), against which the zero count of the lab is checked.  The first
primitive cubic over F_p by the order of its root, from the primes of
p^3 - 1, against which the Singer field of the lab is checked.  The seeded
sample of 20 invertible g that checked equivariance before the generators
did, and the per-residue orbit loop, with its own lift of each residue and
one ``weyl_dim`` per lift, that the array orbit search replaced.
"""

from __future__ import annotations

import random

import numpy as np

from cellred.coxeter import generate
from cellred.poly import check_magnitude
from cellred.rootdata import CartanType, Weight, build_root_system, weyl_dim
from cellred.sl3lab import _is_permutation, _positions, _projective_points


def dense_incidence(p: int) -> np.ndarray:
    """The 0/1 incidence, rows planes and columns lines, from P @ L.T."""
    pts = _projective_points(p)
    return ((pts @ pts.T) % p == 0).astype(np.int64)


def pair_certificate(space) -> None:
    """Certify the labelling of ``space`` from its pairs (sigma[j], pi[j + d]),
    d in D: each pair's two normals have dot product 0 mod p, and there are
    n (p + 1) distinct pairs (D a set, p + 1 pairs at each plane and at each
    line), as many as PG(2, p) has.  Refuses with the messages of
    ``build_incidence``."""
    p, n, points = space.p, space.n_points, space.points
    at_plane, at_line = space.incident_pairs()
    if (sum(points[at_plane, k] * points[at_line, k] for k in range(3)) % p).any():
        raise AssertionError("a Singer pair is not incident")
    if np.bincount(space.D % n).max() > 1 or any(
        (np.bincount(at, minlength=n) != p + 1).any() for at in (at_plane, at_line)
    ):
        raise AssertionError("incidence regularity fails")


def dense_tau(inc: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """tau and tau' of a dense incidence on the sum-zero bases e_L - e_L0."""
    return (inc[:, 1:] - inc[:, :1]) % p, (inc.T[:, 1:] - inc.T[:, :1]) % p


def composite_is_zero(A: np.ndarray, B: np.ndarray, p: int) -> bool:
    """Whether A @ B vanishes mod p, by one exact int64 product: each of the
    A.shape[1] terms of an entry is at most (p - 1)**2."""
    check_magnitude(A.shape[1] * (p - 1) ** 2, "composition")
    return not ((A % p) @ (B % p) % p).any()


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


def euclid_rank(n: int, D: np.ndarray, p: int) -> int:
    """Rank over F_p of tau for the circulant incidence of D on Z/n:
    n - deg gcd((x - 1) a(x), x^n - 1), a(x) the sum of x^d over D."""
    a = np.bincount(D, minlength=n)
    shifted = (np.roll(a, 1) - a) % p  # (x - 1) a(x) mod x^n - 1
    modulus = np.zeros(n + 1, dtype=np.int64)
    modulus[[0, n]] = (p - 1, 1)  # x^n - 1
    return n - _gcd_degree(modulus, shifted, p)


def cubic_pow(f: tuple[int, int, int], e: int, p: int) -> tuple[int, ...]:
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


def _prime_factors(m: int) -> list[int]:
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + [m] if m > 1 else out


def first_primitive_cubic(p: int) -> tuple[int, int, int]:
    """(f0, f1, f2) of the first monic cubic x^3 + f2 x^2 + f1 x + f0 over
    F_p, in the order f2, f1, then g = -f0 over 1..p-1, whose root x has
    order p^3 - 1: x^(p^3 - 1) = 1 and x^((p^3 - 1)/q) != 1 for each prime
    q of p^3 - 1."""
    order = p ** 3 - 1
    qs = _prime_factors(order)
    one = (1, 0, 0)
    for f2 in range(p):
        for f1 in range(p):
            for g in range(1, p):
                f = (-g % p, f1, f2)
                if cubic_pow(f, order, p) == one and all(
                    cubic_pow(f, order // q, p) != one for q in qs
                ):
                    return f
    raise AssertionError(f"no primitive cubic over F_{p}")


def sampled_equivariance(space, samples: int = 20) -> bool:
    """Whether each of ``samples`` seeded random g in GL_3(F_p), drawn by
    rejecting singular matrices, permutes the lines and planes and maps the
    labelled pairs of ``space`` into themselves."""
    p, n = space.p, space.n_points
    rng = random.Random(10007 * p)
    pi_inv, sigma_inv = np.argsort(space.pi), np.argsort(space.sigma)
    in_D = np.zeros(2 * n, dtype=bool)  # in_D[k + n]: k mod n in D, for |k| < n
    in_D[space.D] = in_D[space.D + n] = True
    at_line = (np.arange(n)[:, None] + space.D) % n
    done = 0
    while done < samples:
        rows = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        (a, b, c), (d, e, f), (g, h, i) = rows
        if (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p == 0:
            continue
        m = np.array(rows, dtype=np.int64)
        cof = np.cross(m[[1, 2, 0]], m[[2, 0, 1]])  # det(m) m^-T
        done += 1
        ip, il = (_positions(space.points @ x.T % p, p) for x in (cof, m))
        if not (_is_permutation(ip) and _is_permutation(il)):
            return False
        moved_plane, moved_line = sigma_inv[ip[space.sigma]], pi_inv[il[space.pi]]
        if not in_D[moved_line[at_line] + (n - moved_plane)[:, None]].all():
            return False
    return True


def orbit_loop(p: int) -> tuple[list, list, list]:
    """The free W(A2) orbits on weights mod p - 1, one residue at a time, as
    lists (members, lifts, dims) with one entry per orbit: each orbit from
    ``act_on_weight`` on its least member, ascending, free iff it has |W|
    elements, each residue lifted into 1..p-2 and each lifted dimension from
    ``weyl_dim``."""
    ct = CartanType.parse("A2")
    g, rs = generate(ct), build_root_system(ct)
    q = p - 1
    seen: set[tuple[int, int]] = set()
    members, lifts, dims = [], [], []
    for a in range(q):
        for b in range(q):
            if (a, b) in seen:
                continue
            orbit = sorted({
                tuple(c % q for c in g.act_on_weight(w, Weight((a, b))).coords)
                for w in range(g.size)
            })
            seen.update(orbit)
            if len(orbit) != g.size:
                continue
            if any(0 in z for z in orbit):
                raise AssertionError("free orbit contains a zero coordinate")
            lift = [[(c - 1) % q + 1 for c in z] for z in orbit]
            members.append([list(z) for z in orbit])
            lifts.append(lift)
            dims.append([weyl_dim(rs, Weight(z)) for z in lift])
    return members, lifts, dims

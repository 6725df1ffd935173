import dataclasses
import io
import json
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from cellred import sl3lab
from cellred.cli import main
from cellred.sl3lab import (
    _PANEL,
    _check_prime,
    _generators,
    _group_ring_kernel,
    _positions,
    _projective_points,
    _reduce,
    _singer_field,
    _singer_labelling,
    _unit_generators,
    NotPrime,
    TooLarge,
    build_incidence,
    equivariance_spot_check,
    kernel_analysis,
    principal_series_check,
    rank_mod,
    tau_maps,
)

from sl3ref import (
    composite_is_zero,
    cubic_pow,
    dense_incidence,
    dense_tau,
    euclid_rank,
    first_primitive_cubic,
    orbit_loop,
    pair_certificate,
    sampled_equivariance,
)

PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
PRIMES_TO_97 = PRIMES_TO_31 + [37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_prime_checks():
    assert build_incidence(7).p == 7
    with pytest.raises(NotPrime):
        build_incidence(6)
    with pytest.raises(NotPrime):
        build_incidence(9)
    with pytest.raises(TooLarge):
        build_incidence(101)
    # trial division against a sieve, squares of primes included
    sieve = [False, False] + [True] * 120  # 0..121
    for d in range(2, 12):
        sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert not any(sieve[k] for k in (4, 9, 25, 49, 121))
    assert sum(sieve) == 30
    for k in range(-2, 122):
        if k >= 0 and sieve[k]:
            _check_prime(k)
        else:
            with pytest.raises(NotPrime, match=f"^{k} is not prime$"):
                _check_prime(k)


def test_fano_plane():
    sp = build_incidence(2)
    assert sp.n_points == 7
    planes, lines = sp.incident_pairs()
    assert np.bincount(planes).tolist() == [3] * 7  # 3 lines per plane
    assert np.bincount(lines).tolist() == [3] * 7


@pytest.mark.parametrize("p,n", [(2, 7), (3, 13), (5, 31), (7, 57), (11, 133)])
def test_point_counts(p, n):
    sp = build_incidence(p)
    assert sp.n_points == n
    planes, lines = sp.incident_pairs()
    assert planes.size == lines.size == n * (p + 1)
    assert (np.bincount(planes, minlength=n) == p + 1).all()
    assert (np.bincount(lines, minlength=n) == p + 1).all()


@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_certified_pairs_are_the_dense_incidence(p):
    planes, lines = build_incidence(p).incident_pairs()
    order = np.lexsort((lines, planes))
    want_planes, want_lines = np.nonzero(dense_incidence(p))
    assert np.array_equal(planes[order], want_planes)
    assert np.array_equal(lines[order], want_lines)


def test_linear_algebra_mod_p():
    M = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank_mod(M, 5) == 2


def reference_rank(M, p):
    """Textbook Gaussian elimination over F_p on lists of Python ints."""
    rows = [[int(x) % p for x in row] for row in M]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inv = pow(top[c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i][c:] = [(a - f * b) % p for a, b in zip(rows[i][c:], top[c:])]
        rank += 1
    return rank


def rank_k_product(rng, p, rows, cols, k, pivot_cols=None):
    """A rows x cols matrix A @ B mod p of rank exactly k.

    A holds I_k in k random rows and B holds I_k in k columns (random ones,
    or ``pivot_cols``), so the product contains B's rank-k rows.
    """
    A = rng.integers(0, p, (rows, k))
    A[rng.choice(rows, k, replace=False)] = np.eye(k, dtype=np.int64)
    B = rng.integers(0, p, (k, cols))
    if pivot_cols is None:
        pivot_cols = rng.choice(cols, k, replace=False)
    B[:, pivot_cols] = np.eye(k, dtype=np.int64)
    return (A @ B) % p


# column counts around one and two panels; rows exceed a panel, so a
# full-rank matrix needs pivots from more than one panel
@pytest.mark.parametrize("p", [2, 3, 97])
@pytest.mark.parametrize("cols", [1, _PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL + 3])
def test_rank_mod_matches_reference_elimination(p, cols):
    rng = np.random.default_rng(1000 * p + cols)
    rows = _PANEL + 5
    full = min(rows, cols)
    for k in sorted({0, min(5, full), full // 2, full}):
        X = rank_k_product(rng, p, rows, cols, k)
        assert rank_mod(X, p) == reference_rank(X, p) == k, (p, cols, k)


@pytest.mark.parametrize("p", [2, 97])
def test_rank_mod_pivot_free_columns_inside_a_panel(p):
    # every pivot of the first panel sits at its edges; the columns between
    # them are multiples of column 0, so the rank comes from later panels
    rng = np.random.default_rng(p)
    cols, k = 2 * _PANEL + 3, 40
    pivot_cols = [0, 1, _PANEL - 1] + list(range(_PANEL + 7, _PANEL + 44))
    X = rank_k_product(rng, p, 60, cols, k, pivot_cols)
    X[:, 2:_PANEL - 1] = (X[:, :1] * rng.integers(0, p, _PANEL - 3)) % p
    assert rank_mod(X, p) == reference_rank(X, p) == k


@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_incidence_p_rank_is_hamadas(p):
    # Hamada (Hiroshima Math. J. 3, 1973): the point-line incidence matrix of
    # PG(2, p) has p-rank C(p+1, 2) + 1
    assert rank_mod(dense_incidence(p), p) == p * (p + 1) // 2 + 1


@pytest.mark.parametrize("p", [2, 3, 31, 103, 167, 8388593])
def test_reduce_is_exact_up_to_the_guard(p):
    # multiples of p and their neighbours, small ones and ones whose magnitude
    # is just inside |x| + p <= 2**53; at p = 103 and 167 the float quotient
    # of some small multiples rounds below the true one
    top = (2 ** 53 - p) // p - 1
    q = np.concatenate([np.arange(1, 2000), np.arange(top - 2000, top)])
    x = np.concatenate([q * p + d for d in (-1, 0, 1)])
    x = np.concatenate([x, -x])
    X = x.astype(np.float64)
    _reduce(X, p)
    assert (X == x % p).all()


def test_exactness_guards_raise():
    with pytest.raises(AssertionError, match="rank_mod exactness guard"):
        rank_mod(np.eye(2, dtype=np.int64), 2 ** 31 - 1)
    # p = 8388593 is the largest prime that the elimination guard admits;
    # tau o tau' with inner dimension 200 would pass 2**53
    p, n = 8388593, 201
    zero = np.zeros((n, n - 1), dtype=np.int64)
    with pytest.raises(AssertionError, match="composition exactness guard"):
        composite_is_zero(zero, zero[1:], p)


@pytest.mark.parametrize("p", PRIMES_TO_31 + [97])
def test_projective_points_are_the_sorted_normal_forms(p):
    # every nonzero vector of F_p^3, scaled so its first nonzero coordinate
    # is 1; distinct keys x p^2 + y p + z in ascending order
    v = np.indices((p, p, p)).reshape(3, -1).T[1:]
    lead = v[np.arange(len(v)), (v != 0).argmax(axis=1)]
    inverse = np.array([0] + [pow(c, -1, p) for c in range(1, p)])
    forms = np.unique((v * inverse[lead][:, None] % p) @ (p * p, p, 1))
    points = _projective_points(p)
    assert points.dtype == np.int64 and ((0 <= points) & (points < p)).all()
    assert np.array_equal(points @ (p * p, p, 1), forms)


@pytest.mark.parametrize("p", PRIMES_TO_31 + [97])
def test_positions_are_the_closed_form_of_the_points(p):
    points = _projective_points(p)
    every = np.arange(len(points))
    assert np.array_equal(_positions(points, p), every)
    # every nonzero multiple c v lands on the position of v: each c for
    # p <= 31, and seeded per-point multipliers at p = 97
    rng = np.random.default_rng(p)
    if p <= 31:
        multipliers = [np.full(len(points), c) for c in range(1, p)]
    else:
        multipliers = [rng.integers(1, p, len(points)) for _ in range(20)]
    for c in multipliers:
        assert np.array_equal(_positions(points * c[:, None] % p, p), every)
    with pytest.raises(AssertionError, match="^zero vector$"):
        _positions(np.vstack([points[:2], np.zeros((1, 3), dtype=np.int64)]), p)


@pytest.mark.parametrize("p", PRIMES_TO_97)
def test_singer_field_is_the_powers_of_a_primitive_root(p):
    # the first cubic whose root has order p^3 - 1, found with no filter on
    # the norm, is the one the walk accepts
    space = build_incidence(p)
    n = space.n_points
    f = first_primitive_cubic(p)
    assert space.norm == -f[0] % p
    assert space.powers.shape == (n, 3)
    rng = np.random.default_rng(p)
    for i in [0, 1, 2, 3, n - 1, *rng.integers(0, n, 20)]:
        assert tuple(space.powers[i]) == cubic_pow(f, int(i), p), i
    assert cubic_pow(f, n, p) == (space.norm, 0, 0)
    # the norm generates F_p^*
    assert sorted(pow(space.norm, i, p) for i in range(p - 1)) == list(range(1, p))


@pytest.mark.parametrize("p", PRIMES_TO_97)
def test_unit_generators_are_the_elements_of_order_p_minus_1(p):
    # g generates F_p^* iff its p - 1 powers are distinct
    want = [g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1]
    assert _unit_generators(p) == want


def test_sl3_builds_each_singer_field_once(monkeypatch):
    calls = []
    monkeypatch.setattr(sl3lab, "_singer_field",
                        lambda p: calls.append(p) or _singer_field(p))
    with redirect_stdout(io.StringIO()):
        assert main(["sl3", "--p", "7", "--p", "11"]) == 0
    assert calls == [7, 11]


def test_sl3_searches_the_generators_of_each_unit_group_once(monkeypatch):
    calls = []
    monkeypatch.setattr(sl3lab, "_unit_generators",
                        lambda p: calls.append(p) or _unit_generators(p))
    with redirect_stdout(io.StringIO()):
        assert main(["sl3", "--p", "7", "--p", "11"]) == 0
    assert calls == [7, 11]


def test_sl3_checks_every_p_before_building_any(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(sl3lab, "build_incidence", built.append)
    assert main(["sl3", "--p", "97", "--p", "101"]) == 2
    out, err = capsys.readouterr()
    assert (out, built) == ("", [])
    assert err == "cellred: p = 101 exceeds bound 97\n"
    assert main(["sl3", "--p", "5", "--p", "9"]) == 2
    out, err = capsys.readouterr()
    assert (out, built) == ("", [])
    assert err == "cellred: 9 is not prime\n"


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tau_preserves_sum_zero_functions(p):
    maps = tau_maps(build_incidence(p))
    # each basis image must itself be a sum-zero function
    assert (maps.tau.sum(axis=0) % p == 0).all()
    assert (maps.tau_prime.sum(axis=0) % p == 0).all()


def sl3_result(p):
    """Exit code and the one result of ``cellred sl3 --p p``."""
    with redirect_stdout(io.StringIO()) as out:
        code = main(["sl3", "--p", str(p)])
    return code, json.loads(out.getvalue())["results"][0]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_kernel_dimensions_and_subspace_identities(p):
    rep = kernel_analysis(build_incidence(p))
    assert rep.dim_f1 == p * p + p
    want = p * (p + 1) // 2
    assert rep.dim_ker_tau == want
    assert rep.ker_tau_eq_im_tau_prime
    # tau' is tau: the command writes its facts from the same report
    code, result = sl3_result(p)
    kernel = result["kernel"]
    assert code == 0 and result["dim_f1"] == rep.dim_f1
    assert kernel["dim_ker_tau"] == kernel["dim_ker_tau_prime"] == want
    assert kernel["dim_ker_tau"] + kernel["dim_ker_tau_prime"] == p * p + p
    assert kernel["ker_tau_eq_im_tau_prime"] is True
    assert kernel["ker_tau_prime_eq_im_tau"] is True


def sigma_swapped(D, pi, sigma):
    sigma = sigma.copy()
    sigma[[0, 1]] = sigma[[1, 0]]
    return D, pi, sigma


def d_replaced(D, pi, sigma):
    """D with its first element replaced by the least residue outside D."""
    outside = np.setdiff1d(np.arange(pi.size), D)[0]
    return np.concatenate(([outside], D[1:])), pi, sigma


def all_on_one_line(D, pi, sigma):
    """Every line named pi[0], and the planes through it in turn as sigma."""
    p = D.size - 1
    pts = _projective_points(p)
    through = np.flatnonzero(pts @ pts[pi[0]] % p == 0)
    return D, np.full_like(pi, pi[0]), through[np.arange(pi.size) % through.size]


def pi_swapped(D, pi, sigma):
    """pi with two lines swapped that are neither x^0 nor an x^d, d in D:
    only the line step of the Singer cycle sees it."""
    pi = pi.copy()
    i, j = np.setdiff1d(np.arange(1, pi.size), D)[:2]
    pi[[i, j]] = pi[[j, i]]
    return D, pi, sigma


# Labellings whose pairs are not the incidence of PG(2, p), and the message
# each certificate, the lab's Singer cycle and the reference's pairs, refuses
# it with: a pair not incident, or pairs that are not n (p + 1) distinct ones
CORRUPTED_LABELLINGS = {
    "sigma_swapped": (sigma_swapped, "a Singer pair is not incident"),
    "planes_labelled_like_lines": (lambda D, pi, _: (D, pi, pi),
                                   "a Singer pair is not incident"),
    "D_element_replaced": (d_replaced, "a Singer pair is not incident"),
    "D_element_repeated": (lambda D, pi, sigma: (np.concatenate(([D[1]], D[1:])), pi, sigma),
                           "incidence regularity fails"),
    "D_element_dropped": (lambda D, pi, sigma: (D[1:], pi, sigma),
                          "incidence regularity fails"),
    "all_on_one_line": (all_on_one_line, "incidence regularity fails"),
    "pi_swapped": (pi_swapped, "a Singer pair is not incident"),
    "sigma_rotated": (lambda D, pi, sigma: (D, pi, np.roll(sigma, 1)),
                      "a Singer pair is not incident"),
    "D_shifted": (lambda D, pi, sigma: ((D + 1) % pi.size, pi, sigma),
                  "a Singer pair is not incident"),
}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
@pytest.mark.parametrize("case", sorted(CORRUPTED_LABELLINGS))
def test_certificate_refuses_a_corrupted_labelling(monkeypatch, case, p):
    corrupt, message = CORRUPTED_LABELLINGS[case]
    labelling = _singer_labelling
    monkeypatch.setattr(sl3lab, "_singer_labelling", lambda *a: corrupt(*labelling(*a)))
    with pytest.raises(AssertionError, match=message):
        build_incidence(p)


@pytest.mark.parametrize("p", PRIMES_TO_97)
def test_reference_certificate_accepts_the_lab_incidence(p):
    pair_certificate(build_incidence(p))


@pytest.mark.parametrize("p", [3, 5, 7, 31])
@pytest.mark.parametrize("case", sorted(CORRUPTED_LABELLINGS))
def test_reference_certificate_refuses_a_corrupted_labelling(case, p):
    corrupt, message = CORRUPTED_LABELLINGS[case]
    space = build_incidence(p)
    D, pi, sigma = corrupt(space.D, space.pi, space.sigma)
    with pytest.raises(AssertionError, match=message):
        pair_certificate(dataclasses.replace(space, D=D, pi=pi, sigma=sigma))


@pytest.mark.parametrize("vanishes", [True, False])
def test_kernel_analysis_decides_identities_by_the_composite(monkeypatch, vanishes):
    # rank 6 on a 12-dimensional sum-zero space in both cases, so rank tau' =
    # dim ker tau holds; only whether tau o tau' vanishes tells the cases
    # apart.  {0, 1, 3, 9} is the perfect difference set of PG(2, 3)
    D = np.array([0, 1, 3, 9] if vanishes else [0, 1, 2, 3, 6, 10])
    space = build_incidence(3)
    assert _group_ring_kernel(dataclasses.replace(space, D=D)) == (6, vanishes)
    monkeypatch.setattr(sl3lab, "_group_ring_kernel",
                        lambda sp: _group_ring_kernel(dataclasses.replace(sp, D=D)))
    rep = kernel_analysis(space)
    assert rep.dim_f1 == 12
    assert rep.dim_ker_tau == 6
    assert rep.ker_tau_eq_im_tau_prime is vanishes
    code, result = sl3_result(3)
    kernel = result["kernel"]
    assert kernel["dim_ker_tau"] == kernel["dim_ker_tau_prime"] == 6
    assert kernel["ker_tau_eq_im_tau_prime"] is vanishes
    assert kernel["ker_tau_prime_eq_im_tau"] is vanishes
    assert (code, result["ok"]) == ((0, True) if vanishes else (1, False))


def circulant(n, D):
    """C[j, i] = 1 iff i - j lies in D mod n."""
    C = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        C[j, (j + np.asarray(D, dtype=np.int64)) % n] = 1
    return C


def test_group_ring_kernel_matches_the_dense_circulant():
    n, p = 13, 3
    space = build_incidence(p)  # the Singer field of F_3, for any subset D
    rng = np.random.default_rng(13)
    subsets = [[], list(range(n)), [0, 1, 3, 9], [0, 1, 2, 3, 6, 10]]
    subsets += [np.flatnonzero(rng.integers(0, 2, n)) for _ in range(200)]
    for D in subsets:
        C = circulant(n, D)
        tau, tau_prime = dense_tau(C, p)
        want = (rank_mod(tau, p), composite_is_zero(tau, tau_prime[1:], p))
        D = np.asarray(D, dtype=np.int64)
        assert _group_ring_kernel(dataclasses.replace(space, D=D)) == want, D


@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_singer_kernel_matches_the_dense_reference(p):
    tau, tau_prime = dense_tau(dense_incidence(p), p)
    rank = rank_mod(tau, p)
    composite_zero = composite_is_zero(tau, tau_prime[1:], p)
    space = build_incidence(p)
    assert _group_ring_kernel(space) == (rank, composite_zero)
    assert kernel_analysis(space).dim_ker_tau == space.n_points - 1 - rank
    maps = tau_maps(space)  # scattered from the certified pairs
    assert np.array_equal(maps.tau, tau) and np.array_equal(maps.tau_prime, tau_prime)


@pytest.mark.parametrize("p", PRIMES_TO_97)
def test_zero_count_is_the_euclid_rank(p):
    space = build_incidence(p)
    assert _group_ring_kernel(space)[0] == euclid_rank(space.n_points, space.D, p)


@pytest.mark.parametrize("p", [41, 97])
def test_singer_rank_is_hamadas_beyond_the_dense_bound(p):
    # no dense matrix is built.  On the sum-zero space the rank is C(p+1, 2),
    # one less than Hamada's p-rank of the whole incidence, as the dense
    # reference shows for p <= 31
    space = build_incidence(p)
    assert space.D.size == p + 1 and space.n_points == p * p + p + 1
    assert _group_ring_kernel(space) == (p * (p + 1) // 2, True)


def test_kernel_analysis_takes_no_dense_step(monkeypatch):
    def dense(*args):
        raise AssertionError("dense step")

    monkeypatch.setattr(sl3lab, "rank_mod", dense)
    monkeypatch.setattr(sl3lab, "tau_maps", dense)
    rep = kernel_analysis(build_incidence(7))
    assert rep.dim_ker_tau == 28 and rep.ker_tau_eq_im_tau_prime


def test_sl3_command_never_builds_the_dense_maps(monkeypatch):
    calls = []
    for name in ("build_incidence", "kernel_analysis", "tau_maps", "rank_mod"):
        fn = getattr(sl3lab, name)
        monkeypatch.setattr(sl3lab, name,
                            lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    with redirect_stdout(io.StringIO()) as out:
        assert main(["sl3", "--p", "7"]) == 0
    assert json.loads(out.getvalue())["results"][0]["ok"]
    # the command goes through the counted names, and the counters count
    assert calls == ["build_incidence", "kernel_analysis"]
    sl3lab.rank_mod(sl3lab.tau_maps(sl3lab.build_incidence(7)).tau, 7)
    assert calls[2:] == ["build_incidence", "tau_maps", "rank_mod"]


def test_sl3_command_never_lists_the_incident_pairs(monkeypatch):
    calls = []
    pairs = sl3lab.IncidenceSpace.incident_pairs
    monkeypatch.setattr(sl3lab.IncidenceSpace, "incident_pairs",
                        lambda space: calls.append(space.p) or pairs(space))
    with redirect_stdout(io.StringIO()) as out:
        assert main(["sl3", "--p", "31"]) == 0
    assert json.loads(out.getvalue())["results"][0]["ok"]
    assert calls == []
    # the counter counts: the dense maps scatter the pairs
    sl3lab.tau_maps(sl3lab.build_incidence(5))
    assert calls == [5]


def test_sl3_p61_peaks_under_40_mib():
    # one n x n int64 array is 109 MiB at p = 61 (n = 3783)
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()) as out:
            assert main(["sl3", "--p", "61"]) == 0
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert json.loads(out.getvalue())["results"][0]["ok"]
    assert peak_mib < 40, peak_mib


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_equivariance_sample(p):
    # the proof reads no labelled pair: a labelling whose pairs are not the
    # incidence is refused by ``build_incidence`` (see CORRUPTED_LABELLINGS)
    assert equivariance_spot_check(build_incidence(p))


@pytest.mark.parametrize("p", [2, 5])
@pytest.mark.parametrize("singular", [lambda p: np.diag([0, 1, 1]), lambda p: np.diag([p, 1, 1]),
                                      lambda p: np.ones((3, 3), dtype=np.int64)],
                         ids=["diag(0,1,1)", "diag(p,1,1)", "ones"])
def test_equivariance_refuses_a_singular_generator(monkeypatch, singular, p):
    # singular mod p: g sends a point to 0, so it permutes no point set
    monkeypatch.setattr(sl3lab, "_generators", lambda space: singular(p)[None])
    assert not equivariance_spot_check(build_incidence(p))


def test_equivariance_checks_each_line_map(monkeypatch):
    # with det g != 0 the line map of g is a permutation of the points, so
    # only a fault in ``_positions`` shows that each is checked: one entry of
    # each of the five maps (one per generator) repeated in turn, then none
    space = build_incidence(3)
    positions = sl3lab._positions
    for fault in range(6):
        calls = []

        def faulty(v, p, calls=calls, fault=fault):
            at = positions(v, p)
            if len(calls) == fault:
                at[1] = at[0]
            calls.append(fault)
            return at

        monkeypatch.setattr(sl3lab, "_positions", faulty)
        assert equivariance_spot_check(space) is (fault == 5), fault
    assert len(calls) == 5


def test_sl3_stages_at_p97_peak_under_4_mib():
    # neither incidence stage forms an n (p + 1) array (7.1 MiB of int64 at
    # p = 97, n = 9507) nor the (n/3, p + 1) exponent pair of the zero count
    # (4.7 MiB), and the orbit search returns its arrays, not one record of
    # tuples per orbit (5.4 MiB)
    space = build_incidence(97)
    for stage, arg in ((kernel_analysis, space), (equivariance_spot_check, space),
                       (principal_series_check, 97)):
        tracemalloc.start()
        try:
            stage(arg)
            peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak_mib < 4, (stage.__name__, peak_mib)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_equivariance_refuses_a_repeated_point(p):
    # with a point listed twice no g permutes the points
    sp = build_incidence(p)
    for i in range(1, sp.n_points):
        points = sp.points.copy()
        points[i] = points[i - 1]
        assert not equivariance_spot_check(dataclasses.replace(sp, points=points)), i


def single_swaps(space):
    """Every labelling with two entries of sigma, or two of pi, swapped."""
    n = space.n_points
    for field in ("sigma", "pi"):
        for i in range(n):
            for j in range(i + 1, n):
                labels = getattr(space, field).copy()
                labels[[i, j]] = labels[[j, i]]
                yield (field, i, j), dataclasses.replace(space, **{field: labels})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_certificate_refuses_every_swap_the_sample_refuses(monkeypatch, p):
    space = build_incidence(p)
    assert sampled_equivariance(space)
    by_sample = 0
    for swap, bad in single_swaps(space):
        monkeypatch.setattr(sl3lab, "_singer_labelling", lambda *a: (bad.D, bad.pi, bad.sigma))
        with pytest.raises(AssertionError, match="a Singer pair is not incident"):
            build_incidence(p)
        by_sample += not sampled_equivariance(bad)
    # both refuse every single swap: 42, 156 and 930 at p = 2, 3 and 5
    n = space.n_points
    assert by_sample == n * (n - 1)


@pytest.mark.parametrize("p, order", [(2, 168), (3, 11232)])
def test_generators_generate_gl3(p, order):
    # breadth-first search over left multiplication by the generators,
    # each matrix keyed by its nine entries in base p
    gens = _generators(build_incidence(p))
    assert gens.dtype == np.int64 and gens.shape == (5, 3, 3)
    digits = p ** np.arange(9)
    seen = np.zeros(p ** 9, dtype=bool)
    frontier = np.eye(3, dtype=np.int64)[None]
    seen[frontier.reshape(-1, 9) @ digits] = True
    while frontier.size:
        products = (gens[:, None] @ frontier[None] % p).reshape(-1, 3, 3)
        keys, first = np.unique(products.reshape(-1, 9) @ digits, return_index=True)
        new = ~seen[keys]
        seen[keys[new]] = True
        frontier = products[first[new]]
    assert seen.sum() == order  # |GL_3(F_p)| = (p^3 - 1)(p^3 - p)(p^3 - p^2)
    assert order == (p**3 - 1) * (p**3 - p) * (p**3 - p * p)


@pytest.mark.parametrize("p", [q for q in PRIMES_TO_97 if 5 <= q <= 61])
def test_principal_series_matches_the_orbit_loop(p):
    got = principal_series_check(p)
    members, lifts, dims = orbit_loop(p)
    assert got.p == p and got.expected == (p + 1) * (p * p + p + 1)
    assert got.members.tolist() == members
    assert lifts == members  # each residue, in 1..p-2, is its own lift
    assert got.dims.tolist() == dims


def test_principal_series_p5_spot_orbit():
    ps = principal_series_check(5)
    assert (ps.dims.sum(axis=1) == ps.expected).all()
    (k,) = np.flatnonzero((ps.members == (1, 2)).all(axis=-1).any(axis=-1))
    dims = ps.dims[k]
    assert sorted(dims.tolist()) == [8, 15, 15, 42, 42, 64]
    assert dims.sum() == 186 == 6 * 31


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_principal_series_sums(p):
    ps = principal_series_check(p)
    assert len(ps.members), "expected at least one free orbit"
    assert ps.members.shape[1:] == (6, 2) and ps.dims.shape == ps.members.shape[:2]
    assert ps.expected == (p + 1) * (p * p + p + 1)
    assert (ps.dims.sum(axis=1) == ps.expected).all()
    # free orbits have all coordinates nonzero, so they sit in 1..p-2
    assert ((1 <= ps.members) & (ps.members <= p - 2)).all()


def test_weight_fixed_by_a_non_simple_reflection_is_not_free():
    # (1, p-2) has nonzero coordinates but n1 + n2 = 0 mod p-1; the honest
    # stabiliser computation must exclude its orbit
    for p in (5, 7):
        ps = principal_series_check(p)
        assert not (ps.members == (1, p - 2)).all(axis=-1).any()


def test_orbit_count_p7():
    # 36 residue classes; free orbits have size 6
    ps = principal_series_check(7)
    assert (ps.dims.sum(axis=1) == 8 * 57).all()
    covered = ps.dims.size
    assert covered <= 36 and covered % 6 == 0


def test_principal_series_requires_p_at_least_5():
    with pytest.raises(ValueError):
        principal_series_check(3)

"""Dense references for the sl3 lab, for the small primes of the tests.

The incidence of PG(2, p) from all n^2 dot products of normal forms, and
the test whether tau o tau' vanishes by one exact float64 GEMM.  Each n x n
array is O(p^4), so these stay here, off every ``cellred sl3`` path.
"""

from __future__ import annotations

import numpy as np

from cellred.sl3lab import _exactness_guard, _projective_points, _reduce


def dense_incidence(p: int) -> np.ndarray:
    """The 0/1 incidence, rows planes and columns lines, from P @ L.T."""
    pts = np.array(_projective_points(p), dtype=np.int64)
    return ((pts @ pts.T) % p == 0).astype(np.int64)


def dense_tau(inc: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """tau and tau' of a dense incidence on the sum-zero bases e_L - e_L0."""
    return (inc[:, 1:] - inc[:, :1]) % p, (inc.T[:, 1:] - inc.T[:, :1]) % p


def composite_is_zero(A: np.ndarray, B: np.ndarray, p: int) -> bool:
    """Whether A @ B vanishes mod p, by one exact float64 GEMM."""
    _exactness_guard(A.shape[1] * (p - 1) ** 2 + p, "composition")
    prod = (A % p).astype(np.float64) @ (B % p).astype(np.float64)
    _reduce(prod, p)
    return not prod.any()

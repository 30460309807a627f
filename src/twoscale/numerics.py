"""Dense linear algebra helpers and reproducible random sampling.

Matrices and vectors are plain float64 numpy arrays in C (row-major)
order. All randomness flows through :class:`SeededRng` instances keyed
by (seed, stream); there is no global generator anywhere in the
package, so every run can be replayed exactly.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg

__all__ = [
    "ConvergenceError",
    "SeededRng",
    "SingularMatrixError",
    "inverse_cdf",
    "linear_solve",
    "stability_test",
]

# Pivot threshold for linear_solve, relative to max |A_ij|.
_PIVOT_RTOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when a linear solve meets a numerically singular matrix."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver runs out of iterations."""


class SeededRng:
    """Deterministic random stream keyed by a seed and a stream index.

    Streams derived from the same seed with different indices are
    statistically independent; identical (seed, stream) pairs replay
    the identical draw sequence.
    """

    def __init__(self, seed, stream=()):
        if isinstance(stream, int):
            stream = (stream,)
        self.seed = seed
        self.stream = tuple(int(s) for s in stream)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=self.stream)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniform(self, size=None):
        """Uniform draws in [0, 1)."""
        return self._gen.random(size)

    def normal(self, size: int) -> np.ndarray:
        """Vector of standard normals via the Box-Muller transform.

        Each pair of uniform draws (u1, u2) yields the pair
        (r cos a, r sin a) with r = sqrt(-2 log(1 - u1)), a = 2 pi u2;
        an odd trailing element discards the sine branch. The mapping
        from the uniform stream is fixed so traces are reproducible.
        """
        n = int(size)
        m = (n + 1) // 2
        u = self._gen.random(2 * m)
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        a = (2.0 * math.pi) * u[1::2]
        z = np.empty(2 * m)
        z[0::2] = r * np.cos(a)
        z[1::2] = r * np.sin(a)
        return z[:n]

    def integers(self, low, high):
        return int(self._gen.integers(low, high))


def inverse_cdf(cum: np.ndarray, u: float) -> int:
    """Index drawn by one uniform `u` from a cumulative probability vector.

    Rounding can leave cum[-1] just below 1; a `u` past it maps to the
    last index.
    """
    return min(int(cum.searchsorted(u, side="right")), cum.size - 1)


def linear_solve(A, b) -> np.ndarray:
    """Solve A x = b by LU factorization with partial pivoting.

    Raises :class:`SingularMatrixError` when the smallest pivot falls
    below 1e-12 * max|A_ij|. The result satisfies
    ||A x - b||_inf <= 1e-8 * (1 + ||b||_inf) for well-scaled systems.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if b.shape[0] != A.shape[0]:
        raise ValueError("dimension mismatch between A and b")
    scale = float(np.abs(A).max())
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    with warnings.catch_warnings():
        # exact singularity is reported through the pivot check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A)
    min_pivot = float(np.abs(np.diag(lu)).min())
    if min_pivot <= _PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"pivot {min_pivot:.3e} below threshold {_PIVOT_RTOL * scale:.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), b)


def stability_test(M) -> bool:
    """Spectral-radius-below-one test via norm decay of M^256.

    Returns True iff ||M^256||_F^(1/256) < 1 - 1e-6, computed with 8
    repeated squarings. Overflow during squaring means the matrix is
    certainly unstable and yields False. Conservative for highly
    non-normal matrices, exact in the limit.
    """
    P = np.asarray(M, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("stability_test expects a square matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(8):
            P = P @ P
        nrm = float(np.sqrt((P * P).sum()))
    if not math.isfinite(nrm):
        return False
    if nrm == 0.0:
        return True
    return nrm ** (1.0 / 256.0) < 1.0 - 1e-6

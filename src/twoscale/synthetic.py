"""Closed-form coupled problems for each structural regime.

All three problems share the same lower level: the auxiliary target is
an affine map omega*(theta) = W theta + b, and the auxiliary operator
is mean_G(theta, omega) = C (omega - omega*(theta)) with C having a
positive definite symmetric part. The upper-level gradient picks the
regime (quadratic, rank-deficient least squares, or a cosine bowl
field). The coupling matrix D is nonzero by default so that querying F
at a wrong omega genuinely biases the gradient estimate.

Sampled operators add isotropic Gaussian noise of scale sigma_noise,
which gives the variance bound B = sigma_noise^2 * max(d, r).
"""

from __future__ import annotations

import numpy as np

from .conditions import StructuralConstants
from .numerics import SeededRng
from .solver import TwoTimeScaleProblem

__all__ = [
    "NonconvexProblem",
    "PlProblem",
    "QuadraticProblem",
    "make_nonconvex",
    "make_pl",
    "make_quadratic",
]


def _spectral_norm(M) -> float:
    return float(np.linalg.norm(M, 2))


class _CoupledGaussianProblem(TwoTimeScaleProblem):
    """Affine lower level plus isotropic Gaussian sampling noise.

    The batched oracle works on column stacks (R, n, 1): numpy's
    stacked matmul makes one gemv per column, bitwise equal to the
    vector product M @ x (X @ M.T goes through gemm, which sums in
    another order). grad h in that form is `_grad`, by default the
    quadratic-bowl gradient _hess (theta - theta_bar). Every regime has
    h* = 0.
    """

    h_star = 0.0

    def __init__(self, W, b, C, D, sigma_noise):
        self.W = np.asarray(W, float)
        self.b = np.asarray(b, float)
        self.C = np.asarray(C, float)
        self.D = np.asarray(D, float)
        self.sigma_noise = float(sigma_noise)
        self.dim_omega, self.dim_theta = self.W.shape
        self._b = self.b[:, None]

    def _grad(self, theta):
        return np.matmul(self._hess, theta - self._bar)

    def grad_h(self, theta):
        return self._grad(theta[:, None])[:, 0]

    def omega_star(self, theta):
        return self.W @ theta + self.b

    def mean_f(self, theta, omega):
        return self.grad_h(theta) + self.D @ (omega - (self.W @ theta + self.b))

    def mean_g(self, theta, omega):
        return self.C @ (omega - (self.W @ theta + self.b))

    def sample(self, theta, omega, env, rng: SeededRng):
        """One normal block: decision-operator noise, then auxiliary."""
        X = np.concatenate((theta, omega))[None, :, None]
        S = np.empty_like(X)
        self.apply(X, [env], self.draw(rng, 1), [rng], S)
        return S[0, :self.dim_theta, 0], S[0, self.dim_theta:, 0], None

    def draw(self, rng: SeededRng, count: int):
        """`count` columns of d + r normals scaled by sigma_noise; None
        without noise. One call of `normal` when d + r is even: its
        Box-Muller pairs then never straddle two samples, so the columns
        are those of `count` draws."""
        n = self.dim_theta + self.dim_omega
        if not self.sigma_noise > 0.0:
            return None
        z = (np.stack([rng.normal(n) for _ in range(count)]) if n % 2
             else rng.normal(count * n).reshape(count, n))
        return (self.sigma_noise * z)[:, :, None]

    def apply(self, X, envs, noise, rngs, S):
        d = self.dim_theta
        theta = X[:, :d]
        dw = X[:, d:] - (np.matmul(self.W, theta) + self._b)
        np.add(self._grad(theta), np.matmul(self.D, dw), out=S[:, :d])
        np.matmul(self.C, dw, out=S[:, d:])
        if noise is not None:
            S += noise

    def _constants(self, upper_norms, mu_h) -> StructuralConstants:
        """L = the largest of 1, the upper level's norms and the shared
        lower level's; mu_G and B are the lower level's and the noise's."""
        L = max(1.0, *upper_norms, _spectral_norm(self.D),
                _spectral_norm(self.C @ self.W), _spectral_norm(self.C),
                _spectral_norm(self.W))
        mu_G = float(np.linalg.eigvalsh(0.5 * (self.C + self.C.T)).min())
        B = self.sigma_noise**2 * max(self.dim_theta, self.dim_omega)
        return StructuralConstants(L=L, mu_G=mu_G, mu_h=mu_h, B=B)


class QuadraticProblem(_CoupledGaussianProblem):
    """Strongly convex upper level h = (1/2)(theta-tb)' Q_h (theta-tb)."""

    def __init__(self, Q_h, theta_bar, W, b, C, D, sigma_noise):
        super().__init__(W, b, C, D, sigma_noise)
        self.Q_h = np.asarray(Q_h, float)
        self.theta_bar = np.asarray(theta_bar, float)
        self._hess, self._bar = self.Q_h, self.theta_bar[:, None]
        self.theta_star = self.theta_bar.copy()

    def h(self, theta):
        d = theta - self.theta_bar
        return 0.5 * float(d @ (self.Q_h @ d))

    def structural_constants(self) -> StructuralConstants:
        nQ = _spectral_norm(self.Q_h)
        nFth = _spectral_norm(self.Q_h - self.D @ self.W)
        mu_h = float(np.linalg.eigvalsh(0.5 * (self.Q_h + self.Q_h.T)).min())
        return self._constants((nQ, nFth), mu_h)


class PlProblem(_CoupledGaussianProblem):
    """Gradient-dominated upper level h = (1/2)||A_ls (theta-tb)||^2.

    A_ls is rank deficient, so minimizers form an affine subspace and
    only the gradient-dominance constant (smallest nonzero eigenvalue
    of A_ls' A_ls) controls convergence of h itself. h* = 0.
    """

    def __init__(self, A_ls, theta_bar, W, b, C, D, sigma_noise):
        super().__init__(W, b, C, D, sigma_noise)
        self.A_ls = np.asarray(A_ls, float)
        self.theta_bar = np.asarray(theta_bar, float)
        self.H = self.A_ls.T @ self.A_ls
        self._hess, self._bar = self.H, self.theta_bar[:, None]

    def h(self, theta):
        v = self.A_ls @ (theta - self.theta_bar)
        return 0.5 * float(v @ v)

    def structural_constants(self) -> StructuralConstants:
        nH = _spectral_norm(self.H)
        nFth = _spectral_norm(self.H - self.D @ self.W)
        eigs = np.linalg.eigvalsh(self.H)
        mu_h = float(eigs[eigs > 1e-9 * max(1.0, eigs.max())].min())
        return self._constants((nH, nFth), mu_h)


class NonconvexProblem(_CoupledGaussianProblem):
    """Nonconvex upper level h = sum_i (1 - cos theta_i).

    grad h = sin(theta) is 1-Lipschitz; stationary points sit at
    integer multiples of pi. `theta0`, where runs start, is a point away
    from stationarity, with entries in (0, pi).
    """

    def __init__(self, d, W, b, C, D, sigma_noise, theta0):
        super().__init__(W, b, C, D, sigma_noise)
        assert self.dim_theta == d
        self.theta0 = np.asarray(theta0, float)

    def h(self, theta):
        return float(np.sum(1.0 - np.cos(theta)))

    def _grad(self, theta):
        return np.sin(theta)

    def structural_constants(self) -> StructuralConstants:
        # theta-Jacobian of mean F is diag(cos theta) - D W, bounded by 1 + ||D W||
        return self._constants((1.0 + _spectral_norm(self.D @ self.W),), None)


def _scaled_to(M, target_norm):
    nrm = _spectral_norm(M)
    return M * (target_norm / nrm) if nrm > 0 else M


def _lower_level(rng: SeededRng, d: int, r: int, coupling: float, skew: float):
    """Draw (W, b, C, D): W, D rescaled to moderate spectral norms and
    C = I + pure skew part, so mu_G = 1 exactly."""
    W = _scaled_to(rng.normal(r * d).reshape(r, d), 0.5)
    b = rng.normal(r)
    S0 = rng.normal(r * r).reshape(r, r)
    S = 0.5 * (S0 - S0.T)
    C = np.eye(r) + _scaled_to(S, skew)
    D = _scaled_to(rng.normal(d * r).reshape(d, r), coupling)
    return W, b, C, D


def _random_orthogonal(rng: SeededRng, n: int):
    Qm, Rm = np.linalg.qr(rng.normal(n * n).reshape(n, n))
    return Qm * np.sign(np.diag(Rm))


def make_quadratic(d: int, r: int, seed, condition_number: float = 10.0,
                   sigma_noise: float = 0.1, coupling: float = 0.5):
    """Seeded strongly convex instance with Q_h spectrum in [1, cond].

    Returns (problem, constants). The reported constants are exact:
    mu_h = 1 and mu_G = 1 by construction.
    """
    if d < 1 or r < 1:
        raise ValueError("dimensions must be >= 1")
    if condition_number < 1.0:
        raise ValueError("condition_number must be >= 1")
    rng = SeededRng(seed)
    U = _random_orthogonal(rng, d)
    eigs = np.linspace(1.0, condition_number, d)
    Q_h = U @ np.diag(eigs) @ U.T
    Q_h = 0.5 * (Q_h + Q_h.T)
    theta_bar = rng.normal(d)
    W, b, C, D = _lower_level(rng, d, r, coupling, skew=0.3)
    problem = QuadraticProblem(Q_h, theta_bar, W, b, C, D, sigma_noise)
    return problem, problem.structural_constants()


def make_pl(d: int, r: int, seed, rank: int | None = None,
            condition_number: float = 10.0, sigma_noise: float = 0.1,
            coupling: float = 0.5):
    """Seeded gradient-dominated instance; A_ls has the given rank < d."""
    if rank is None:
        rank = max(1, d - 2)
    if not 1 <= rank < d:
        raise ValueError(f"rank must be in [1, d), got {rank}")
    rng = SeededRng(seed)
    Um = _random_orthogonal(rng, d)[:, :rank]
    Vd = _random_orthogonal(rng, d)[:rank, :]
    s = np.sqrt(np.linspace(1.0, condition_number, rank))
    A_ls = Um @ np.diag(s) @ Vd
    theta_bar = rng.normal(d)
    W, b, C, D = _lower_level(rng, d, r, coupling, skew=0.3)
    problem = PlProblem(A_ls, theta_bar, W, b, C, D, sigma_noise)
    return problem, problem.structural_constants()


def make_nonconvex(d: int, r: int, seed, sigma_noise: float = 0.1,
                   coupling: float = 0.5):
    """Seeded cosine-bowl instance; theta0 entries drawn in (0.2, 0.8)*pi."""
    rng = SeededRng(seed)
    W, b, C, D = _lower_level(rng, d, r, coupling, skew=0.3)
    theta0 = np.pi * (0.2 + 0.6 * rng.uniform(d))
    problem = NonconvexProblem(d, W, b, C, D, sigma_noise, theta0)
    return problem, problem.structural_constants()

"""Randomized Nystrom approximation, whose one regulariser is the floor on
its eigendecomposed core, the Nystrom preconditioner, and pivoted Cholesky."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gramian import DenseOperator

__all__ = [
    "NystromFactor",
    "NystromPreconditioner",
    "nystrom_approximate",
    "effective_dimension",
    "pivoted_cholesky",
]


PIVOT_TOL = 1e-12  # residual diagonal below this times max(diag, 1) is exhausted


@dataclass(frozen=True)
class NystromFactor:
    """Low-rank eigenpair estimate: G ~= U diag(eigenvalues) U^T."""

    basis: np.ndarray  # (p, l), orthonormal columns
    eigenvalues: np.ndarray  # (l,), nonnegative, descending

    def __post_init__(self):
        if np.any(self.eigenvalues < 0):
            raise ValueError("eigenvalue estimates must be nonnegative")
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalue estimates must be sorted descending")

    def dense(self, k=None):
        """Dense reconstruction, optionally truncated to rank k."""
        u = self.basis[:, :k]
        return (u * self.eigenvalues[:k]) @ u.T


def _test_matrix(rng, p, rank, basis):
    """Orthonormal (p, rank) test matrix: the first ``rank`` columns of
    ``basis`` (orthonormal columns) when it has that many; otherwise the Q
    of [basis, fresh Gaussian columns], a cold sketch being the empty-basis
    case.  Householder QR orthogonalises the new columns against the basis."""
    if basis is None:
        basis = np.empty((p, 0))
    k = basis.shape[1]
    if k >= rank:
        return basis[:, :rank]
    omega, _ = np.linalg.qr(np.hstack([basis, rng.standard_normal((p, rank - k))]), mode="reduced")
    return omega


def nystrom_approximate(op, rank, seed, basis=None):
    """Stable randomized Nystrom approximation of an SPSD operator.

    One pass: an orthonormal test matrix Omega, the ``rank`` matvecs
    Y = G Omega as one batched request, the core C = Omega^T Y = V Lam V^T
    by a symmetric eigendecomposition with Lam floored at
    rank * eps * max(Lam), and the thin SVD U S W^T of B = Y V Lam^{-1/2},
    giving G_hat = U S^2 U^T.  The floor is the core's one regulariser: the
    Frobenius-norm shift of Tropp et al.'s Alg. 3 only keeps a Cholesky of
    the core from failing.  All ``rank`` columns are kept.  Given ``basis`` (p x k,
    orthonormal columns, e.g. the previous factor's basis of a slowly
    changing operator), the test matrix is its first ``rank`` columns, or,
    when ``rank`` exceeds k, the Q of [basis, rank - k Gaussian columns]:
    one step of subspace iteration.  Without ``basis`` (k = 0) it is the Q of a Gaussian
    matrix.  ``seed`` is anything ``np.random.default_rng`` takes; a Generator is drawn in place.

    Raises ``ValueError`` when the core shows that the operator is not
    PSD: it has no positive eigenvalue, or a negative one larger in
    magnitude than sqrt(eps) * max(Lam), which rounding cannot produce.
    """
    if isinstance(op, np.ndarray):
        op = DenseOperator(op)
    p = op.dim
    if not 1 <= rank <= p:
        raise ValueError(f"rank must be in [1, {p}], got {rank}")
    if basis is not None and (basis.ndim != 2 or basis.shape[0] != p):
        raise ValueError(f"basis must have shape ({p}, k), got {basis.shape}")
    eps = np.finfo(float).eps
    omega = _test_matrix(np.random.default_rng(seed), p, rank, basis)
    y = op.matmat(omega)
    lam, v = np.linalg.eigh(omega.T @ y)  # ascending
    if not (lam[-1] > 0 and lam[0] >= -np.sqrt(eps) * lam[-1]):
        raise ValueError(
            f"sketch core eigenvalues span [{lam[0]:.3e}, {lam[-1]:.3e}]: "
            "the operator is zero or not positive semidefinite"
        )
    lam = np.maximum(lam, rank * eps * lam[-1])
    u, s, _ = np.linalg.svd(y @ (v / np.sqrt(lam)), full_matrices=False)
    return NystromFactor(u, s**2)


class NystromPreconditioner:
    """Inverse preconditioner for (G + mu I) from a Nystrom factor.

    P^{-1} = I + U diag(c) U^T with c = (lam_l + mu) / (Lam + mu) - 1 in
    (-1, 0]: the paper's (lam_l + mu) U (Lam + mu I)^{-1} U^T + (I - U U^T).
    c_l = 0 exactly, so u_l passes unchanged and the l-th column serves only
    the rank rule and the next basis.  P^{-1} is SPD as lam_l + mu > 0.
    """

    def __init__(self, factor, mu):
        if factor.eigenvalues[-1] + mu <= 0:
            raise ValueError("need smallest eigenvalue estimate + mu > 0")
        self.factor = factor
        self._coeff = (factor.eigenvalues[-1] + mu) / (factor.eigenvalues + mu) - 1.0

    def apply(self, v):
        u = self.factor.basis
        return v + u @ (self._coeff * (u.T @ v))

    def dense_inverse(self):
        """Dense P^{-1} (test oracle)."""
        u = self.factor.basis
        return np.eye(u.shape[0]) + (u * self._coeff) @ u.T


def effective_dimension(eigs, mu):
    """Smoothed count of eigenvalues above mu: sum lam_i / (lam_i + mu)."""
    eigs = np.asarray(eigs, dtype=float)
    if mu <= 0:
        raise ValueError("mu must be positive")
    if np.any(eigs < 0):
        raise ValueError("eigenvalues must be nonnegative")
    return float(np.sum(eigs / (eigs + mu)))


def pivoted_cholesky(matrix, rank, strategy, seed=None):
    """Rank-``rank`` partial Cholesky factor of an SPSD matrix G.

    Pivot strategies: ``greedy`` (largest residual diagonal) and ``rp``
    (random, proportional to the residual diagonal).  Returns (F, pivots)
    with F F^T ~= G; equals the column Nystrom approximation on the pivot
    set.
    """
    matrix = DenseOperator(matrix).matrix  # float64, and square or ValueError
    p = matrix.shape[0]
    if strategy not in ("greedy", "rp"):
        raise ValueError(f"unknown pivot strategy {strategy!r}")
    rng = np.random.default_rng(seed)
    diag = matrix.diagonal().copy()
    tol = PIVOT_TOL * max(diag.max(initial=0.0), 1.0)
    factor = np.zeros((p, rank))
    pivots = []
    for t in range(rank):
        if np.any(diag < -tol):
            raise ArithmeticError("residual diagonal went negative beyond tolerance")
        active = diag > tol
        if not np.any(active):
            break  # residual numerically zero: factor is already exact
        if strategy == "greedy":
            i = int(np.argmax(diag))
        else:  # rp
            probs = np.clip(diag, 0.0, None)
            probs /= probs.sum()
            i = int(rng.choice(p, p=probs))
            if not active[i]:  # numerically exhausted pivot; fall back
                i = int(np.argmax(diag))
        col = matrix[:, i] - factor[:, :t] @ factor[i, :t]
        factor[:, t] = col / np.sqrt(diag[i])
        diag -= factor[:, t] ** 2
        diag[i] = 0.0
        pivots.append(i)
    return factor, pivots

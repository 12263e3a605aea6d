"""Conjugate gradient and preconditioned conjugate gradient, matrix-free."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SolveReport", "pcg"]

RECOMPUTE_EVERY = 50  # iterations between true-residual recomputations


@dataclass
class SolveReport:
    """Outcome of one (P)CG solve."""

    solution: np.ndarray
    iterations: int
    relative_residual: float
    converged: bool
    breakdown: bool = False


def pcg(op, b, rel_tol, maxit, precond=None):
    """Solve op x = b from x0 = 0 with (preconditioned) conjugate gradient.

    ``op`` has a ``matvec`` and must be SPD (the caller guarantees it,
    e.g. G + mu I with mu > 0); ``precond``, if given, has an ``apply``.
    The stopping test uses the unpreconditioned relative residual
    ||r|| / ||b||.  The recursive residual is replaced by the true
    residual every ``RECOMPUTE_EVERY`` iterations to bound drift, and
    once more on exit; the operator's own ``matvec_count`` counts those
    recomputations along with the iterations' matvecs.

    On a breakdown (p^T A p not > 0, so NaN too, signalling a non-SPD or
    non-finite operator or severe roundoff) the best iterate so far is
    returned with ``converged=False`` and ``breakdown=True``.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    if maxit < 1:
        raise ValueError("maxit must be >= 1")
    b = np.asarray(b, dtype=float)
    norm_b = np.linalg.norm(b)
    x = np.zeros_like(b)
    if norm_b == 0.0:
        return SolveReport(x, 0, 0.0, True)

    r = b.copy()
    z = precond.apply(r) if precond else r
    d = z.copy()
    rz = float(r @ z)
    iterations = 0
    breakdown = False

    for it in range(1, maxit + 1):
        ad_ = op.matvec(d)
        dad = float(d @ ad_)
        if not dad > 0.0:
            breakdown = True
            break
        alpha = rz / dad
        x = x + alpha * d
        iterations = it
        if it % RECOMPUTE_EVERY == 0:
            r = b - op.matvec(x)
        else:
            r = r - alpha * ad_
        rel_res = np.linalg.norm(r) / norm_b
        if rel_res <= rel_tol:
            break
        z = precond.apply(r) if precond else r
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        d = z + beta * d

    # one true-residual evaluation to report a trustworthy final residual; the
    # report holds plain Python scalars, so it serialises whatever type rel_tol has
    r_true = b - op.matvec(x)
    rel_res = float(np.linalg.norm(r_true) / norm_b)
    converged = not breakdown and bool(rel_res <= rel_tol)
    return SolveReport(x, iterations, rel_res, converged, breakdown)

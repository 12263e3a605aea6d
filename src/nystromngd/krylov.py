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
    matvecs: int
    converged: bool
    breakdown: bool = False


def pcg(op, b, rel_tol, maxit, precond=None):
    """Solve op x = b from x0 = 0 with (preconditioned) conjugate gradient.

    ``op`` is a callable or an object with ``matvec``; it must be SPD
    (the caller guarantees it, e.g. G + mu I with mu > 0).  The stopping
    test uses the unpreconditioned relative residual ||r|| / ||b||.  The
    recursive residual is replaced by the true residual every
    ``RECOMPUTE_EVERY`` iterations to bound drift, and once more on
    exit; those recomputations are counted as matvecs.

    On a breakdown (p^T A p <= 0, signalling a non-SPD operator or
    severe roundoff) the best iterate so far is returned with
    ``converged=False`` and ``breakdown=True``.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    if maxit < 1:
        raise ValueError("maxit must be >= 1")
    matvec = op.matvec if hasattr(op, "matvec") else op
    apply_p = (precond.apply if hasattr(precond, "apply") else precond) if precond else None

    b = np.asarray(b, dtype=float)
    norm_b = np.linalg.norm(b)
    x = np.zeros_like(b)
    if norm_b == 0.0:
        return SolveReport(x, 0, 0.0, 0, True)

    r = b.copy()
    z = apply_p(r) if apply_p else r
    d = z.copy()
    rz = float(r @ z)
    matvecs = 0
    iterations = 0
    breakdown = False

    for it in range(1, maxit + 1):
        ad_ = matvec(d)
        matvecs += 1
        dad = float(d @ ad_)
        if dad <= 0.0:
            breakdown = True
            break
        alpha = rz / dad
        x = x + alpha * d
        iterations = it
        if it % RECOMPUTE_EVERY == 0:
            r = b - matvec(x)
            matvecs += 1
        else:
            r = r - alpha * ad_
        rel_res = np.linalg.norm(r) / norm_b
        if rel_res <= rel_tol:
            break
        z = apply_p(r) if apply_p else r
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        d = z + beta * d

    # one true-residual evaluation to report a trustworthy final residual
    r_true = b - matvec(x)
    matvecs += 1
    rel_res = float(np.linalg.norm(r_true) / norm_b)
    converged = (not breakdown) and rel_res <= rel_tol
    return SolveReport(x, iterations, rel_res, matvecs, converged, breakdown)

"""Outer optimizers: Nystrom-preconditioned NGD and its baselines.

One loop, :func:`run_optimizer`, runs every optimizer: it takes one step
and appends a :class:`RunRecord` per iteration.  Each optimizer is a
factory ``(problem, theta0, config, quad) -> step`` whose closure holds
that optimizer's state; ``step(theta, loss)`` returns ``(theta_next,
loss_next, StepReport)``, where ``loss_next`` is the loss the line search
accepted, so the loop evaluates the loss only once before the first step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .gramian import GramianOperator, ShiftedOperator, assemble_dense
from .krylov import pcg
from .sketch import NystromPreconditioner, nystrom_approximate

EPS_MACH = np.finfo(float).eps
BFGS_GUARD = 5000  # largest p for which the dense p x p inverse Hessian is built
# Armijo backtracking: step factor per rejected trial, trials after the
# first, and the fraction of the predicted decrease a step must achieve
LS_SHRINK = 0.5
LS_MAX_BACKTRACKS = 30
LS_SUFFICIENT_DECREASE = 1e-4
MU_FLOOR_COEFF = 1e-4  # c in the damping floor c * L^2

__all__ = [
    "NystromNgdConfig",
    "RunRecord",
    "StepReport",
    "adapt_mu",
    "adapt_rank",
    "backtracking_linesearch",
    "bfgs_update",
    "run_optimizer",
    "nystrom_ngd_run",
    "ngd_cg_run",
    "ngd_dense_direction",
    "OPTIMIZER_NAMES",
]


@dataclass(frozen=True)
class NystromNgdConfig:
    """Hyperparameters of the preconditioned natural-gradient loop."""

    ell0: int = 10
    ell_max: int | None = None  # None -> min(500, p // 2) at run time
    gamma: float = 1e6
    cg_maxit: int = 20
    kappa: float = 0.1
    rank_ratio: float = 10.0
    iterations: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.ell0 < 1:
            raise ValueError("need ell0 >= 1")
        if self.ell_max is not None and self.ell0 > self.ell_max:
            raise ValueError("need 1 <= ell0 <= ell_max")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.cg_maxit < 1:
            raise ValueError("need cg_maxit >= 1")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must be in (0, 1)")
        if self.rank_ratio <= 0:
            raise ValueError("rank_ratio must be positive")


@dataclass(frozen=True)
class RunRecord:
    """One optimizer iteration in the trace."""

    iteration: int
    loss: float
    h1_rel_error: float
    mu: float
    ell: int
    pcg_iters: int
    matvecs: int  # cumulative
    seconds: float


@dataclass(frozen=True)
class StepReport:
    """What one optimizer step reports to run_optimizer; matvecs are this step's."""

    mu: float = 0.0
    ell: int = 0
    pcg_iters: int = 0
    matvecs: int = 0


def adapt_mu(lam1, gamma, loss, coeff):
    """Damping: mu = max(gamma * eps_mach * lam1, coeff * L^2).

    The first term scales the top eigenvalue estimate; the numerical-rank
    cutoff p*eps*lam1 sits at the rounding floor of the Gramian, so the
    default gamma = 1e6 damps above that floor.  The floor, in the loss L,
    enforces stronger damping early on.
    """
    if lam1 < 0 or gamma <= 0:
        raise ValueError("need lam1 >= 0 and gamma > 0")
    return max(gamma * EPS_MACH * lam1, coeff * abs(loss) ** 2.0)


def adapt_rank(eigenvalues, mu, ell, ell_max, ratio=10.0):
    """Next sketch rank from the estimated spectrum.

    If the smallest estimate still exceeds ratio*mu the rank doubles
    (capped); otherwise it shrinks to the first index below the
    threshold plus an offset of one.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    threshold = ratio * mu
    if eigenvalues[-1] > threshold:
        return min(2 * ell, ell_max)
    first_below = int(np.argmax(eigenvalues < threshold)) + 1  # 1-based index
    return min(first_below + 1, ell_max)


def backtracking_linesearch(theta, direction, loss_fn, grad_dot_dir, loss0):
    """Armijo backtracking along theta - alpha * direction.

    ``loss0`` is the caller's ``loss_fn(theta)``.  Returns (alpha,
    new_loss); alpha = 0.0 flags failure (no decrease found), in which
    case new_loss is loss0.  A NaN trial loss fails the Armijo test, so it
    backtracks like any other rejected step.
    """
    alpha = 1.0
    for _ in range(LS_MAX_BACKTRACKS + 1):
        loss_new = loss_fn(theta - alpha * direction)
        if loss_new <= loss0 - LS_SUFFICIENT_DECREASE * alpha * grad_dot_dir:
            return alpha, loss_new
        alpha *= LS_SHRINK
    return 0.0, loss0


def _descend(problem, quad, theta, loss, g, direction):
    """Line search along -direction; returns (theta_next, loss_next, alpha),
    where theta_next is theta itself and loss_next is ``loss`` when no
    decrease was found (alpha = 0)."""
    alpha, loss_next = backtracking_linesearch(
        theta,
        direction,
        lambda th: problem.loss_value(th, quad),
        float(g @ direction),
        loss,
    )
    return (theta - alpha * direction if alpha > 0.0 else theta), loss_next, alpha


def _jacobian_buffer(problem, theta0, quad):
    """The (rows, p) array a run assembles every step's J into."""
    return np.empty((problem.metric_weights(quad).shape[0], theta0.shape[0]))


def bfgs_update(h, s, y):
    """Inverse-Hessian BFGS update without matrix-matrix products.

    H+ = H + [rho + rho^2 y^T(Hy)] s s^T - rho [(Hy) s^T + s (Hy)^T],
    rho = 1 / (s^T y).  Skipped (H returned unchanged) when the
    curvature condition s^T y > 0 fails.
    """
    sy = float(s @ y)
    if sy <= 0.0:
        return h
    rho = 1.0 / sy
    hy = h @ y
    coeff = rho + rho**2 * float(y @ hy)
    return h + coeff * np.outer(s, s) - rho * (np.outer(hy, s) + np.outer(s, hy))


def _resolve_ell_max(config, p):
    """Explicit caps are honored (clamped to p); the default is the
    desk-scale rule min(500, p/2)."""
    if config.ell_max is not None:
        return min(config.ell_max, p)
    return max(min(500, p // 2), min(config.ell0, p))


def _h1(problem, theta, quad_eval):
    if quad_eval is None:
        return float("nan")
    return problem.h1_relative_error(theta, quad_eval)


def _cg_rel_tol(kappa, grad_norm):
    # clamp away from the closed interval bounds required by pcg
    return min(max(min(kappa, grad_norm), 1e-300), 1.0 - 1e-16)


def _nystrom_ngd(problem, theta0, config, quad):
    """Natural gradient descent with a randomized Nystrom preconditioner.

    Per step: assemble the residual Jacobian J at the current iterate with
    the loss gradient, wrap J as the matrix-free Gramian, sketch the Gramian
    at the current rank, adapt the damping from the top eigenvalue
    estimate, run PCG on the damped system, backtrack along the resulting
    direction, then adapt the rank from the estimated spectrum.  Each
    sketch's test matrix is the previous step's Nystrom basis (a fresh
    Gaussian one on the first step), topped up with Gaussian columns when
    the rank grows.  The damping floor is ``MU_FLOOR_COEFF * L^2``; a
    failed line search raises it tenfold for the next step.
    """
    ell_max = _resolve_ell_max(config, theta0.shape[0])
    ell = min(config.ell0, ell_max)
    rng = np.random.default_rng(config.seed)
    floor_boost = 1.0
    basis = None  # the previous step's Nystrom basis
    jac = _jacobian_buffer(problem, theta0, quad)

    def step(theta, loss):
        nonlocal ell, floor_boost, basis
        g = problem.loss_grad(theta, quad, out=jac)
        gop = GramianOperator(jac, problem.metric_weights(quad))
        grad_norm = float(np.linalg.norm(g))
        factor = nystrom_approximate(
            gop, ell, seed=int(rng.integers(2**63)), basis=basis
        )
        basis = factor.basis
        mu = adapt_mu(
            factor.eigenvalues[0], config.gamma, loss, MU_FLOOR_COEFF * floor_boost
        )
        if mu <= 0.0:
            mu = config.gamma * EPS_MACH  # all-zero spectrum with zero floor
        report = pcg(
            ShiftedOperator(gop, mu),
            g,
            _cg_rel_tol(config.kappa, grad_norm),
            config.cg_maxit,
            precond=NystromPreconditioner(factor, mu),
        )
        theta_next, loss_next, alpha = _descend(
            problem, quad, theta, loss, g, report.solution
        )
        floor_boost = 10.0 * floor_boost if alpha == 0.0 else 1.0
        done = StepReport(mu, ell, report.iterations, gop.matvec_count)
        ell = adapt_rank(factor.eigenvalues, mu, ell, ell_max, ratio=config.rank_ratio)
        return theta_next, loss_next, done

    return step


def _baseline_mu(loss, cap=1e-5):
    """Damping rule used for the unpreconditioned/dense NGD baselines."""
    return max(min(cap, loss), 1e-14)


def _ngd_cg(problem, theta0, config, quad):
    """Unpreconditioned NGD-CG baseline: same tolerance rule, CG capped at
    cg_maxit + ell_max iterations."""
    maxit_total = config.cg_maxit + _resolve_ell_max(config, theta0.shape[0])
    jac = _jacobian_buffer(problem, theta0, quad)

    def step(theta, loss):
        mu = _baseline_mu(loss)
        g = problem.loss_grad(theta, quad, out=jac)
        gop = GramianOperator(jac, problem.metric_weights(quad))
        report = pcg(
            ShiftedOperator(gop, mu),
            g,
            _cg_rel_tol(config.kappa, float(np.linalg.norm(g))),
            maxit_total,
        )
        theta_next, loss_next, _ = _descend(
            problem, quad, theta, loss, g, report.solution
        )
        done = StepReport(mu, 0, report.iterations, gop.matvec_count)
        return theta_next, loss_next, done

    return step


def ngd_dense_direction(gop, g, mu):
    """(G + mu I)^+ g from the densely assembled Gramian, by an SVD
    pseudoinverse with the numerical-rank cutoff p*eps*s1."""
    matrix = assemble_dense(gop) + mu * np.eye(gop.dim)
    u, s, vt = np.linalg.svd(matrix, hermitian=True)
    cutoff = matrix.shape[0] * EPS_MACH * s[0]
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return vt.T @ (inv * (u.T @ g))


def _ngd_dense(problem, theta0, config, quad):
    """Oracle NGD baseline: dense assembly and pseudoinverse (p <= 2000)."""
    jac = _jacobian_buffer(problem, theta0, quad)

    def step(theta, loss):
        mu = _baseline_mu(loss)
        g = problem.loss_grad(theta, quad, out=jac)
        gop = GramianOperator(jac, problem.metric_weights(quad))
        direction = ngd_dense_direction(gop, g, mu)
        theta_next, loss_next, _ = _descend(problem, quad, theta, loss, g, direction)
        return theta_next, loss_next, StepReport(mu, matvecs=gop.matvec_count)

    return step


def _gradient_descent(problem, theta0, config, quad):
    """Plain gradient descent with Armijo backtracking."""
    jac = _jacobian_buffer(problem, theta0, quad)

    def step(theta, loss):
        g = problem.loss_grad(theta, quad, out=jac)
        theta_next, loss_next, _ = _descend(problem, quad, theta, loss, g, g)
        return theta_next, loss_next, StepReport()

    return step


def _bfgs(problem, theta0, config, quad):
    """Dense BFGS baseline using the rank-one-structured inverse update."""
    p = theta0.shape[0]
    if p > BFGS_GUARD:
        raise ValueError(f"dense BFGS guard: p={p} exceeds {BFGS_GUARD}")
    h = np.eye(p)
    jac = _jacobian_buffer(problem, theta0, quad)
    g = problem.loss_grad(theta0, quad, out=jac)

    def step(theta, loss):
        nonlocal h, g
        theta_next, loss_next, alpha = _descend(problem, quad, theta, loss, g, h @ g)
        if alpha > 0.0:
            g_next = problem.loss_grad(theta_next, quad, out=jac)
            h = bfgs_update(h, theta_next - theta, g_next - g)
            g = g_next
        return theta_next, loss_next, StepReport()

    return step


_OPTIMIZERS = {
    "nystrom_ngd": _nystrom_ngd,
    "ngd_cg": _ngd_cg,
    "ngd_dense": _ngd_dense,
    "gd": _gradient_descent,
    "bfgs": _bfgs,
}
OPTIMIZER_NAMES = tuple(_OPTIMIZERS)


def run_optimizer(
    name, problem, theta0, config, quad, quad_eval=None, h1_stop=None, matvec_budget=None
):
    """Run optimizer ``name`` for up to ``config.iterations`` steps.

    Each record holds the loss before the step, the relative H1 error
    after it (NaN without ``quad_eval``), and the cumulative matvecs.
    The loss is evaluated once here; after that each step hands back the
    loss its line search accepted.  The loop stops early once that H1
    error is at most ``h1_stop``, or once the matvecs reach
    ``matvec_budget``; a non-finite loss raises ``NonFiniteError``.
    Returns (theta_final, [RunRecord, ...]).
    """
    if name not in _OPTIMIZERS:
        raise KeyError(f"unknown optimizer {name!r}; available: {OPTIMIZER_NAMES}")
    theta = np.asarray(theta0, dtype=float)
    step = _OPTIMIZERS[name](problem, theta, config, quad)
    records = []
    total_matvecs = 0
    tic = time.perf_counter()
    loss = problem.loss_value(theta, quad)
    for k in range(config.iterations):
        if not np.isfinite(loss):
            raise ad.NonFiniteError(f"non-finite loss at iteration {k}")
        theta, loss_next, report = step(theta, loss)
        total_matvecs += report.matvecs
        h1 = _h1(problem, theta, quad_eval)
        toc = time.perf_counter()
        records.append(
            RunRecord(
                iteration=k,
                loss=loss,
                h1_rel_error=h1,
                mu=report.mu,
                ell=report.ell,
                pcg_iters=report.pcg_iters,
                matvecs=total_matvecs,
                seconds=toc - tic,
            )
        )
        tic, loss = toc, loss_next
        if h1_stop is not None and records[-1].h1_rel_error <= h1_stop:
            break
        if matvec_budget is not None and total_matvecs >= matvec_budget:
            break
    return theta, records


def nystrom_ngd_run(problem, theta0, config, quad, quad_eval=None, h1_stop=None):
    """Nystrom-preconditioned NGD through :func:`run_optimizer`; stops
    early once the H1 error on ``quad_eval`` is at most ``h1_stop``."""
    return run_optimizer(
        "nystrom_ngd", problem, theta0, config, quad, quad_eval, h1_stop=h1_stop
    )


def ngd_cg_run(problem, theta0, config, quad, quad_eval=None, matvec_budget=None):
    """Plain NGD-CG through :func:`run_optimizer`; stops early once the
    cumulative matvecs reach ``matvec_budget``."""
    return run_optimizer(
        "ngd_cg", problem, theta0, config, quad, quad_eval, matvec_budget=matvec_budget
    )

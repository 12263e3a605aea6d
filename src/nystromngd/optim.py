"""Outer optimizers: Nystrom-preconditioned NGD and its baselines.

All optimizers consume a problem (loss/gradient/metric stacks on a fixed
quadrature set) and emit a list of per-iteration :class:`RunRecord`.
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

__all__ = [
    "NystromNgdConfig",
    "RunRecord",
    "adapt_mu",
    "adapt_rank",
    "backtracking_linesearch",
    "bfgs_update",
    "nystrom_ngd_run",
    "ngd_cg_run",
    "ngd_dense_run",
    "gradient_descent_run",
    "bfgs_run",
    "ngd_dense_step",
    "ngd_cg_step",
    "gradient_descent_step",
    "OPTIMIZER_NAMES",
]


@dataclass(frozen=True)
class NystromNgdConfig:
    """Hyperparameters of the preconditioned natural-gradient loop."""

    ell0: int = 10
    ell_max: int | None = None  # None -> min(500, p // 2) at run time
    gamma: float | None = None  # None -> parameter count p
    cg_maxit: int = 20
    kappa: float = 0.1
    rank_ratio: float = 10.0
    mu_floor_mode: str = "loss-power"  # loss-power | grad-power | constant
    mu_floor_coeff: float = 1e-4
    mu_floor_exponent: float = 2.0
    ls_shrink: float = 0.5
    ls_max_backtracks: int = 30
    ls_sufficient_decrease: float = 1e-4
    iterations: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.ell0 < 1:
            raise ValueError("need ell0 >= 1")
        if self.ell_max is not None and self.ell0 > self.ell_max:
            raise ValueError("need 1 <= ell0 <= ell_max")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must be in (0, 1)")
        if self.mu_floor_mode not in ("loss-power", "grad-power", "constant"):
            raise ValueError(f"unknown mu floor mode {self.mu_floor_mode!r}")


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


def adapt_mu(lam1, gamma, loss, grad_norm, mode, coeff, exponent):
    """Damping: mu = max(gamma * eps_mach * lam1, floor).

    The first term is the usual numerical-rank cutoff scaled by the top
    eigenvalue estimate; the floor enforces stronger damping early on.
    """
    if lam1 < 0 or gamma <= 0:
        raise ValueError("need lam1 >= 0 and gamma > 0")
    base = gamma * EPS_MACH * lam1
    if mode == "loss-power":
        floor = coeff * abs(loss) ** exponent
    elif mode == "grad-power":
        floor = coeff * grad_norm**exponent
    elif mode == "constant":
        floor = coeff
    else:
        raise ValueError(f"unknown mu floor mode {mode!r}")
    return max(base, floor)


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


def backtracking_linesearch(
    theta,
    direction,
    loss_fn,
    grad_dot_dir,
    loss0,
    shrink=0.5,
    max_backtracks=30,
    sufficient_decrease=1e-4,
):
    """Armijo backtracking along theta - alpha * direction.

    ``loss0`` is the caller's ``loss_fn(theta)``.  Returns (alpha,
    new_loss); alpha = 0.0 flags failure (no decrease found), in which
    case new_loss is loss0.
    """
    alpha = 1.0
    for _ in range(max_backtracks + 1):
        candidate = theta - alpha * direction
        try:
            loss_new = loss_fn(candidate)
        except ad.NonFiniteError:
            loss_new = np.inf
        if loss_new <= loss0 - sufficient_decrease * alpha * grad_dot_dir:
            return alpha, loss_new
        alpha *= shrink
    return 0.0, loss0


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


def _resolve_gamma(config, p):
    return float(config.gamma) if config.gamma is not None else float(p)


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


def nystrom_ngd_run(problem, theta0, config, quad, quad_eval=None, h1_stop=None):
    """Natural gradient descent with a randomized Nystrom preconditioner.

    Per iteration: linearize the metric stack at the current iterate
    (matrix-free Gramian), sketch it at the current rank, adapt the
    damping from the top eigenvalue estimate, run PCG on the damped
    system, backtrack along the resulting direction, then adapt the
    rank from the estimated spectrum.

    With ``h1_stop`` set the loop exits early once the tracked relative
    H1 error (requires ``quad_eval``) falls to or below the target.

    Returns (theta_final, [RunRecord, ...]).
    """
    theta = np.asarray(theta0, dtype=float)
    p = theta.shape[0]
    gamma = _resolve_gamma(config, p)
    ell_max = _resolve_ell_max(config, p)
    ell = min(config.ell0, ell_max)
    rng = np.random.default_rng(config.seed)
    loss_fn = lambda th: problem.loss_value(th, quad)
    records = []
    total_matvecs = 0
    floor_boost = 1.0
    for k in range(config.iterations):
        tic = time.perf_counter()
        loss = loss_fn(theta)
        if not np.isfinite(loss):
            raise ad.NonFiniteError(f"non-finite loss at iteration {k}")
        g = problem.loss_grad(theta, quad)
        grad_norm = float(np.linalg.norm(g))
        gop = GramianOperator.from_problem(problem, theta, quad)
        factor = nystrom_approximate(gop, ell, seed=int(rng.integers(2**63)))
        mu = adapt_mu(
            factor.eigenvalues[0],
            gamma,
            loss,
            grad_norm,
            config.mu_floor_mode,
            config.mu_floor_coeff * floor_boost,
            config.mu_floor_exponent,
        )
        if mu <= 0.0:
            mu = gamma * EPS_MACH  # all-zero spectrum with zero floor
        precond = NystromPreconditioner(factor, mu)
        report = pcg(
            ShiftedOperator(gop, mu),
            g,
            _cg_rel_tol(config.kappa, grad_norm),
            config.cg_maxit,
            precond=precond,
        )
        alpha, _ = backtracking_linesearch(
            theta,
            report.solution,
            loss_fn,
            float(g @ report.solution),
            loss,
            shrink=config.ls_shrink,
            max_backtracks=config.ls_max_backtracks,
            sufficient_decrease=config.ls_sufficient_decrease,
        )
        if alpha == 0.0:
            floor_boost *= 10.0  # no decrease found: damp harder next time
        else:
            theta = theta - alpha * report.solution
            floor_boost = 1.0
        total_matvecs += gop.matvec_count
        records.append(
            RunRecord(
                iteration=k,
                loss=loss,
                h1_rel_error=_h1(problem, theta, quad_eval),
                mu=mu,
                ell=ell,
                pcg_iters=report.iterations,
                matvecs=total_matvecs,
                seconds=time.perf_counter() - tic,
            )
        )
        ell = adapt_rank(factor.eigenvalues, mu, ell, ell_max, ratio=config.rank_ratio)
        if h1_stop is not None and records[-1].h1_rel_error <= h1_stop:
            break
    return theta, records


def _baseline_mu(loss, cap=1e-5):
    """Damping rule used for the unpreconditioned/dense NGD baselines."""
    return max(min(cap, loss), 1e-14)


def ngd_cg_step(problem, theta, quad, mu, kappa, maxit_total, loss):
    """One matrix-free NGD step solved with plain CG (no preconditioner).

    ``loss`` is the loss at theta.
    """
    loss_fn = lambda th: problem.loss_value(th, quad)
    g = problem.loss_grad(theta, quad)
    grad_norm = float(np.linalg.norm(g))
    gop = GramianOperator.from_problem(problem, theta, quad)
    report = pcg(
        ShiftedOperator(gop, mu), g, _cg_rel_tol(kappa, grad_norm), maxit_total
    )
    alpha, _ = backtracking_linesearch(
        theta, report.solution, loss_fn, float(g @ report.solution), loss
    )
    theta_next = theta - alpha * report.solution if alpha > 0.0 else theta
    return theta_next, report, gop.matvec_count


def ngd_cg_run(problem, theta0, config, quad, quad_eval=None, matvec_budget=None):
    """Unpreconditioned NGD-CG baseline: same tolerance rule, CG capped at
    cg_maxit + ell_max iterations.  Stops early once ``matvec_budget``
    cumulative matvecs are exceeded, if given."""
    theta = np.asarray(theta0, dtype=float)
    p = theta.shape[0]
    ell_max = _resolve_ell_max(config, p)
    maxit_total = config.cg_maxit + ell_max
    records = []
    total_matvecs = 0
    loss_fn = lambda th: problem.loss_value(th, quad)
    for k in range(config.iterations):
        tic = time.perf_counter()
        loss = loss_fn(theta)
        mu = _baseline_mu(loss)
        theta, report, used = ngd_cg_step(
            problem, theta, quad, mu, config.kappa, maxit_total, loss
        )
        total_matvecs += used
        records.append(
            RunRecord(
                iteration=k,
                loss=loss,
                h1_rel_error=_h1(problem, theta, quad_eval),
                mu=mu,
                ell=0,
                pcg_iters=report.iterations,
                matvecs=total_matvecs,
                seconds=time.perf_counter() - tic,
            )
        )
        if matvec_budget is not None and total_matvecs >= matvec_budget:
            break
    return theta, records


def ngd_dense_step(problem, theta, quad, mu, loss, guard=2000):
    """One NGD step with a dense SVD pseudoinverse of (G + mu I).

    ``loss`` is the loss at theta.
    """
    g = problem.loss_grad(theta, quad)
    gop = GramianOperator.from_problem(problem, theta, quad)
    dense = assemble_dense(gop, guard=guard) + mu * np.eye(gop.dim)
    direction = _pinv_solve(dense, g)
    loss_fn = lambda th: problem.loss_value(th, quad)
    alpha, _ = backtracking_linesearch(
        theta, direction, loss_fn, float(g @ direction), loss
    )
    theta_next = theta - alpha * direction if alpha > 0.0 else theta
    return theta_next, direction


def _pinv_solve(matrix, rhs):
    """SVD pseudoinverse solve with the numerical-rank cutoff p*eps*s1."""
    u, s, vt = np.linalg.svd(matrix, hermitian=True)
    cutoff = matrix.shape[0] * EPS_MACH * s[0]
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return vt.T @ (inv * (u.T @ rhs))


def ngd_dense_run(problem, theta0, config, quad, quad_eval=None):
    theta = np.asarray(theta0, dtype=float)
    records = []
    loss_fn = lambda th: problem.loss_value(th, quad)
    total_matvecs = 0
    for k in range(config.iterations):
        tic = time.perf_counter()
        loss = loss_fn(theta)
        mu = _baseline_mu(loss)
        theta, _ = ngd_dense_step(problem, theta, quad, mu, loss)
        total_matvecs += theta.shape[0]
        records.append(
            RunRecord(
                iteration=k,
                loss=loss,
                h1_rel_error=_h1(problem, theta, quad_eval),
                mu=mu,
                ell=0,
                pcg_iters=0,
                matvecs=total_matvecs,
                seconds=time.perf_counter() - tic,
            )
        )
    return theta, records


def gradient_descent_step(problem, theta, quad, loss):
    """Plain gradient descent with Armijo backtracking; ``loss`` is the
    loss at theta."""
    g = problem.loss_grad(theta, quad)
    loss_fn = lambda th: problem.loss_value(th, quad)
    alpha, _ = backtracking_linesearch(theta, g, loss_fn, float(g @ g), loss)
    return theta - alpha * g if alpha > 0.0 else theta


def gradient_descent_run(problem, theta0, config, quad, quad_eval=None):
    theta = np.asarray(theta0, dtype=float)
    records = []
    for k in range(config.iterations):
        tic = time.perf_counter()
        loss = problem.loss_value(theta, quad)
        theta = gradient_descent_step(problem, theta, quad, loss)
        records.append(
            RunRecord(
                iteration=k,
                loss=loss,
                h1_rel_error=_h1(problem, theta, quad_eval),
                mu=0.0,
                ell=0,
                pcg_iters=0,
                matvecs=0,
                seconds=time.perf_counter() - tic,
            )
        )
    return theta, records


def bfgs_run(problem, theta0, config, quad, quad_eval=None, guard=5000):
    """Dense BFGS baseline using the rank-one-structured inverse update."""
    theta = np.asarray(theta0, dtype=float)
    p = theta.shape[0]
    if p > guard:
        raise ValueError(f"dense BFGS guard: p={p} exceeds {guard}")
    h = np.eye(p)
    g = problem.loss_grad(theta, quad)
    loss_fn = lambda th: problem.loss_value(th, quad)
    records = []
    for k in range(config.iterations):
        tic = time.perf_counter()
        loss = loss_fn(theta)
        direction = h @ g
        alpha, _ = backtracking_linesearch(
            theta, direction, loss_fn, float(g @ direction), loss
        )
        if alpha > 0.0:
            theta_next = theta - alpha * direction
            g_next = problem.loss_grad(theta_next, quad)
            h = bfgs_update(h, theta_next - theta, g_next - g)
            theta, g = theta_next, g_next
        records.append(
            RunRecord(
                iteration=k,
                loss=loss,
                h1_rel_error=_h1(problem, theta, quad_eval),
                mu=0.0,
                ell=0,
                pcg_iters=0,
                matvecs=0,
                seconds=time.perf_counter() - tic,
            )
        )
    return theta, records


OPTIMIZER_NAMES = ("nystrom_ngd", "ngd_cg", "ngd_dense", "gd", "bfgs")

_RUNNERS = {
    "nystrom_ngd": nystrom_ngd_run,
    "ngd_cg": ngd_cg_run,
    "ngd_dense": ngd_dense_run,
    "gd": gradient_descent_run,
    "bfgs": bfgs_run,
}


def run_optimizer(name, problem, theta0, config, quad, quad_eval=None):
    if name not in _RUNNERS:
        raise KeyError(f"unknown optimizer {name!r}; available: {OPTIMIZER_NAMES}")
    return _RUNNERS[name](problem, theta0, config, quad, quad_eval=quad_eval)

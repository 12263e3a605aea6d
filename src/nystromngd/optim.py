"""Outer optimizers: Nystrom-preconditioned NGD and its baselines.

One loop, :func:`run_optimizer`, runs every optimizer and owns every phase
they share.  Per iteration it assembles the weighted residual s and its
Jacobian A = W^{1/2} J, A into the run's one matrix-free Gramian A^T A, forms
the loss gradient g = A^T s, asks the optimizer for a search direction,
runs the Armijo line search, moves theta, and records the new iterate; a
step that cannot decrease the loss ends the run.  Each optimizer is a factory
``(theta0, config) -> direction`` whose closure holds only its own state;
``direction(theta, loss, g, s, gop)`` returns ``(d, fields)``, ``fields`` a dict of the
RunRecord step fields it sets, from which the loop builds the step's row; only exact NGD
reads s.  Every NGD direction damps by mu = adapt_mu(lam1, L), lam1 the sketch's top
eigenvalue or, in the baselines, g's Rayleigh quotient, and solves by (P)CG or directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .gramian import GramianOperator, ShiftedOperator
from .krylov import pcg
from .sketch import NystromPreconditioner, nystrom_approximate

EPS_MACH = float(np.finfo(float).eps)  # a Python float, as is every mu built from it
BFGS_GUARD = 5000  # largest p for which the dense p x p inverse Hessian is built
# Armijo backtracking: step factor per rejected trial, trials after the
# first, and the fraction of the predicted decrease a step must achieve
LS_SHRINK = 0.5
LS_MAX_BACKTRACKS = 30
LS_SUFFICIENT_DECREASE = 1e-4
MU_FLOOR_COEFF = 1e-4  # c in the damping floor c * L^2
GAMMA = 1e6  # mu >= GAMMA*eps*lam1 stays above G's rounding floor; 1e7 gave outlier seeds
RANK_RATIO = 10.0  # the rank grows while lam_ell >= RANK_RATIO*mu (arXiv:2110.02820)
# PCG's relative tolerance is min(CG_TOL_CAP, CG_TOL_RATIO * mu / lam1).  A residual of tol*|g|
# can leave an error of tol*|g|/mu near mu, and |d| >= |g|/(lam1 + mu), so tol ~ mu/lam1 keeps
# the direction's worst-case relative error level as mu falls
CG_TOL_CAP = 0.1  # binds while mu >= lam1/100
CG_TOL_RATIO = 10.0  # 100 cut NGD-CG's bench reached_frac from 1.0 to 0.8: one of 5 seeds missed
CG_MAXIT = 60  # PCG iteration cap; Nystrom-NGD's solves to H1 <= 1e-4 took at most 42 (seeds 0-7)
RANK_CAP = 500  # no default rank cap exceeds it (_rank_cap)

__all__ = [
    "NystromNgdConfig",
    "RunRecord",
    "adapt_mu",
    "adapt_rank",
    "backtracking_linesearch",
    "bfgs_update",
    "check_optimizer",
    "run_optimizer",
    "nystrom_ngd_run",
    "ngd_cg_run",
    "OPTIMIZER_NAMES",
]


@dataclass(frozen=True)
class NystromNgdConfig:
    """Hyperparameters of the preconditioned natural-gradient loop."""

    ell0: int = 10
    ell_max: int | None = None  # None -> max(_rank_cap(p), ell0) at run time
    iterations: int = 300
    seed: int = 0

    # smallest accepted value of each count (unannotated, so not a field);
    # ExperimentConfig extends it with its own counts and sizes
    _LOWER_BOUNDS = dict(ell0=1, iterations=0, seed=0)

    def __post_init__(self):
        for name, low in self._LOWER_BOUNDS.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.ell_max is not None and self.ell0 > self.ell_max:
            raise ValueError("need 1 <= ell0 <= ell_max")


@dataclass(frozen=True, kw_only=True)
class RunRecord:
    """Trace row k: the iterate theta_k after k steps, with step k's mu,
    ell and PCG iterations.  Those step fields come from the direction's
    ``fields`` dict; one it does not set reads zero, as all do in row 0
    (theta0) and after a zero gradient."""

    iteration: int
    loss: float
    h1_rel_error: float
    mu: float = 0.0
    ell: int = 0
    pcg_iters: int = 0
    matvecs: int  # cumulative
    seconds: float


def adapt_mu(lam1, loss):
    """Every NGD variant's damping: mu = max(GAMMA * eps_mach * lam1, MU_FLOOR_COEFF * L^2).

    The first term scales the top eigenvalue estimate; the numerical-rank
    cutoff p*eps*lam1 sits at the rounding floor of the Gramian, so
    GAMMA = 1e6 damps above that floor.  The floor, in the loss L, keeps
    the first steps damped while the loss is large: without it, mu on
    poisson2d (seed 0) falls from 0.22 to 1.2e-8 at step 1, the rank
    doubles each step, and Nystrom-NGD's median matvecs to H1 <= 1e-3 rise
    by 19-31% per problem, in about as many iterations.  Where both terms
    underflow to 0, mu is GAMMA * eps_mach, so no solve runs undamped.  L^2 is a float64
    square, inf past L ~ 1.34e154 (Python's float ** would raise); the loop never passes one.
    """
    if lam1 < 0:
        raise ValueError("need lam1 >= 0")
    mu = float(max(GAMMA * EPS_MACH * lam1, MU_FLOOR_COEFF * np.abs(loss) ** 2.0))
    return mu or GAMMA * EPS_MACH


def adapt_rank(eigenvalues, mu, ell_max):
    """Next sketch rank from the estimated spectrum, whose length is the current rank.

    If no estimate lies below RANK_RATIO * mu the rank doubles (capped);
    otherwise it shrinks to the first index below that threshold plus an
    offset of one.
    """
    below = np.asarray(eigenvalues, dtype=float) < RANK_RATIO * mu
    if not below.any():
        return min(2 * len(below), ell_max)
    first_below = int(np.argmax(below)) + 1  # 1-based index
    return min(first_below + 1, ell_max)


def backtracking_linesearch(theta, direction, loss_fn, grad_dot_dir, loss0):
    """Armijo backtracking along theta - alpha * direction.

    ``loss0`` is the caller's ``loss_fn(theta)``.  Returns (alpha,
    new_loss); alpha = 0.0 flags failure (no decrease found), in which
    case new_loss is loss0.  A direction that is not a descent direction
    (``grad_dot_dir`` zero, negative or NaN) fails before any trial.  A NaN
    trial loss fails the Armijo test, so it backtracks like any other
    rejected step.
    """
    if not grad_dot_dir > 0.0:
        return 0.0, loss0
    alpha = 1.0
    for _ in range(LS_MAX_BACKTRACKS + 1):
        loss_new = loss_fn(theta - alpha * direction)
        if loss_new <= loss0 - LS_SUFFICIENT_DECREASE * alpha * grad_dot_dir:
            return alpha, loss_new
        alpha *= LS_SHRINK
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


def _rank_cap(p):
    """min(RANK_CAP, p // 2): Nystrom-NGD's default rank cap, and NGD-CG's CG budget past
    CG_MAXIT, so the two spend alike at equal budgets."""
    return min(RANK_CAP, p // 2)


def _cg_rel_tol(mu, lam1):
    """Both CG variants' relative tolerance min(CG_TOL_CAP, CG_TOL_RATIO * mu / lam1), lam1 the
    top eigenvalue estimate; the cap if lam1 <= 0.  No floor: adapt_mu's mu >= GAMMA*eps*lam1."""
    if lam1 <= 0.0:
        return CG_TOL_CAP
    return min(CG_TOL_CAP, CG_TOL_RATIO * mu / lam1)


def _nystrom_ngd(theta0, config):
    """Natural gradient descent with a randomized Nystrom preconditioner.

    Per step: sketch the Gramian at the current rank, damp by adapt_mu of
    the top eigenvalue estimate, run PCG on the damped system, then
    adapt the rank from the estimated spectrum.  Each sketch's test matrix
    is the previous step's Nystrom basis, topped up with Gaussian columns from
    the run's one Generator (config.seed, 4) at the first sketch and at rank growth.
    """
    p = theta0.shape[0]
    ell_max = min(config.ell_max or max(_rank_cap(p), config.ell0), p)
    ell = min(config.ell0, ell_max)
    rng = np.random.default_rng([config.seed, 4])  # the fourth of harness.set_up's streams
    basis = None  # the previous step's Nystrom basis

    def direction(theta, loss, g, s, gop):
        nonlocal ell, basis
        factor = nystrom_approximate(gop, ell, seed=rng, basis=basis)
        basis = factor.basis
        lam1 = factor.eigenvalues[0]
        mu = adapt_mu(lam1, loss)
        tol = _cg_rel_tol(mu, lam1)
        precond = NystromPreconditioner(factor, mu)
        report = pcg(ShiftedOperator(gop, mu), g, tol, CG_MAXIT, precond=precond)
        fields = {"mu": mu, "ell": ell, "pcg_iters": report.iterations}
        ell = adapt_rank(factor.eigenvalues, mu, ell_max)
        return report.solution, fields

    return direction


def _ngd_cg(theta0, config):
    """Unpreconditioned NGD-CG on gop.formed(): adapt_mu of g's Rayleigh quotient
    g^T G g / g^T g <= lam1, one counted matvec, and CG in <= CG_MAXIT + _rank_cap(p) steps
    on G + mu I (no config field is read)."""
    maxit_total = CG_MAXIT + _rank_cap(theta0.shape[0])

    def direction(theta, loss, g, s, gop):
        base = gop.formed()
        lam1 = float(g @ base.matvec(g)) / (float(g @ g) or 1.0)
        mu = adapt_mu(lam1, loss)
        report = pcg(ShiftedOperator(base, mu), g, _cg_rel_tol(mu, lam1), maxit_total)
        return report.solution, {"mu": mu, "pcg_iters": report.iterations}

    return direction


def _ngd_dense(theta0, config):
    """Exact NGD on the smaller side of A: M = gop.dense(), G = A^T A, or K = A A^T if p > rows,
    adapt_mu of g's Rayleigh quotient |A g|^2 / g^T g on either side (A g is no matvec), and
    an LU solve of (M + mu~ I) x = g, or = s, with mu~ = max(mu, min(rows, p)*eps*tr M); d = x,
    or A^T x, as g = A^T s and (G + mu~ I)^-1 A^T = A^T (K + mu~ I)^-1.  mu~ keeps a
    rank-deficient M's solve finite."""
    def direction(theta, loss, g, s, gop):
        matrix = gop.dense()
        n = matrix.shape[0]
        ag = gop.jacobian @ g
        lam1 = float(ag @ ag) / (float(g @ g) or 1.0)
        mu = max(adapt_mu(lam1, loss), n * EPS_MACH * float(np.trace(matrix)))
        matrix[np.diag_indices(n)] += mu
        x = np.linalg.solve(matrix, g if n == gop.dim else s)
        return (x if n == gop.dim else gop.jacobian.T @ x), {"mu": mu}

    return direction


def _gradient_descent(theta0, config):
    """Plain gradient descent: the direction is the gradient itself."""
    return lambda theta, loss, g, s, gop: (g, {})


def _bfgs(theta0, config):
    """Dense BFGS baseline using the rank-one-structured inverse update."""
    h = np.eye(theta0.shape[0])
    previous = None  # (theta, g) at the previous step, which was accepted

    def direction(theta, loss, g, s, gop):
        nonlocal h, previous
        if previous is not None:
            h = bfgs_update(h, theta - previous[0], g - previous[1])
        previous = theta, g
        return h @ g, {}

    return direction


_OPTIMIZERS = {
    "nystrom_ngd": _nystrom_ngd,
    "ngd_cg": _ngd_cg,
    "ngd_dense": _ngd_dense,
    "gd": _gradient_descent,
    "bfgs": _bfgs,
}
OPTIMIZER_NAMES = tuple(_OPTIMIZERS)


def check_optimizer(name, p):
    """Raise ValueError if ``name`` is no optimizer, or is bfgs past BFGS_GUARD: its p x p
    inverse Hessian can outgrow A.  Exact NGD's min(rows, p)^2 matrix never does."""
    if name not in _OPTIMIZERS:
        raise ValueError(f"unknown optimizer {name!r}; available: {OPTIMIZER_NAMES}")
    if name == "bfgs" and p > BFGS_GUARD:
        raise ValueError(f"bfgs guard: p={p} exceeds {BFGS_GUARD}")


def run_optimizer(
    name, problem, theta0, config, quad, quad_eval=None, h1_stop=None, matvec_budget=None
):
    """Run optimizer ``name`` for up to ``config.iterations`` steps.

    Each step takes s and A from one ``problem.residual_jacobian``, A into the run's one
    Gramian, hands g = A^T s and s to the optimizer's direction, and backtracks along it.
    Record k holds theta_k's loss (theta0's is evaluated here, each step's
    is the one its line search accepted), its relative H1 error (NaN
    without ``quad_eval``), and the Gramian's matvecs so far, so n steps
    give n + 1 records and the last describes the returned theta.  After
    any record, theta0's included, the loop stops once its H1 error is at
    most ``h1_stop`` or the matvecs reach ``matvec_budget``; ``h1_stop``
    without ``quad_eval``, which no H1 error could reach, raises
    ``ValueError``.  A step that cannot decrease the loss ends the run:
    its record keeps theta and the previous loss.  That is a line search
    that finds no decrease (none is sought along a d with g^T d not > 0,
    such as a solve that broke down at d = 0), or an exactly zero
    gradient, where every direction is 0 and none is asked for (the record's
    mu, ell and PCG iterations read zero, and its matvecs do not grow).  A
    theta0 loss with no finite square (NaN, inf, or past about 1.34e154, where
    adapt_mu's mu is inf) ends the run at its record too; every later loss
    passed the Armijo test, so it lies below theta0's.  A direction's
    ``fields`` key that RunRecord lacks raises TypeError at that row.
    ``check_optimizer`` runs before anything is evaluated.
    Returns (theta_final, [RunRecord, ...]).
    """
    theta = np.asarray(theta0, dtype=float)
    check_optimizer(name, theta.shape[0])
    if h1_stop is not None and quad_eval is None:
        raise ValueError("h1_stop needs quad_eval: without it every H1 error is NaN")
    direction = _OPTIMIZERS[name](theta, config)
    gop = GramianOperator(np.empty((problem.metric_weights(quad).shape[0], theta.shape[0])))
    records = []
    fields = {}  # row 0, the initialization, took no step
    tic = time.perf_counter()
    loss = problem.loss_value(theta, quad)
    stalled = not np.isfinite(loss * loss)  # no decrease at the last step, or no finite theta0 L^2
    for k in range(config.iterations + 1):
        h1 = float("nan") if quad_eval is None else problem.h1_relative_error(theta, quad_eval)
        toc = time.perf_counter()
        records.append(RunRecord(
            iteration=k, loss=loss, h1_rel_error=h1, matvecs=gop.matvec_count,
            seconds=toc - tic, **fields,
        ))
        tic = toc
        reached = h1_stop is not None and h1 <= h1_stop
        spent = matvec_budget is not None and gop.matvec_count >= matvec_budget
        if stalled or reached or spent or k == config.iterations:
            break
        s, a = problem.residual_jacobian(theta, quad, out=gop.jacobian)
        g = a.T @ s  # the loss gradient, as problem.loss_grad forms it
        alpha, fields = 0.0, {}  # at g = 0 every direction is 0: no step
        if g.any():
            d, fields = direction(theta, loss, g, s, gop)
            alpha, loss = backtracking_linesearch(
                theta, d, lambda th: problem.loss_value(th, quad), float(g @ d), loss
            )
        stalled = alpha == 0.0
        if not stalled:
            theta = theta - alpha * d
    return theta, records


# the two shorthands the acceptance runs and the bench call: run_optimizer with its name bound
nystrom_ngd_run = partial(run_optimizer, "nystrom_ngd")
ngd_cg_run = partial(run_optimizer, "ngd_cg")

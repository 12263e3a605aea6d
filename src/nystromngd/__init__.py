"""Matrix-free natural gradient descent with randomized Nystrom
preconditioning for small neural-network PDE solvers."""

from . import gramian, harness, krylov, model, optim, problems, sketch

__all__ = [
    "model",
    "problems",
    "gramian",
    "sketch",
    "krylov",
    "optim",
    "harness",
]

__version__ = "0.1.0"

"""The paper's claim where it is decided: with more parameters than residual rows,
Nystrom-NGD beats NGD-CG at equal Gramian matvecs.

Criterion 10 (``tests/test_acceptance.py``) tests the claim at p = 337 < 560 rows,
where exact NGD ties Nystrom-NGD on time and the margin is one seed of five.  Here
the net is 32x2, so p = 1185 against 560 rows (640 on heat1p1d, whose boundary adds
its initial slice), on the criterion-10 quadrature of 400 interior and 160 boundary
points.  Each Nystrom-NGD run trains to H1 <= 1e-3; its NGD-CG twin, from the same
seed and so the same quadrature and theta0, trains with the Nystrom run's final
matvecs as its budget and stops at its first record that reaches it, criterion 10's
rule.

The bound of 10x on NGD-CG's H1 over Nystrom-NGD's comes from measurement at this
cell: over poisson2d, heat1p1d and nlpoisson2d at seeds 0-4 the smallest ratio was
55x (median 221x), and the six pairs below give 147-801x.  So 10x leaves a factor of
more than 5 for a change that moves the iterates by draw or rounding.  With the
preconditioner made the identity (``NystromPreconditioner.apply`` returning v, the
sketch, damping and rank rule kept) Nystrom-NGD needs 10098-27245 matvecs to reach
1e-3 on seeds 0-1, and the ratio falls to 0.04-0.36.  The test reads public names
only: ``harness.train``, ``ExperimentConfig`` and ``make_problem``.
"""

from dataclasses import replace

import pytest

from nystromngd.harness import ExperimentConfig, train
from nystromngd.problems import make_problem

WIDTH = 32  # p = 1185
TARGET = 1e-3
RATIO = 10.0  # NGD-CG's H1 at the budget over Nystrom-NGD's, at least


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("problem", ["poisson2d", "heat1p1d", "nlpoisson2d"])
def test_nystrom_ngd_beats_ngd_cg_at_equal_matvecs_with_p_above_rows(problem, seed):
    assert make_problem(problem, WIDTH).topology.param_count == 1185  # > 640 rows
    config = ExperimentConfig(problem=problem, seed=seed, hidden_width=WIDTH)
    _, nys, _ = train(config, h1_stop=TARGET)
    _, cg, _ = train(replace(config, optimizer="ngd_cg"), matvec_budget=nys[-1].matvecs)
    assert nys[-1].h1_rel_error <= TARGET
    assert cg[-1].matvecs >= nys[-1].matvecs  # the twin spent its budget
    assert nys[-1].loss < cg[-1].loss
    assert cg[-1].h1_rel_error >= RATIO * nys[-1].h1_rel_error

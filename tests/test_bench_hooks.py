"""The benchmark's trace hooks still find the library functions they wrap.

``bench/tracer.py`` looks wrapped names up with ``vars(owner)[attr]``, so a
``--trace 1`` run breaks when one of them is renamed or moves to another
class, or when a wrapped function's signature changes under the attribute
functions of ``bench/layers.py``.  These tests install the benchmark's
wrappers on the library modules, run a tiny Gramian, a loss gradient and
two iterations each of Nystrom-NGD and NGD-CG, check that the spans were
recorded and serialise to JSON, and check that the originals are back
afterwards.  No run calls ``autodiff.linearize`` (it is the tests'
derivative reference), so its hooks are only checked to be removed again.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from nystromngd import autodiff, gramian, model, optim, problems, sketch

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def install(tracer):
    load("layers").install(
        tracer, autodiff=autodiff, gramian=gramian, sketch=sketch,
        optim=optim, problems=problems,
    )


def test_trace_hooks_record_gramian_spans():
    tracer = load("tracer").Tracer()
    originals = {
        "from_problem": vars(gramian.GramianOperator)["from_problem"],
        "loss_grad": vars(problems.PdeProblem)["loss_grad"],
        "linearize": autodiff.linearize,
        "jvp": vars(autodiff.LinearizedMap)["jvp"],
        "vjp": vars(autodiff.LinearizedMap)["vjp"],
    }
    prob = problems.make_problem("poisson2d", hidden_width=3, hidden_depth=1)
    quad = prob.sample_quadrature(6, 4, seed=0)
    theta = model.init(prob.topology, 0).values
    try:
        install(tracer)
        gop = gramian.GramianOperator.from_problem(prob, theta, quad)
        gop.matvec(np.ones(gop.dim))
        gop.matmat(np.ones((gop.dim, 2)))
        prob.loss_grad(theta, quad)
    finally:
        tracer.restore()
    names = {s.name for s in tracer.spans}
    for name in ("gramian.from_problem", "gramian.matvec", "gramian.matmat", "problems.loss_grad"):
        assert name in names
    matmat = [s for s in tracer.spans if s.name == "gramian.matmat"]
    assert matmat[0].attrs["cols"] == 2
    assert vars(gramian.GramianOperator)["from_problem"] is originals["from_problem"]
    assert vars(problems.PdeProblem)["loss_grad"] is originals["loss_grad"]
    assert autodiff.linearize is originals["linearize"]
    assert vars(autodiff.LinearizedMap)["jvp"] is originals["jvp"]
    assert vars(autodiff.LinearizedMap)["vjp"] is originals["vjp"]


def test_trace_hooks_record_optimizer_spans(monkeypatch):
    # without the loss floor the GAMMA term sets mu, and with it PCG's tolerance
    monkeypatch.setattr(optim, "MU_FLOOR_COEFF", 0.0)
    originals = {
        "nystrom_approximate": optim.nystrom_approximate,
        "pcg": optim.pcg,
        "backtracking_linesearch": optim.backtracking_linesearch,
        "loss_value": vars(problems.PdeProblem)["loss_value"],
        "h1_relative_error": vars(problems.PdeProblem)["h1_relative_error"],
    }
    prob = problems.make_problem("poisson2d", hidden_width=3, hidden_depth=1)
    quad = prob.sample_quadrature(6, 4, seed=0)
    theta = model.init(prob.topology, 0).values
    cfg = optim.NystromNgdConfig(ell0=2, iterations=2, seed=0)
    for name in ("nystrom_ngd", "ngd_cg"):
        tracer = load("tracer").Tracer()
        try:
            install(tracer)
            _, records = optim.run_optimizer(name, prob, theta, cfg, quad, quad_eval=quad)
        finally:
            tracer.restore()
        json.dumps(tracer.rows())  # what bench/run.py writes on a traced run
        names = {s.name for s in tracer.spans}
        for span in ("krylov.pcg", "optim.linesearch", "problems.loss_value", "problems.h1"):
            assert span in names
        assert ("sketch.nystrom" in names) == (name == "nystrom_ngd")  # NGD-CG sketches nothing
        ranks = [s.attrs["rank"] for s in tracer.spans if s.name == "sketch.nystrom"]
        if name == "nystrom_ngd":
            assert ranks == [r.ell for r in records[1:]]  # row 0 is theta0, before any sketch
        assert optim.nystrom_approximate is originals["nystrom_approximate"]
        assert optim.pcg is originals["pcg"]
        assert optim.backtracking_linesearch is originals["backtracking_linesearch"]
        assert vars(problems.PdeProblem)["loss_value"] is originals["loss_value"]
        assert vars(problems.PdeProblem)["h1_relative_error"] is originals["h1_relative_error"]

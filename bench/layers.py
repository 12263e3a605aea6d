"""Where the traced run puts its spans, and the per-layer metrics made from them.

The wrappers sit on the public functions of each library module.  ``optim``
binds ``nystrom_approximate``, ``pcg`` and ``backtracking_linesearch`` by
name, so those three are wrapped on the ``optim`` namespace; methods are
wrapped on the classes that define them.  ``model`` is reached only through
``problems`` and tape building, so its cost shows under ``problems.*`` and
``autodiff.linearize``.  ``harness`` and ``cli`` are not on the measured path.

See README.md in this directory for which end-to-end metric each layer
metric should move, and on which workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

RUN_SPAN = "optim.run"
MODULES = ("autodiff", "gramian", "sketch", "optim", "problems")


def _sketch_rank(result, args, kwargs):
    return {"rank": kwargs["rank"] if "rank" in kwargs else args[1]}


def _pcg_report(report, args, kwargs):
    return {
        "iterations": report.iterations,
        "converged": report.converged,
        "breakdown": report.breakdown,
    }


def install(tracer, autodiff, gramian, sketch, optim, problems):
    """Wrap every traced entry point; ``tracer.restore()`` removes them."""
    tracer.wrap(
        autodiff, "linearize", "autodiff.linearize",
        lambda lin, a, k: {"tape_nodes": len(lin.tape.nodes)},
    )
    tracer.wrap(autodiff.LinearizedMap, "jvp", "autodiff.jvp")
    tracer.wrap(autodiff.LinearizedMap, "vjp", "autodiff.vjp")
    tracer.wrap(gramian.GramianOperator, "from_problem", "gramian.from_problem")
    tracer.wrap(gramian.GramianOperator, "matvec", "gramian.matvec")
    tracer.wrap(
        gramian.GramianOperator, "matmat", "gramian.matmat",
        lambda out, a, k: {"cols": out.shape[1]},
    )
    tracer.wrap(optim, "nystrom_approximate", "sketch.nystrom", _sketch_rank)
    tracer.wrap(sketch.NystromPreconditioner, "apply", "sketch.precond")
    tracer.wrap(optim, "pcg", "krylov.pcg", _pcg_report)
    tracer.wrap(
        optim, "backtracking_linesearch", "optim.linesearch",
        lambda res, a, k: {"alpha": res[0]},
    )
    tracer.wrap(problems.PdeProblem, "loss_value", "problems.loss_value")
    tracer.wrap(problems.PdeProblem, "loss_grad", "problems.loss_grad")
    tracer.wrap(problems.PdeProblem, "h1_relative_error", "problems.h1")


def _ms(values, q=50):
    if not values:
        return 0.0
    values = sorted(values)
    return 1e3 * values[min(len(values) - 1, int(q / 100 * len(values)))]


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def metrics(tracer, iterations, matvecs, train_s, untraced_train_s):
    """Per-layer metrics of one traced run.

    ``iterations`` and ``matvecs`` list each seed's record count and final
    cumulative matvecs; ``train_s`` lists each seed's traced optimizer wall
    time and ``untraced_train_s`` is the untraced time of the last seed.
    Totals (``.calls``, ``.s``, ``.cols``) are summed over the run's seeds;
    ``.ms`` values are per call, at the median unless named ``_p90``.
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    dur = defaultdict(list)
    selft = defaultdict(float)
    for s, st in zip(spans, self_s):
        dur[s.name].append(s.duration)
        selft[s.name] += st

    def parent_name(s):
        return spans[s.parent].name if s.parent >= 0 else None

    def attr(name, key):
        return [s.attrs[key] for s in spans if s.name == name and key in s.attrs]

    n_iter = sum(iterations)
    total_train = sum(train_s)
    sketch_spans = [i for i, s in enumerate(spans) if s.name == "sketch.nystrom"]
    sketch_blocks = [
        s for s in spans if s.name == "gramian.matmat" and parent_name(s) == "sketch.nystrom"
    ]
    sketch_cols = sum(s.attrs.get("cols", 0) for s in sketch_blocks)
    ranks = attr("sketch.nystrom", "rank")
    matmat_cols = sum(attr("gramian.matmat", "cols"))
    pcg_iters = attr("krylov.pcg", "iterations")
    alphas = attr("optim.linesearch", "alpha")
    ls_loss_evals = sum(
        1 for s in spans
        if s.name == "problems.loss_value" and parent_name(s) == "optim.linesearch"
    )
    out = {
        "autodiff.linearize.ms": (_ms(dur["autodiff.linearize"]), "ms"),
        "autodiff.tape_nodes": (
            statistics.median(attr("autodiff.linearize", "tape_nodes") or [0]), "count"
        ),
        "autodiff.jvp.ms_p50": (_ms(dur["autodiff.jvp"]), "ms"),
        "autodiff.vjp.ms_p50": (_ms(dur["autodiff.vjp"]), "ms"),
        "gramian.matvec.calls": (len(dur["gramian.matvec"]), "count"),
        "gramian.matvec.ms_p50": (_ms(dur["gramian.matvec"]), "ms"),
        "gramian.matvec.ms_p90": (_ms(dur["gramian.matvec"], 90), "ms"),
        "gramian.matmat.calls": (len(dur["gramian.matmat"]), "count"),
        "gramian.matmat.cols": (matmat_cols, "count"),
        "gramian.matmat.s": (sum(dur["gramian.matmat"]), "s"),
        "gramian.matmat.us_per_col": (
            1e6 * sum(dur["gramian.matmat"]) / matmat_cols if matmat_cols else 0.0, "us"
        ),
        "gramian.from_problem.ms": (_ms(dur["gramian.from_problem"]), "ms"),
        "sketch.nystrom.calls": (len(sketch_spans), "count"),
        "sketch.nystrom.s": (sum(dur["sketch.nystrom"]), "s"),
        "sketch.nystrom.self_s": (selft["sketch.nystrom"], "s"),
        "sketch.nystrom.share": (sum(dur["sketch.nystrom"]) / total_train, "fraction"),
        "sketch.rank_mean": (_mean(ranks), "count"),
        "sketch.rank_max": (max(ranks, default=0), "count"),
        "sketch.matvec_share": (sketch_cols / sum(matvecs) if sum(matvecs) else 0.0, "fraction"),
        "sketch.attempts_per_call": (
            len(sketch_blocks) / len(sketch_spans) if sketch_spans else 0.0, "count"
        ),
        "sketch.failures": (
            sum(1 for i in sketch_spans if spans[i].attrs.get("error") == "SketchFailure"),
            "count",
        ),
        "sketch.precond.ms": (_ms(dur["sketch.precond"]), "ms"),
        "krylov.pcg.s": (sum(dur["krylov.pcg"]), "s"),
        "krylov.pcg.self_s": (selft["krylov.pcg"], "s"),
        "krylov.pcg.share": (sum(dur["krylov.pcg"]) / total_train, "fraction"),
        "krylov.pcg.iters_mean": (_mean(pcg_iters), "count"),
        "krylov.pcg.converged_frac": (_mean(attr("krylov.pcg", "converged")), "fraction"),
        "krylov.pcg.breakdowns": (sum(attr("krylov.pcg", "breakdown")), "count"),
        "optim.iterations": (statistics.median(iterations or [0]), "count"),
        "optim.self_s": (selft[RUN_SPAN], "s"),
        "optim.linesearch.s": (sum(dur["optim.linesearch"]), "s"),
        "optim.linesearch.loss_evals_per_call": (
            ls_loss_evals / len(alphas) if alphas else 0.0, "count"
        ),
        "optim.linesearch.fail_frac": (
            _mean([a == 0.0 for a in alphas]), "fraction"
        ),
        "optim.loss_evals_per_iter": (
            len(dur["problems.loss_value"]) / n_iter if n_iter else 0.0, "count"
        ),
        "problems.loss_value.ms": (_ms(dur["problems.loss_value"]), "ms"),
        "problems.loss_value.calls": (len(dur["problems.loss_value"]), "count"),
        "problems.loss_grad.ms": (_ms(dur["problems.loss_grad"]), "ms"),
        "problems.loss_grad.calls": (len(dur["problems.loss_grad"]), "count"),
        "problems.h1.ms": (_ms(dur["problems.h1"]), "ms"),
        "problems.h1.calls": (len(dur["problems.h1"]), "count"),
        "trace.train_s": (total_train, "s"),
        "trace.overhead": (train_s[-1] / untraced_train_s - 1.0, "fraction"),
    }
    return out

"""Where the tracer wraps comreg, and the per-layer metrics read from its spans.

Every public function is wrapped in each namespace that looks it up at
run time: ``infer`` calls ``fit_poisson``, ``Dataset`` and
``linear_predictor`` through names it imported, so those names are
wrapped in ``infer`` as well as in their home modules.  Functions that
are reached as ``module.attr`` (``fit.fit_com``, ``dist.log_term_table``)
are wrapped once in their home module, which is where ``infer``, ``diag``
and ``fit`` look them up.
"""

from __future__ import annotations

import statistics
from collections import Counter

# Replicate failure causes reported under infer.rep_failed.<cause>: a
# result with converged=False, or the class of an exception that
# parametric_bootstrap swallowed.  Any other class is counted as "other"
# (and printed by name).
FAILURE_CAUSES = ("nonconverged", "SingularInformationError", "TruncationError",
                  "DataError", "other")

TABLE, SAMPLE, MEAN_EXACT = "dist.table", "dist.sample", "dist.mean_exact"
LOGLIK, SCORE, INFO = "fit.loglik", "fit.score", "fit.info"
FIT_COM = "fit.fit_com"
DATASET = "data.dataset"
BOOTSTRAP, TEST = "infer.bootstrap", "infer.test"


def _table_shape(result):
    _, log_terms, _ = result
    return log_terms.shape


def _fit_summary(fr):
    return fr.iterations, fr.converged, fr.boundary


def install(tracer) -> None:
    from comreg import baselines, data, diag, dist, fit, infer

    sites = [
        (dist, "log_term_table", TABLE, _table_shape),
        (dist, "sample_many", SAMPLE, None),
        (dist, "mean_exact", MEAN_EXACT, None),
        (fit, "loglik", LOGLIK, None),
        (fit, "score", SCORE, None),
        (fit, "fisher_information", INFO, None),
        (fit, "fit_com", FIT_COM, _fit_summary),
        (fit, "fit_poisson_start", "fit.poisson_start", None),
        (fit, "fitted_values", "fit.fitted_values", None),
        (infer, "Dataset", DATASET, None),
        (baselines, "fit_poisson", "baselines.poisson", None),
        (infer, "fit_poisson", "baselines.poisson", None),
        (baselines, "fit_negbin", "baselines.negbin", None),
        (baselines, "fit_rgpr", "baselines.rgpr", None),
        (baselines, "compare_models", "baselines.compare", None),
        (infer, "parametric_bootstrap", BOOTSTRAP, None),
        (infer, "dispersion_test", TEST, None),
        (diag, "diagnostics_report", "diag.report", None),
        (diag, "hat_diagonal", "diag.hat", None),
        (diag, "pearson_residuals", "diag.pearson", None),
        (diag, "deviance_residuals", "diag.deviance", None),
    ]
    for module in (data, fit, infer, diag, baselines):
        sites.append((module, "linear_predictor", "data.linear_predictor", None))
    for owner, attr, name, summarize in sites:
        tracer.wrap(owner, attr, name, summarize)


def _tail(values):
    """Highest order statistic with at least ten samples beyond it (max if n <= 10)."""
    v = sorted(values)
    return v[max(0, len(v) - 11)] if v else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def replicates(tracer):
    """Per bootstrap replicate: (op, duration ms, outcome).

    A replicate is the run of children of an infer.bootstrap span that
    starts at a dist.sample span.  Its outcome is "ok", "boundary" (kept,
    nu at a bound), "nonconverged" or the exception class that
    parametric_bootstrap swallowed.
    """
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0 and spans[s.parent].name == BOOTSTRAP:
            children.setdefault(s.parent, []).append(i)
    out = []
    for parent, kids in children.items():
        starts = [k for k in kids if spans[k].name == SAMPLE]
        for j, k in enumerate(starts):
            group = [c for c in kids if c >= k and (j + 1 == len(starts) or c < starts[j + 1])]
            end = spans[group[-1]].end
            outcome = "ok"
            for c in group:
                s = spans[c]
                if s.error is not None:
                    outcome = s.error
                elif s.name == FIT_COM:
                    _, converged, boundary = s.info
                    outcome = "nonconverged" if not converged else ("boundary" if boundary else "ok")
            out.append((spans[parent].op, (end - spans[k].start) / 1e6, outcome))
    return out


def span_metrics(tracer, quota: int) -> tuple[dict, dict]:
    """Per-layer metrics from spans, and the replicate failures by exact cause.

    Counts cover operations 0..quota-1, which every traced run completes,
    so they repeat exactly for a seed.  Times are medians over every
    traced operation of that operation's total, in ms.
    """
    spans = tracer.spans
    self_ns = tracer.self_ns()
    in_quota = [s for s in spans if 0 <= s.op < quota]
    ops = sorted({s.op for s in spans if s.op >= 0})

    def count(name):
        return sum(1 for s in in_quota if s.name == name)

    def per_op_ms(names, self_time=False):
        totals = dict.fromkeys(ops, 0)
        for i, s in enumerate(spans):
            if s.op >= 0 and s.name in names:
                totals[s.op] += self_ns[i] if self_time else s.end - s.start
        return _median([t / 1e6 for t in totals.values()])

    tables = [s.info for s in in_quota if s.name == TABLE and s.info is not None]
    fits = [s.info for s in in_quota if s.name == FIT_COM and s.info is not None]
    n_fits = count(FIT_COM)
    reps = replicates(tracer)
    quota_reps = [r for r in reps if r[0] < quota]
    causes = Counter(r[2] for r in quota_reps)
    saturated = sum(
        1 for i, s in enumerate(spans)
        if 0 <= s.op < quota and s.name == MEAN_EXACT
        and any(a.name.startswith("diag.") for a in tracer.ancestors(i))
    )

    m = {
        "dist.table_calls": (count(TABLE), "count"),
        "dist.table_cells": (sum(r * t for r, t in tables), "count"),
        "dist.table_max_terms": (max((t for _, t in tables), default=0), "count"),
        # computed bytes of the largest float64 log-term table
        "dist.table_mb_peak": (max((r * t for r, t in tables), default=0) * 8 / 1e6, "MB"),
        "dist.table_self_ms": (per_op_ms({TABLE}, self_time=True), "ms"),
        "dist.sample_ms": (per_op_ms({SAMPLE}), "ms"),
        "fit.loglik_calls": (count(LOGLIK), "count"),
        "fit.score_calls": (count(SCORE), "count"),
        "fit.info_calls": (count(INFO), "count"),
        "fit.iterations": (sum(f[0] for f in fits), "count"),
        "fit.evals_per_fit": (count(LOGLIK) / n_fits if n_fits else 0.0, "count"),
        "fit.eval_self_ms": (per_op_ms({LOGLIK, SCORE, INFO}, self_time=True), "ms"),
        "fit.fitter_self_ms": (per_op_ms({FIT_COM}, self_time=True), "ms"),
        "data.dataset_calls": (count(DATASET), "count"),
        "data.dataset_ms": (per_op_ms({DATASET}), "ms"),
        "baselines.poisson_ms": (per_op_ms({"baselines.poisson"}), "ms"),
        "baselines.negbin_ms": (per_op_ms({"baselines.negbin"}), "ms"),
        "baselines.rgpr_ms": (per_op_ms({"baselines.rgpr"}), "ms"),
        "infer.rep_ms_p50": (_median([r[1] for r in reps]), "ms"),
        "infer.rep_ms_tail": (_tail([r[1] for r in reps]), "ms"),
        "infer.self_ms": (per_op_ms({BOOTSTRAP, TEST}, self_time=True), "ms"),
        "infer.useful_frac": (
            sum(causes[c] for c in ("ok", "boundary")) / len(quota_reps) if quota_reps else 0.0,
            "ratio"),
        "infer.rep_boundary": (causes["boundary"], "count"),
        "diag.hat_ms": (per_op_ms({"diag.hat"}), "ms"),
        "diag.pearson_ms": (per_op_ms({"diag.pearson"}), "ms"),
        "diag.deviance_ms": (per_op_ms({"diag.deviance"}), "ms"),
        "diag.saturated_evals": (saturated, "count"),
    }
    named = set(FAILURE_CAUSES) | {"ok", "boundary"}
    for cause in FAILURE_CAUSES:
        n = causes[cause]
        if cause == "other":
            n = sum(v for c, v in causes.items() if c not in named)
        m[f"infer.rep_failed.{cause}"] = (n, "count")
    return m, {c: v for c, v in causes.items() if c not in ("ok", "boundary")}

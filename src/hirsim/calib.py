"""Logistic calibration of raw similarity onto word correctness, plus the
evaluation metrics (RMSE, Pearson NCC, Kendall's tau-b) and listener/system
aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import expit


class MetricError(Exception):
    pass


@dataclass(frozen=True)
class LogisticParams:
    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("logistic parameters must be finite")


def logistic(x, p: LogisticParams):
    """f(x) = 1 / (1 + exp(a x + b)), overflow-safe."""
    return expit(-(p.a * np.asarray(x, dtype=np.float64) + p.b))


def _paired(pred, truth, min_n: int) -> tuple[np.ndarray, np.ndarray]:
    """pred and truth as float64 arrays; both finite, equal-length, >= min_n long."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.size < min_n:
        raise MetricError(f"need equal-length pred and truth of length >= {min_n}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise MetricError("non-finite value in pred or truth")
    return p, t


def _mse(a: float, b: float, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((expit(-(a * x + b)) - y) ** 2))


def fit_logistic(pairs) -> LogisticParams:
    """Least-squares fit of the logistic mapping on (raw_score, wcs) pairs.

    Deterministic: coarse grid over the slope, a bounded 1-D search for the
    offset at each slope, then Nelder-Mead refinement from the grid winner.
    """
    pairs = list(pairs)
    x, y = _paired([p[0] for p in pairs], [p[1] for p in pairs], 3)
    if np.ptp(x) == 0.0:
        raise MetricError("raw scores are all identical; fit is degenerate")

    best = (np.inf, 0.0, 0.0)
    for a in np.linspace(-100.0, 0.0, 201):
        res = minimize_scalar(lambda b: _mse(a, b, x, y), bounds=(-200.0, 200.0),
                              method="bounded", options={"xatol": 1e-10})
        if res.fun < best[0]:
            best = (res.fun, a, float(res.x))
    _, a0, b0 = best
    refined = minimize(lambda ab: _mse(ab[0], ab[1], x, y), x0=np.array([a0, b0]),
                       method="Nelder-Mead",
                       options={"maxiter": 2000, "xatol": 1e-12, "fatol": 1e-16})
    a, b = (refined.x if refined.fun <= best[0] else (a0, b0))
    return LogisticParams(a=float(a), b=float(b))


def rmse(pred, truth) -> float:
    p, t = _paired(pred, truth, 1)
    return float(np.sqrt(np.mean((p - t) ** 2)))


def ncc(pred, truth) -> float:
    """Pearson correlation coefficient."""
    p, t = _paired(pred, truth, 2)
    dp = p - p.mean()
    dt = t - t.mean()
    denom = np.sqrt((dp ** 2).sum()) * np.sqrt((dt ** 2).sum())
    if denom == 0.0:
        raise MetricError("zero variance in pred or truth")
    return float((dp * dt).sum() / denom)


def kendall_tau(pred, truth, variant: str = "b") -> float:
    """Kendall rank correlation; tau-b corrects for ties, tau-a does not."""
    p, t = _paired(pred, truth, 2)
    # vectorized over the upper triangle of the pair matrix
    iu, ju = np.triu_indices(p.size, k=1)
    sp = np.sign(p[iu] - p[ju])
    st = np.sign(t[iu] - t[ju])
    C = int(np.sum((sp * st) > 0))
    D = int(np.sum((sp * st) < 0))
    T_p = int(np.sum((sp == 0) & (st != 0)))
    T_t = int(np.sum((st == 0) & (sp != 0)))
    if variant == "a":
        n = p.size
        return (C - D) / (n * (n - 1) / 2)
    if variant != "b":
        raise ValueError(f"unknown tau variant {variant!r}")
    denom_sq = (C + D + T_p) * (C + D + T_t)
    if denom_sq == 0:
        raise MetricError("all pairs tied in pred or truth")
    return (C - D) / np.sqrt(denom_sq)


@dataclass(frozen=True)
class EvalReport:
    rmse: float
    ncc: float
    kt: float
    n_trials: int
    grouping: str  # trial | listener | system
    group_ids: tuple = ()
    group_pred_means: tuple = ()
    group_truth_means: tuple = ()
    group_pred_stderr: tuple = ()
    group_truth_stderr: tuple = ()

    def to_dict(self) -> dict:
        # correlations over a single group are undefined: null in JSON
        d = {"rmse": self.rmse, "ncc": _or_none(self.ncc), "kt": _or_none(self.kt),
             "n_trials": self.n_trials, "grouping": self.grouping}
        if self.grouping != "trial":
            d["groups"] = [
                {"id": gid, "pred_mean": pm, "truth_mean": tm,
                 "pred_stderr": ps, "truth_stderr": ts}
                for gid, pm, tm, ps, ts in zip(
                    self.group_ids, self.group_pred_means, self.group_truth_means,
                    self.group_pred_stderr, self.group_truth_stderr)
            ]
        return d


def _or_none(x: float) -> float | None:
    return x if np.isfinite(x) else None


def _stderr(vals: np.ndarray) -> float:
    # size-1 groups report 0 by convention
    if vals.size <= 1:
        return 0.0
    return float(vals.std(ddof=1) / np.sqrt(vals.size))


def trial_report(pred, truth, kt_scores=None) -> EvalReport:
    """Trial-level metrics. RMSE/NCC use the given predictions; Kendall's tau
    uses kt_scores when provided (raw similarities: tau is invariant to the
    monotone logistic map, so reporting it on raw scores is a presentation
    choice)."""
    kt_in = pred if kt_scores is None else kt_scores
    return EvalReport(
        rmse=rmse(pred, truth), ncc=ncc(pred, truth),
        kt=kendall_tau(kt_in, truth), n_trials=len(list(pred)), grouping="trial")


def group_aggregate(records, by: str) -> EvalReport:
    """Aggregate (group_id, mapped_pred, wcs) records per listener or system
    and compute the metrics over group means."""
    if by not in ("listener", "system"):
        raise MetricError(f"unknown grouping {by!r}")
    records = list(records)
    if not records:
        raise MetricError("no records to aggregate")
    groups: dict[str, list[tuple[float, float]]] = {}
    for gid, pred, wcs in records:
        groups.setdefault(str(gid), []).append((float(pred), float(wcs)))
    ids = sorted(groups)
    pred_means, truth_means, pred_se, truth_se = [], [], [], []
    for gid in ids:
        preds = np.array([p for p, _ in groups[gid]])
        truths = np.array([w for _, w in groups[gid]])
        pred_means.append(float(preds.mean()))
        truth_means.append(float(truths.mean()))
        pred_se.append(_stderr(preds))
        truth_se.append(_stderr(truths))
    if len(ids) >= 2:
        group_ncc = ncc(pred_means, truth_means)
        group_kt = kendall_tau(pred_means, truth_means)
    else:
        # correlations are undefined over a single group mean
        group_ncc = float("nan")
        group_kt = float("nan")
    return EvalReport(
        rmse=rmse(pred_means, truth_means),
        ncc=group_ncc,
        kt=group_kt,
        n_trials=len(records), grouping=by,
        group_ids=tuple(ids),
        group_pred_means=tuple(pred_means),
        group_truth_means=tuple(truth_means),
        group_pred_stderr=tuple(pred_se),
        group_truth_stderr=tuple(truth_se),
    )

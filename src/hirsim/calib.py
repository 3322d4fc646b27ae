"""Logistic calibration of raw similarity onto word correctness, plus the
evaluation metrics (RMSE, Pearson NCC, Kendall's tau-b) and listener/system
aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares
from scipy.special import expit, logit


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


def _mse(ab: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((expit(-(ab[0] * x + ab[1])) - y) ** 2))


_GRID_SLOPES = 2.0 ** np.arange(-2.0, 9.0, 0.5)  # per standard deviation of x


def _grid_start(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(a, b) of the best curve on a coarse grid: slopes of +-2^-2..2^8.5 per
    standard deviation of x in half octaves, each through one data point
    (x_i, f = y_i, clipped) or through f = 1/2 midway between neighbouring
    points. At most 64 anchors, scored on at most 256 points spread over the
    sorted x."""
    order = np.argsort(x, kind="stable")
    xs, zs, ys = x[order], z[order], y[order]

    def spread(m, *arrays):
        idx = np.linspace(0, xs.size - 1, min(m, xs.size)).round().astype(int)
        return [v[idx] for v in arrays]

    ax, az = spread(64, xs, zs)
    ax, az = np.r_[ax, (ax[1:] + ax[:-1]) / 2], np.r_[az, np.zeros(ax.size - 1)]
    sx, sy = spread(256, xs, ys)
    best = (np.inf, 0.0, 0.0)
    for slope in np.r_[-_GRID_SLOPES, _GRID_SLOPES] / x.std():
        offsets = az - slope * ax
        err = ((expit(-(slope * sx + offsets[:, None])) - sy) ** 2).mean(axis=1)
        k = np.argmin(err)
        if err[k] < best[0]:
            best = (err[k], slope, offsets[k])
    return np.array(best[1:])


def fit_logistic(pairs) -> LogisticParams:
    """Least-squares fit of the logistic mapping on (raw_score, wcs) pairs.

    Deterministic. Levenberg-Marquardt with the analytic Jacobian refines two
    starts and keeps the better fit: the closed form, a linear least-squares
    fit of -logit(wcs) (clipped away from 0 and 1) on [raw_score, 1], and the
    best curve of a coarse grid, which catches the steep local minima of small
    noisy or binary sets.
    """
    pairs = list(pairs)
    x, y = _paired([p[0] for p in pairs], [p[1] for p in pairs], 3)
    if np.ptp(x) == 0.0:
        raise MetricError("raw scores are all identical; fit is degenerate")

    X = np.column_stack([x, np.ones_like(x)])
    z = -logit(np.clip(y, 1e-3, 1.0 - 1e-3))

    def jac(ab):
        f = expit(-(X @ ab))
        return -(f * (1.0 - f))[:, None] * X

    fits = [least_squares(lambda ab: expit(-(X @ ab)) - y, start, jac=jac, method="lm",
                          ftol=1e-15, xtol=1e-15, gtol=1e-15).x
            for start in (np.linalg.lstsq(X, z, rcond=None)[0], _grid_start(x, y, z))]
    a, b = min(fits, key=lambda ab: _mse(ab, x, y))
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


def _tied_pairs(change: np.ndarray) -> int:
    """Pairs inside the runs of a sorted sequence; change[i] marks a new value at i + 1."""
    runs = np.diff(np.flatnonzero(np.r_[True, change, True]))
    return int((runs * (runs - 1) // 2).sum())


def _inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j], for non-negative integers r.

    A most-significant-bit-first radix sort that counts as it sorts: within a
    run of equal higher bits, each 1 that precedes a 0 is one inversion, and
    the run is then split stably into its 0s and 1s. O(n) per bit.
    """
    k = np.arange(r.size)
    swaps = 0
    for b in reversed(range(int(r.max()).bit_length())):
        bit = (r >> b) & 1
        hi = r >> (b + 1)
        bounds = np.flatnonzero(np.r_[True, hi[1:] != hi[:-1], True])
        run = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
        ones = np.r_[0, np.cumsum(bit)]  # ones[i]: 1 bits before position i
        before = ones[k] - ones[bounds[run]]  # 1s before k in its run
        swaps += int(before[bit == 0].sum())
        after = ones[bounds[run + 1]] - ones[k]  # 1s from k to the end of its run
        pos = np.where(bit == 1, bounds[run + 1] - after, k - before)
        sorted_r = np.empty_like(r)
        sorted_r[pos] = r
        r = sorted_r
    return swaps


def kendall_tau(pred, truth, variant: str = "b") -> float:
    """Kendall rank correlation; tau-b corrects for ties, tau-a does not.

    Knight's O(n log n) algorithm (JASA 61(314), 1966) with exact integer
    pair counts: sort by (pred, truth), count the ties from run lengths and
    the discordant pairs as inversions of the sorted truth ranks.
    """
    p, t = _paired(pred, truth, 2)
    n0 = p.size * (p.size - 1) // 2
    order = np.lexsort((t, p))
    p, t = p[order], t[order]
    new_p = p[1:] != p[:-1]
    n1 = _tied_pairs(new_p)
    n3 = _tied_pairs(new_p | (t[1:] != t[:-1]))
    _, rank, counts = np.unique(t, return_inverse=True, return_counts=True)
    n2 = int((counts * (counts - 1) // 2).sum())
    C_minus_D = n0 - n1 - n2 + n3 - 2 * _inversions(rank)
    if variant == "a":
        return C_minus_D / n0
    if variant != "b":
        raise ValueError(f"unknown tau variant {variant!r}")
    denom_sq = (n0 - n1) * (n0 - n2)
    if denom_sq == 0:
        raise MetricError("all pairs tied in pred or truth")
    return C_minus_D / np.sqrt(float(denom_sq))


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

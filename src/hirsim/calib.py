"""Logistic calibration of raw similarity onto word correctness, plus the
evaluation metrics (RMSE, Pearson NCC, Kendall's tau-b) and listener/system
aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class MetricError(Exception):
    pass


@dataclass(frozen=True)
class LogisticParams:
    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("logistic parameters must be finite")


def expit(x):
    """1 / (1 + exp(-x)), elementwise, without overflow: e = exp(-|x|) is at
    most 1, and the result is 1 / (1 + e) for x >= 0 and e / (1 + e) below."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def logit(p):
    """log(p / (1 - p)), elementwise: -inf at 0, inf at 1, NaN outside [0, 1].
    On [0.3, 0.65], where the quotient loses precision, it is the equal
    2 atanh(2p - 1)."""
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((p < 0.3) | (p > 0.65), np.log(p / (1.0 - p)),
                        2.0 * np.arctanh(2.0 * (p - 0.5)))


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


def _trust_step(f: float, g: float, h: float, c0: float, c1: float,
                delta: float) -> tuple:
    """p = (p0, p1) minimising |T p + c|^2 + lam |p|^2, T = [[f, g], [0, h]],
    for the smallest lam >= 0 with |p| <= 1.1 delta, and |T p|^2 and lam |p|^2.

    More's lmpar for two unknowns: for each lam, two Givens rotations reduce
    [T; sqrt(lam) I] to a triangle S (MINPACK's qrsolv), and lam takes
    Newton steps on 1/|p(lam)|, the slope coming from S^-T p, until |p| is
    within 0.1 delta of delta. A step that leaves the bracket of lams seen on
    either side of delta, which starts as [0, |T'c| / delta], is replaced by
    the bracket's geometric mean. The iteration runs on T / max|T| and
    c / max|c|, so that it neither over- nor underflows where the sigmoid
    saturates.
    """
    top, cmax = max(abs(f), abs(g), abs(h)), max(abs(c0), abs(c1))
    f, g, h, c0, c1 = f / top, g / top, h / top, c0 / cmax, c1 / cmax
    radius = delta * top / cmax
    if not radius > 0.0:
        return (0.0, 0.0), 0.0, 0.0
    lam, lo, hi = 0.0, 0.0, math.hypot(f * c0, g * c0 + h * c1) / radius
    for _ in range(11):
        s = math.sqrt(lam)
        r0 = math.hypot(f, s)
        cs, sn = (f / r0, s / r0) if r0 else (1.0, 0.0)
        r1 = math.hypot(h, sn * g, s)
        p1 = -(h * c1 + sn * g * sn * c0) / r1 / r1 if r1 else 0.0
        p0 = -cs * (c0 + g * p1) / r0 if r0 else 0.0
        norm = math.hypot(p0, p1)
        if norm <= 1.1 * radius if lam == 0.0 else abs(norm - radius) <= 0.1 * radius:
            break
        lo, hi = (lo, lam) if norm <= radius else (lam, hi)  # a NaN norm is too long
        q0 = p0 / r0 if r0 else 0.0
        q1 = (p1 - cs * g * q0) / r1 if r1 else 0.0
        qq = q0 * q0 + q1 * q1
        step = norm * norm * (norm - radius) / (radius * qq) if qq else math.nan
        lam = lam + step if lo < lam + step < hi else (
            math.sqrt(lo * hi) if lo > 0.0 else 1e-3 * hi)
    tp0, tp1 = f * p0 + g * p1, h * p1
    scale = cmax / top
    return ((p0 * scale, p1 * scale), (tp0 * tp0 + tp1 * tp1) * cmax * cmax,
            lam * norm * norm * cmax * cmax)


def _levenberg_marquardt(x: np.ndarray, y: np.ndarray, ab,
                         tol: float = 1e-15, max_evals: int = 1000) -> tuple[float, float]:
    """(a, b) from `ab` downhill to a local minimum of |r|^2, r = expit(-(a x + b)) - y.

    More's trust-region Levenberg-Marquardt ("The Levenberg-Marquardt
    algorithm: implementation and theory", LNM 630, 1978; MINPACK's lmder)
    with the analytic Jacobian J = f (f - 1) [x, 1], f = expit(-(a x + b)).
    Each step h minimises |J h + r|^2 + lam |D h|^2, D the running maximum of
    the column norms of J, for the smallest lam that keeps |D h| within the
    trust radius; the radius grows and shrinks with the ratio of the actual to
    the predicted reduction. The damped 2x2 problem is solved from the
    triangular factor R of J (modified Gram-Schmidt, with Q'r taken the same
    way), never from J'J, whose condition number is squared: scores that
    differ in their eighth digit still separate. Stops when the cosine
    between r and each column of J, the trust radius relative to |D (a, b)|,
    or both the actual and the predicted relative reduction of |r|^2 fall to
    `tol`.
    """
    def residual(a, b):
        f = expit(-(a * x + b))
        return f, f - y

    a, b = float(ab[0]), float(ab[1])
    f, r = residual(a, b)
    cost = float(r @ r)
    d = None
    evals, first = 1, True
    while True:
        w = f * (f - 1.0)
        jx = w * x
        r00 = math.sqrt(jx @ jx)
        q0 = jx / r00 if r00 else jx
        r01 = float(q0 @ w)
        v = w - r01 * q0
        r11 = math.sqrt(v @ v)
        c0 = float(q0 @ r)
        c1 = float(v @ (r - c0 * q0)) / r11 if r11 else 0.0
        norms = (r00, math.hypot(r01, r11))
        if d is None:
            d = [n if n > 0.0 else 1.0 for n in norms]
            delta = 100.0 * (math.hypot(d[0] * a, d[1] * b) or 1.0)
        d = [max(di, n) for di, n in zip(d, norms)]
        gradient = (r00 * c0, r01 * c0 + r11 * c1)
        if cost == 0.0 or all(abs(gj) <= tol * n * math.sqrt(cost)
                              for gj, n in zip(gradient, norms)):
            return a, b
        while True:
            (p0, p1), model, damping = _trust_step(r00 / d[0], r01 / d[1], r11 / d[1],
                                                   c0, c1, delta)
            pnorm = math.hypot(p0, p1)
            if first:
                delta = min(delta, pnorm)
            new_f, new_r = residual(a + p0 / d[0], b + p1 / d[1])
            evals += 1
            new_cost = float(new_r @ new_r)
            actual = cost - new_cost
            predicted = model + 2.0 * damping
            ratio = actual / predicted if predicted else 0.0
            converged = abs(actual) <= tol * cost and predicted <= tol * cost and ratio <= 2.0
            if ratio <= 0.25:
                shrink = 0.5 if actual >= 0 else 0.5 * (model + damping) / (
                    model + damping - 0.5 * actual)
                delta = (0.1 if new_cost >= 100.0 * cost or shrink < 0.1 else shrink) * min(
                    delta, 10.0 * pnorm)
            elif damping == 0.0 or ratio >= 0.75:
                delta = 2.0 * pnorm
            if ratio >= 1e-4:
                a, b, f, r, cost, first = a + p0 / d[0], b + p1 / d[1], new_f, new_r, new_cost, False
            if (converged or evals >= max_evals
                    or delta <= tol * math.hypot(d[0] * a, d[1] * b)):
                return a, b
            if ratio >= 1e-4:
                break


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
    fits = [_levenberg_marquardt(x, y, start)
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

"""Logistic calibration of raw similarity onto word correctness, plus the
evaluation metrics (RMSE, Pearson NCC, Kendall's tau-b) and listener/system
aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class MetricError(ValueError):
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


def _exponent(*xs: np.ndarray) -> int:
    """The e for which the arrays times 2^-e have their largest magnitude in
    [2^-64, 2^64): 0 where they have already, or where all are zeros. Below
    that band a square may underflow, beyond it a sum of squares overflow."""
    e = math.frexp(max(np.abs(x).max() for x in xs))[1]  # the largest is in [2^(e-1), 2^e)
    return max(e - 64, 0) + min(e + 63, 0)


def _ldexp(m: float, e: int, what: str) -> float:
    """m * 2^e; a MetricError naming `what` where that is beyond float range."""
    try:
        return math.ldexp(m, e)
    except OverflowError:
        raise MetricError(f"{what} is beyond float range") from None


def _mse(ab: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((expit(-(ab[0] * x + ab[1])) - y) ** 2))


_GRID_SLOPES = 2.0 ** np.arange(-2.0, 9.0, 0.5)  # per standard deviation of x


def _grid_starts(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> list[np.ndarray]:
    """(a, b) of the best curve on a coarse grid: slopes of +-2^-2..2^8.5 per
    standard deviation of x in half octaves, each through one data point
    (x_i, f = y_i, clipped) or through f = 1/2 midway between neighbouring
    points. At most 64 anchors, scored on at most 256 points spread over the
    sorted x. Then, if the best error per slope of the winner's sign, in
    slope order, has another strict local minimum, the best curve of the
    lowest one: a start in a second basin, such as the steep one of a small
    noisy set, that descent from the winner does not reach."""
    order = np.argsort(x, kind="stable")
    xs, zs, ys = x[order], z[order], y[order]

    def spread(m, *arrays):
        idx = np.linspace(0, xs.size - 1, min(m, xs.size)).round().astype(int)
        return [v[idx] for v in arrays]

    ax, az = spread(64, xs, zs)
    ax, az = np.r_[ax, (ax[1:] + ax[:-1]) / 2], np.r_[az, np.zeros(ax.size - 1)]
    sx, sy = spread(256, xs, ys)
    slopes = np.r_[-_GRID_SLOPES, _GRID_SLOPES] / x.std()
    cells = np.empty((slopes.size, 3))  # (error, slope, offset) of each slope's best curve
    for i, slope in enumerate(slopes):
        offsets = az - slope * ax
        err = ((expit(-(slope * sx + offsets[:, None])) - sy) ** 2).mean(axis=1)
        k = np.argmin(err)
        cells[i] = err[k], slope, offsets[k]
    cells[np.isnan(cells[:, 0])] = np.inf, 0.0, 0.0  # never wins, unless every error is NaN
    won = np.argmin(cells[:, 0])
    side = np.arange(slopes.size).reshape(2, -1)[won // _GRID_SLOPES.size]  # winner's sign
    e = np.r_[np.inf, cells[side, 0], np.inf]
    lows = side[(e[1:-1] < e[:-2]) & (e[1:-1] < e[2:]) & (side != won)]
    lowest = lows[np.argsort(cells[lows, 0], kind="stable")[:1]]  # none, or the lowest
    return [cells[won, 1:], *cells[lowest, 1:]]


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


def _levenberg_marquardt(x: np.ndarray, y: np.ndarray, ab) -> tuple[float, float]:
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
    1e-15, or after 1000 evaluations of r.
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
        if cost == 0.0 or all(abs(gj) <= 1e-15 * n * math.sqrt(cost)
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
            converged = abs(actual) <= 1e-15 * cost and predicted <= 1e-15 * cost and ratio <= 2.0
            if ratio <= 0.25:
                shrink = 0.5 if actual >= 0 else 0.5 * (model + damping) / (
                    model + damping - 0.5 * actual)
                delta = (0.1 if new_cost >= 100.0 * cost or shrink < 0.1 else shrink) * min(
                    delta, 10.0 * pnorm)
            elif damping == 0.0 or ratio >= 0.75:
                delta = 2.0 * pnorm
            if ratio >= 1e-4:
                a, b, f, r, cost, first = a + p0 / d[0], b + p1 / d[1], new_f, new_r, new_cost, False
            if (converged or evals >= 1000
                    or delta <= 1e-15 * math.hypot(d[0] * a, d[1] * b)):
                return a, b
            if ratio >= 1e-4:
                break


def fit_logistic(pairs) -> LogisticParams:
    """Least-squares fit of the logistic mapping on (raw_score, wcs) pairs.

    Deterministic. Levenberg-Marquardt with the analytic Jacobian refines each
    start and keeps the best fit, the earliest on a tie: the closed form, a
    linear least-squares fit of -logit(wcs) (clipped away from 0 and 1) on
    [raw_score, 1], then the starts of a coarse grid, which catch the steep
    local minima of small noisy or binary sets. Raw scores whose largest
    magnitude is outside [2^-64, 2^64) are fitted divided by the power of two
    2^e that brings it inside, and a is divided by 2^e after, so no square
    overflows or underflows; a slope beyond float range is a MetricError.
    """
    pairs = list(pairs)
    x, y = _paired([p[0] for p in pairs], [p[1] for p in pairs], 3)
    e = _exponent(x)
    x = np.ldexp(x, -e)
    if np.ptp(x) == 0.0:
        raise MetricError("raw scores are all identical; fit is degenerate")

    X = np.column_stack([x, np.ones_like(x)])
    z = -logit(np.clip(y, 1e-3, 1.0 - 1e-3))
    fits = [_levenberg_marquardt(x, y, start)
            for start in (np.linalg.lstsq(X, z, rcond=None)[0], *_grid_starts(x, y, z))]
    a, b = min(fits, key=lambda ab: _mse(ab, x, y))
    return LogisticParams(a=_ldexp(a, -e, "the logistic slope"), b=float(b))


def rmse(pred, truth) -> float:
    """Root mean squared error, for any finite input: pred and truth are
    subtracted at the power-of-two scale _exponent gives them, so that no
    difference overflows, and the differences squared at their own. Ordinary
    inputs are at scale 1 and keep every bit."""
    p, t = _paired(pred, truth, 1)
    e = _exponent(p, t)
    d = np.ldexp(p, -e) - np.ldexp(t, -e)
    f = _exponent(d)
    return _ldexp(float(np.sqrt(np.mean(np.ldexp(d, -f) ** 2))), e + f, "rmse")


def ncc(pred, truth) -> float:
    """Pearson correlation coefficient, for any finite input: each side is
    taken at the power-of-two scale _exponent gives it, which the coefficient
    does not depend on. Ordinary inputs are at scale 1 and keep every bit."""
    p, t = _paired(pred, truth, 2)
    p, t = np.ldexp(p, -_exponent(p)), np.ldexp(t, -_exponent(t))
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


def kendall_tau(pred, truth) -> float:
    """Kendall rank correlation tau-b, which corrects for ties.

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
    denom_sq = (n0 - n1) * (n0 - n2)
    if denom_sq == 0:
        raise MetricError("all pairs tied in pred or truth")
    return C_minus_D / np.sqrt(float(denom_sq))


def metrics(pred, truth) -> dict:
    """RMSE, NCC and Kendall's tau of pred against truth."""
    return {"rmse": rmse(pred, truth), "ncc": ncc(pred, truth), "kt": kendall_tau(pred, truth)}


def _stderr(vals: np.ndarray) -> float:
    # size-1 groups report 0 by convention
    if vals.size <= 1:
        return 0.0
    return float(vals.std(ddof=1) / np.sqrt(vals.size))


def _defined(metric, pred, truth) -> float | None:
    """A correlation of inputs already checked by rmse, or None where it is
    undefined: fewer than two values, or one side constant."""
    try:
        return metric(pred, truth)
    except MetricError:
        return None


def group_aggregate(ids, pred, truth) -> dict:
    """The report section of trials grouped by id: each group's means and
    standard errors of pred and truth, in id order, and RMSE, NCC and
    Kendall's tau over the group means, a correlation that is undefined over
    them being None."""
    # an object array: numpy's str arrays drop trailing NULs
    ids = np.array([str(g) for g in ids], dtype=object)
    p, t = _paired(pred, truth, 1)
    if ids.size != p.size:
        raise MetricError("need one id per pred and truth value")
    order = np.argsort(ids, kind="stable")
    ids, p, t = ids[order], p[order], t[order]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    groups = [{"id": gid, "pred_mean": float(gp.mean()), "truth_mean": float(gt.mean()),
               "pred_stderr": _stderr(gp), "truth_stderr": _stderr(gt)}
              for gid, gp, gt in zip(ids[starts], np.split(p, starts[1:]),
                                     np.split(t, starts[1:]))]
    pm = [g["pred_mean"] for g in groups]
    tm = [g["truth_mean"] for g in groups]
    return {"rmse": rmse(pm, tm), "ncc": _defined(ncc, pm, tm),
            "kt": _defined(kendall_tau, pm, tm), "n_trials": p.size, "groups": groups}

import json
import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares, minimize, minimize_scalar
from scipy.special import expit

from hirsim import calib
from hirsim.calib import (
    LogisticParams,
    MetricError,
    fit_logistic,
    group_aggregate,
    kendall_tau,
    logistic,
    ncc,
    rmse,
)


def tau_b_pair_counting(pred, truth):
    """Independent O(n^2) oracle: explicit pair loops, tau-b formula."""
    n = len(pred)
    C = D = T_p = T_t = 0
    for i in range(n):
        for j in range(i + 1, n):
            dp = pred[i] - pred[j]
            dt = truth[i] - truth[j]
            if dp == 0 and dt == 0:
                continue
            if dp == 0:
                T_p += 1
            elif dt == 0:
                T_t += 1
            elif (dp > 0) == (dt > 0):
                C += 1
            else:
                D += 1
    return (C - D) / np.sqrt((C + D + T_p) * (C + D + T_t))


def _mse(a, b, x, y):
    return float(np.mean((expit(-(a * x + b)) - y) ** 2))


def fit_logistic_grid(pairs):
    """Slow oracle for fit_logistic: a 201-point grid over the slope, a bounded
    1-D search for the offset at each slope, then Nelder-Mead refinement from
    the grid winner."""
    x = np.array([p[0] for p in pairs], dtype=np.float64)
    y = np.array([p[1] for p in pairs], dtype=np.float64)
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


@st.composite
def calibration_sets(draw):
    """(raw score, wcs) sets: noiseless, noisy, uniform or binary labels."""
    n = draw(st.integers(3, 30))
    x = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    assume(np.ptp(x) > 1e-3)
    kind = draw(st.sampled_from(["noiseless", "noisy", "uniform", "binary"]))
    if kind == "uniform":
        y = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    elif kind == "binary":
        y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    else:
        a = draw(st.floats(-30.0, 0.0))
        y = logistic(x, LogisticParams(a, -a * draw(st.floats(0.0, 1.0))))
        if kind == "noisy":
            seed = draw(st.integers(0, 2 ** 32 - 1))
            y = np.clip(y + np.random.default_rng(seed).normal(0.0, 0.1, n), 0.0, 1.0)
    return list(zip(x, y))


class TestLogistic:
    def test_constant_at_zero_params(self):
        p = LogisticParams(0.0, 0.0)
        for x in (-5.0, 0.0, 100.0):
            assert logistic(x, p) == 0.5

    def test_zero_exponent(self):
        assert abs(logistic(0.5, LogisticParams(-2.0, 1.0)) - 0.5) < 1e-15

    def test_hand_evaluated(self):
        assert abs(logistic(2.0, LogisticParams(-1.0, 0.0)) - 1 / (1 + np.exp(-2))) < 1e-12

    def test_saturation_without_overflow(self):
        p = LogisticParams(-1000.0, 0.0)
        assert logistic(1e6, p) == 1.0
        assert logistic(-1e6, p) == 0.0

    def test_monotone_when_slope_negative(self):
        p = LogisticParams(-3.0, 1.0)
        xs = np.linspace(-5, 5, 200)
        ys = logistic(xs, p)
        assert np.all(np.diff(ys) > 0)


class TestSigmoid:
    def test_expit_within_three_ulp_of_scipy(self, rng):
        # The reference is 1 / (1 + exp(-x)) on the C library's exp; numpy's exp
        # differs from it by an ulp on about 4% of inputs, and the x < 0 branch
        # e / (1 + e) rounds differently, so the two agree to 3 ulp, not 1.
        # Each is within 2.3 ulp of the exact value.
        x = np.r_[np.linspace(-708.0, 750.0, 30001), rng.normal(0.0, 20.0, 10000),
                  -0.0, 0.0, 1e-300, -1e-300]
        np.testing.assert_array_max_ulp(calib.expit(x), scipy.special.expit(x), maxulp=3)
        # below -708 exp(x) is subnormal; the reference flushes it to 0
        tail = calib.expit(np.linspace(-750.0, -708.5, 1000))
        assert np.all((tail >= 0.0) & (tail < np.finfo(float).tiny))

    def test_logit_within_one_ulp_of_scipy(self, rng):
        p = np.r_[np.linspace(0.0, 1.0, 30001)[1:-1], rng.uniform(0.0, 1.0, 10000),
                  1e-300, 1e-3, 0.3, 0.65, 0.5, 1.0 - 1e-3, 1.0 - 2.0 ** -53]
        np.testing.assert_array_max_ulp(calib.logit(p), scipy.special.logit(p), maxulp=1)

    def test_saturation_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(calib.expit([-1e3, 1e3, -np.inf, np.inf])) == [0.0, 1.0, 0.0, 1.0]
            assert list(calib.logit([0.0, 1.0])) == [-np.inf, np.inf]
            assert np.isnan(calib.logit([-0.5, 1.5])).all()

    def test_scalar_in_scalar_out(self):
        assert isinstance(calib.expit(0.0), float) and calib.expit(0.0) == 0.5
        assert calib.logit(0.5) == 0.0


def minpack_fit_mse(x, y):
    """MSE of the best MINPACK Levenberg-Marquardt fit from fit_logistic's starts."""
    X = np.column_stack([x, np.ones_like(x)])
    z = -scipy.special.logit(np.clip(y, 1e-3, 1.0 - 1e-3))

    def jac(ab):
        f = expit(-(X @ ab))
        return -(f * (1.0 - f))[:, None] * X

    return min(_mse(*least_squares(lambda ab: expit(-(X @ ab)) - y, start, jac=jac,
                                   method="lm", ftol=1e-15, xtol=1e-15, gtol=1e-15).x, x, y)
               for start in (np.linalg.lstsq(X, z, rcond=None)[0], *calib._grid_starts(x, y, z)))


class TestFitLogistic:
    def test_recovers_noiseless_mapping(self):
        truth = LogisticParams(-8.0, 4.0)
        xs = np.linspace(0.0, 1.0, 50)
        pairs = list(zip(xs, logistic(xs, truth)))
        fitted = fit_logistic(pairs)
        assert rmse(logistic(xs, fitted), logistic(xs, truth)) <= 1e-4

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 1, size=40)
        ys = np.clip(logistic(xs, LogisticParams(-6, 3)) + rng.normal(0, 0.05, 40), 0, 1)
        pairs = list(zip(xs, ys))
        a = fit_logistic(pairs)
        b = fit_logistic(pairs)
        assert (a.a, a.b) == (b.a, b.b)

    def test_constant_wcs_non_inferiority(self):
        xs = np.linspace(0, 1, 30)
        c = 0.37
        fitted = fit_logistic([(x, c) for x in xs])
        assert rmse(logistic(xs, fitted), np.full(30, c)) <= 1e-9

    def test_affine_reparametrization(self):
        truth = LogisticParams(-8.0, 4.0)
        xs = np.linspace(0.0, 1.0, 50)
        ys = logistic(xs, truth)
        alpha, beta = 2.0, 0.1
        f1 = fit_logistic(list(zip(xs, ys)))
        f2 = fit_logistic(list(zip(alpha * xs + beta, ys)))
        assert np.allclose(logistic(xs, f1), logistic(alpha * xs + beta, f2), atol=1e-4)

    def test_degenerate_inputs(self):
        with pytest.raises(MetricError):
            fit_logistic([(0.5, 0.1), (0.5, 0.9), (0.5, 0.4)])
        with pytest.raises(MetricError):
            fit_logistic([(0.1, 0.2), (0.5, 0.4)])

    def test_slope_beyond_float_range(self):
        # the steepest slope subnormal scores fit is about 1e310
        with pytest.raises(MetricError, match="^the logistic slope is beyond float range$"):
            fit_logistic([(1e-310, 0.1), (-1e-310, 0.5), (1.5e-310, 0.9)])

    def test_non_inferior_to_probe_parameters(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(0, 1, 60)
        ys = np.clip(logistic(xs, LogisticParams(-5, 2)) + rng.normal(0, 0.08, 60), 0, 1)
        fitted = fit_logistic(list(zip(xs, ys)))
        best = rmse(logistic(xs, fitted), ys)
        for a, b in [(-1, 0.5), (-5, 2), (-10, 5), (-20, 10), (0, 0), (-50, 25)]:
            probe = rmse(logistic(xs, LogisticParams(a, b)), ys)
            assert best <= probe + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(calibration_sets())
    # the grid's best curve, a = -1.70, leads to a local minimum at a = -1.74;
    # the oracle's, at a = -25.95, lies in a second, steeper basin
    @example([(0, .75), (.625, 0), (.71875, .5625), (0, .3125), (0, .125), (0, .1875),
              (1, .8125), (.8125, 1), (1, .9375), (.75, .125)])
    def test_mse_no_worse_than_grid_oracle(self, pairs):
        x, y = np.array(pairs).T
        fast, slow = fit_logistic(pairs), fit_logistic_grid(pairs)
        assert _mse(fast.a, fast.b, x, y) <= _mse(slow.a, slow.b, x, y) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(calibration_sets())
    def test_mse_no_worse_than_minpack(self, pairs):
        # Scores on a 1e-6 grid. Where two scores 1e-16 apart carry different
        # labels, the least-squares problem has no minimum: both fits run
        # toward slopes of 1e16, and where they stop is rounding luck (MINPACK
        # itself ends 9e-3 apart in MSE from its two starts on such a set).
        x, y = np.array(pairs).T
        x = np.round(x, 6)
        assume(np.ptp(x) > 0.0)
        fitted = fit_logistic(zip(x, y))
        assert _mse(fitted.a, fitted.b, x, y) <= minpack_fit_mse(x, y) + 1e-12

    def test_mse_no_worse_than_minpack_on_scores_near_one(self):
        # dec-level scores span about 1e-4 just below 1, where the columns of
        # the Jacobian are nearly collinear
        rng = np.random.default_rng(5)
        for kind in ("noiseless", "noisy", "uniform", "binary") * 15:
            n = int(rng.integers(3, 90))
            x = 1.0 - 1e-4 * rng.uniform(0.0, 1.0, n)
            if kind == "uniform":
                y = rng.uniform(0.0, 1.0, n)
            elif kind == "binary":
                y = rng.integers(0, 2, n).astype(float)
            else:
                a = rng.uniform(-30.0, 0.0) / np.ptp(x)
                y = logistic(x, LogisticParams(a, -a * rng.uniform(x.min(), x.max())))
                if kind == "noisy":
                    y = np.clip(y + rng.normal(0.0, 0.1, n), 0.0, 1.0)
            fitted = fit_logistic(zip(x, y))
            assert _mse(fitted.a, fitted.b, x, y) <= minpack_fit_mse(x, y) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(calibration_sets())
    def test_fitted_mapping_is_monotone(self, pairs):
        fitted = fit_logistic(pairs)
        steps = np.diff(logistic(np.sort([p[0] for p in pairs]), fitted))
        assert np.all(steps >= 0.0) or np.all(steps <= 0.0)


class TestRmse:
    def test_zero_on_equal(self, rng):
        x = rng.normal(size=10)
        assert rmse(x, x) == 0.0

    def test_hand_evaluated(self):
        assert abs(rmse([1.0, 0.0], [0.0, 0.0]) - np.sqrt(0.5)) < 1e-12

    def test_translation_invariance_exact(self):
        # dyadic values keep the shifted subtraction exact in binary floats
        pred = np.array([3, 17, 9, 40, 0], dtype=np.float64) / 64
        truth = np.array([5, 12, 8, 33, 2], dtype=np.float64) / 64
        c = 7.0 / 64
        assert rmse(pred + c, truth + c) == rmse(pred, truth)

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            rmse([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("k", [-1070, -1000, -600, 600, 1000])
    def test_power_of_two_scales_exactly(self, rng, k):
        # 2^-1070 makes subnormal inputs; the scale is 2^1000 at most, so a
        # difference of two values of either sign may pass 2^1023
        x, y = np.ldexp(rng.normal(size=40), 20), np.ldexp(rng.normal(size=40), 20)
        if k < -1022:
            x, y = x.round(), y.round()  # integers below 2^24, so subnormals hold them
        assert rmse(np.ldexp(x, k), np.ldexp(y, k)) == math.ldexp(rmse(x, y), k)

    def test_square_of_a_tiny_difference_does_not_underflow(self):
        # 2^-600 squared is below the smallest float
        assert rmse([1.0, 2.0 ** -600], [1.0, 0.0]) == math.ldexp(math.sqrt(0.5), -600)

    def test_beyond_float_range(self):
        assert rmse([1.5e308, -1.5e308], [0.0, 0.0]) == 1.5e308
        with pytest.raises(MetricError, match="^rmse is beyond float range$"):
            rmse([1.5e308], [-1.5e308])


class TestNcc:
    def test_perfect_correlation(self, rng):
        x = rng.normal(size=20)
        assert abs(ncc(x, x) - 1.0) < 1e-12
        assert abs(ncc(x, -x) + 1.0) < 1e-12

    def test_hand_evaluated(self):
        assert abs(ncc([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) - 0.98198) < 1e-5

    def test_matches_covariance_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 40))
            x = rng.uniform(0, 1, n)
            y = rng.uniform(0, 1, n)
            cov = np.mean(x * y) - np.mean(x) * np.mean(y)
            denom = np.sqrt((np.mean(x * x) - np.mean(x) ** 2)
                            * (np.mean(y * y) - np.mean(y) ** 2))
            assert abs(ncc(x, y) - cov / denom) < 1e-12

    def test_affine_invariance(self, rng):
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        assert abs(ncc(2.5 * x + 1.0, y) - ncc(x, y)) < 1e-12

    def test_zero_variance(self):
        with pytest.raises(MetricError):
            ncc([1.0, 1.0], [0.0, 1.0])

    @pytest.mark.parametrize("kx, ky", [(-1070, 1000), (-1000, -600), (600, -1070), (1000, 1000)])
    def test_power_of_two_scales_change_no_bit(self, rng, kx, ky):
        # integers below 2^20, so that subnormals at 2^-1070 hold them
        x, y = rng.integers(-2 ** 20, 2 ** 20, size=(2, 40)).astype(np.float64)
        assert ncc(np.ldexp(x, kx), np.ldexp(y, ky)) == ncc(x, y)


class TestKendallTau:
    def test_identical_increasing(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_tied_example_matches_oracle(self):
        pred = [1, 2, 2, 3]
        truth = [1, 2, 3, 3]
        assert kendall_tau(pred, truth) == tau_b_pair_counting(pred, truth)

    def test_random_tied_data_matches_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 60))
            pred = rng.integers(0, 5, n).astype(float)
            truth = rng.integers(0, 5, n).astype(float)
            try:
                got = kendall_tau(pred, truth)
            except MetricError:
                continue
            assert got == tau_b_pair_counting(pred, truth)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=60),
           st.sampled_from([1.0, -0.5, 1e-3]))
    def test_tie_heavy_draws_match_oracle_bit_for_bit(self, pts, scale):
        pred = [scale * p for p, _ in pts]
        truth = [float(t) for _, t in pts]
        if len(set(pred)) == 1 or len(set(truth)) == 1:
            with pytest.raises(MetricError):
                kendall_tau(pred, truth)
        else:
            assert kendall_tau(pred, truth) == tau_b_pair_counting(pred, truth)

    def test_large_n_matches_scipy(self, rng):
        from scipy import stats  # local: importing scipy.stats is slow
        n = 50_000
        pred = rng.normal(size=n).round(2)
        truth = rng.integers(0, 100, n).astype(float)
        want = stats.kendalltau(pred, truth).statistic
        assert abs(kendall_tau(pred, truth) - want) <= 1e-12
        assert kendall_tau(pred, pred) == 1.0
        assert kendall_tau(np.arange(n), np.arange(n)[::-1]) == -1.0

    def test_monotone_transform_invariance(self, rng):
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        assert kendall_tau(np.exp(x), y) == kendall_tau(x, y)

    def test_all_tied_rejected(self):
        with pytest.raises(MetricError):
            kendall_tau([1, 1, 1], [1, 2, 3])


def aggregate(recs):
    """group_aggregate of (id, pred, truth) records."""
    ids, pred, truth = zip(*recs)
    return group_aggregate(ids, pred, truth)


def group_oracle(ids, pred, truth):
    """The group section from a dict of per-group lists."""
    lists = {}
    for gid, p, t in zip(ids, pred, truth):
        lists.setdefault(gid, ([], []))
        lists[gid][0].append(p)
        lists[gid][1].append(t)

    def stderr(v):
        return float(v.std(ddof=1) / np.sqrt(v.size)) if v.size > 1 else 0.0

    groups = []
    for gid in sorted(lists):
        ps, ts = (np.array(v) for v in lists[gid])
        groups.append({"id": gid, "pred_mean": float(ps.mean()), "truth_mean": float(ts.mean()),
                       "pred_stderr": stderr(ps), "truth_stderr": stderr(ts)})
    pm = [g["pred_mean"] for g in groups]
    tm = [g["truth_mean"] for g in groups]
    defined = len(set(pm)) > 1 and len(set(tm)) > 1
    return {"rmse": rmse(pm, tm), "ncc": ncc(pm, tm) if defined else None,
            "kt": kendall_tau(pm, tm) if defined else None, "n_trials": len(ids),
            "groups": groups}


@st.composite
def grouped_trials(draw):
    """(ids, pred, truth): ids from st.text(), as one group, all singletons
    or a few shared groups; values on a coarse grid, so that means tie, or
    anywhere in [1e-3, 1]."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["one", "singletons", "shared"]))
    if shape == "one":
        ids = [draw(st.text())] * n
    elif shape == "singletons":
        ids = draw(st.lists(st.text(), min_size=n, max_size=n, unique=True))
    else:
        pool = draw(st.lists(st.text(), min_size=1, max_size=6, unique=True))
        ids = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    value = st.one_of(st.integers(0, 8).map(lambda k: k / 8), st.floats(1e-3, 1.0))
    pred = draw(st.lists(value, min_size=n, max_size=n))
    truth = draw(st.lists(value, min_size=n, max_size=n))
    return ids, pred, truth


class TestGroupAggregate:
    def test_single_group_mean(self):
        recs = [("L1", 0.2, 0.4), ("L1", 0.4, 0.6)]
        rep = aggregate(recs)
        assert [g["pred_mean"] for g in rep["groups"]] == [pytest.approx(0.3)]
        assert [g["truth_mean"] for g in rep["groups"]] == [pytest.approx(0.5)]
        assert rep["ncc"] is None

    def test_size_one_groups_zero_stderr(self):
        recs = [("L1", 0.2, 0.3), ("L2", 0.8, 0.9)]
        rep = aggregate(recs)
        assert [g["pred_stderr"] for g in rep["groups"]] == [0.0, 0.0]

    def test_two_group_hand_arithmetic(self):
        recs = [("A", 0.2, 0.25), ("A", 0.4, 0.35), ("B", 0.8, 0.8)]
        rep = aggregate(recs)
        assert [g["pred_mean"] for g in rep["groups"]] == [pytest.approx(0.3), pytest.approx(0.8)]
        want = np.sqrt(((0.3 - 0.3) ** 2 + (0.8 - 0.8) ** 2) / 2)
        assert rep["rmse"] == pytest.approx(want)

    def test_singleton_groups_reproduce_trial_metrics(self, rng):
        pred = rng.uniform(0, 1, 12)
        truth = rng.uniform(0, 1, 12)
        recs = [(f"g{i}", p, t) for i, (p, t) in enumerate(zip(pred, truth))]
        rep = aggregate(recs)
        assert rep["rmse"] == pytest.approx(calib.rmse(pred, truth))
        assert rep["ncc"] == pytest.approx(calib.ncc(pred, truth), abs=1e-12)
        assert rep["kt"] == pytest.approx(calib.kendall_tau(pred, truth))

    def test_single_group_correlations_are_null_in_json(self):
        rep = aggregate([("L1", 0.2, 0.4), ("L1", 0.4, 0.6)])
        d = json.loads(json.dumps(rep, allow_nan=False))
        assert d["ncc"] is None and d["kt"] is None
        assert d["rmse"] == pytest.approx(0.2)

    @pytest.mark.parametrize("pred, truth", [
        ([0.2, 0.9, 0.1, 0.3], [0.4, 0.6, 0.6, 0.4]),  # truth means 0.5 and 0.5
        ([0.2, 0.4, 0.4, 0.2], [0.1, 0.2, 0.5, 0.6]),  # pred means 0.3 and 0.3
    ], ids=["tied-truth-means", "tied-pred-means"])
    def test_tied_group_means_have_null_correlations(self, pred, truth):
        rep = group_aggregate(["L0", "L0", "L1", "L1"], pred, truth)
        assert rep["ncc"] is None and rep["kt"] is None

    @settings(max_examples=200, deadline=None)
    @given(grouped_trials())
    @example((["9", "10", "a\x00", "a", "é", "9"], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [0.2] * 6))
    def test_matches_dict_of_lists_oracle(self, trials):
        got = group_aggregate(*trials)
        assert got == group_oracle(*trials)
        json.dumps(got, allow_nan=False)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(MetricError, match="one id per"):
            group_aggregate(["a", "b"], [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        with pytest.raises(MetricError, match="length >= 1"):
            group_aggregate([], [], [])


class TestNonFiniteInput:
    """NaN or inf in either argument is an error, never a silent result."""

    def test_kendall_tau_nan_truth(self):
        # pair counting treats every comparison with NaN as a tie: tau 1.0
        with pytest.raises(MetricError, match="non-finite"):
            kendall_tau([1, 2, 3, 4], [0.1, np.nan, 0.3, 0.4])

    @pytest.mark.parametrize("metric", [rmse, ncc, kendall_tau])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_metrics(self, metric, bad):
        good = [0.1, 0.5, 0.3, 0.9]
        with pytest.raises(MetricError, match="non-finite"):
            metric([0.2, bad, 0.4, 0.8], good)
        with pytest.raises(MetricError, match="non-finite"):
            metric(good, [0.2, bad, 0.4, 0.8])

    def test_fit_logistic_nan_label(self):
        # one NaN label used to make every objective NaN and return a=0, b=0
        x = np.linspace(-1.0, 1.0, 20)
        pairs = [(xi, yi) for xi, yi in zip(x, logistic(x, LogisticParams(-4.0, 0.5)))]
        pairs[7] = (pairs[7][0], float("nan"))
        with pytest.raises(MetricError, match="non-finite"):
            fit_logistic(pairs)

    def test_fit_logistic_nan_score(self):
        with pytest.raises(MetricError, match="non-finite"):
            fit_logistic([(0.1, 0.2), (np.nan, 0.5), (0.9, 0.8)])

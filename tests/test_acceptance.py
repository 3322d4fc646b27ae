"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import time

import numpy as np
import pytest

from hirsim import asr, calib, pipeline, reps, sim
from hirsim.pipeline import PipelineConfig
from conftest import SMOKE_SNRS, build_smoke_dataset, make_binaural, make_rep
from test_asr import random_ctc_instance
from test_calib import tau_b_pair_counting


def _report(n, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n:2d}: {desc}")
    assert ok, f"criterion {n}: {desc}"


def test_criterion_01_ctc_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    checked = 0
    worst = 0.0
    while checked < 500:
        lp, labels = random_ctc_instance(rng, t_max=6, v_max=4, l_max=3)
        try:
            fast = asr.ctc_loss(lp, labels)
        except asr.CtcInfeasibleError:
            continue
        worst = max(worst, abs(fast - asr.ctc_brute_force(lp, labels)))
        checked += 1
    elapsed = time.monotonic() - t0
    _report(1, f"CTC DP vs brute force, 500 instances (max err {worst:.2e}, "
               f"{elapsed:.1f}s)", worst <= 1e-9 and elapsed < 5.0)


def test_criterion_02_ctc_total_probability():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(30):
        T = int(rng.integers(1, 5))
        V = int(rng.integers(2, 4))
        lp = np.log(rng.dirichlet(np.ones(V), size=T))
        total = sum(asr.ctc_output_distribution(lp).values())
        worst = max(worst, abs(total - 1.0))
    _report(2, f"CTC collapsed outputs sum to 1 (max err {worst:.2e})", worst <= 1e-9)


def test_criterion_03_attention_invariants():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(20):
        Q = rng.normal(size=(6, 5))
        K = rng.normal(size=(8, 5))
        weights = asr.scaled_dot_attention(Q, K, np.eye(8))
        ok &= bool(np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12))
        V = rng.normal(size=(8, 3))
        same_k = np.tile(K[:1], (8, 1))
        out = asr.scaled_dot_attention(Q, same_k, V)
        ok &= bool(np.all(np.abs(out - V.mean(axis=0)) <= 1e-12))
    # causal isolation: perturbing frame j > i must leave row i bit-identical
    params = asr.AttentionParams.from_seed(0, "acc", n_heads=2, d_model=8)
    X = rng.normal(size=(7, 8))
    mask = asr.causal_mask(7)
    base = asr.multi_head_attention(X, X, params, mask)
    for j in range(1, 7):
        X2 = X.copy()
        X2[j] += rng.normal(size=8)
        pert = asr.multi_head_attention(X2, X2, params, mask)
        ok &= bool(np.array_equal(base[:j], pert[:j]))
    _report(3, "attention row sums, uniform-key mean, causal isolation", ok)


def test_criterion_04_similarity_self_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for level in ("input", "pre", "enc"):
        for _ in range(200):
            b = make_binaural(rng, int(rng.integers(2, 20)), int(rng.integers(2, 10)),
                              level=level)
            worst = max(worst, abs(sim.framewise_binaural_sim(b, b).value - 1.0))
    for _ in range(200):
        b = make_binaural(rng, int(rng.integers(2, 15)), int(rng.integers(2, 8)),
                          level="dec", t_right=int(rng.integers(2, 15)))
        worst = max(worst, abs(sim.binaural_warped_sim(b, b).value - 1.0))
    _report(4, f"self-similarity = 1 at every level (max err {worst:.2e})",
            worst <= 1e-9)


def test_criterion_05_channel_swap_invariance():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(200):
        level = ("enc", "dec")[int(rng.integers(0, 2))]
        t = int(rng.integers(2, 12))
        tr = int(rng.integers(2, 12)) if level == "dec" else t
        ref = make_binaural(rng, t, 4, level=level, t_right=tr)
        proc = make_binaural(rng, t, 4, level=level,
                             t_right=int(rng.integers(2, 12)) if level == "dec" else t)
        score = sim.binaural_similarity(ref, proc, radius=3)
        for swap_ref in (True, False):
            src = ref if swap_ref else proc
            swapped = reps.BinauralRep(
                left=reps.RepSequence(src.right.data, level, "left", src.signal_id),
                right=reps.RepSequence(src.left.data, level, "right", src.signal_id))
            score2 = sim.binaural_similarity(swapped if swap_ref else ref,
                                             proc if swap_ref else swapped, radius=3)
            ok &= score.value == score2.value
    _report(5, "left/right swap changes scores by exactly 0", ok)


def test_criterion_06_dtw_oracle():
    rng = np.random.default_rng(106)
    ok = True
    worst_eq = 0.0
    for _ in range(200):
        t1, t2 = (int(v) for v in rng.integers(2, 51, size=2))
        A = rng.normal(size=(t1, 4))
        B = rng.normal(size=(t2, 4))
        exact = sim.path_cost(A, B, sim.dtw_path_exact(A, B))
        full = sim.path_cost(A, B, sim.dtw_path_fast(A, B, radius=max(t1, t2)))
        worst_eq = max(worst_eq, abs(full - exact))
        fast = sim.path_cost(A, B, sim.dtw_path_fast(A, B, radius=10))
        ok &= fast >= exact - 1e-12
    _report(6, f"fast DTW: full radius = exact (err {worst_eq:.2e}), "
               "radius 10 never beats exact", ok and worst_eq <= 1e-9)


def test_criterion_07_stretch_invariance():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(50):
        t = int(rng.integers(3, 25))
        A = rng.normal(size=(t, 6))
        factor = int(rng.integers(2, 4))
        stretched = np.repeat(A, factor, axis=0)
        path = sim.dtw_path_fast(A, stretched, radius=10)
        val, _ = sim.warped_sim(A, stretched, path)
        worst = max(worst, abs(val - 1.0))
    _report(7, f"similarity to frame-repeated stretch = 1 (max err {worst:.2e})",
            worst <= 1e-6)


def test_criterion_08_logistic_fit_recovery():
    truth = calib.LogisticParams(-8.0, 4.0)
    rng = np.random.default_rng(108)
    xs = rng.uniform(0.0, 1.0, size=50)
    pairs = list(zip(xs, calib.logistic(xs, truth)))
    f1 = calib.fit_logistic(pairs)
    f2 = calib.fit_logistic(pairs)
    err = calib.rmse(calib.logistic(xs, f1), calib.logistic(xs, truth))
    ok = err <= 1e-4 and (f1.a, f1.b) == (f2.a, f2.b)
    _report(8, f"logistic fit recovery (rmse {err:.2e}) and determinism", ok)


def test_criterion_09_metric_oracles():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 201))
        pred = rng.integers(0, 8, size=n).astype(float)
        truth = rng.integers(0, 8, size=n).astype(float)
        try:
            got = calib.kendall_tau(pred, truth)
        except calib.MetricError:
            continue
        ok &= got == tau_b_pair_counting(pred, truth)
    for _ in range(50):
        n = int(rng.integers(3, 50))
        x = rng.uniform(0, 1, n)
        y = rng.uniform(0, 1, n)
        cov = np.mean(x * y) - np.mean(x) * np.mean(y)
        denom = np.sqrt((np.mean(x * x) - np.mean(x) ** 2)
                        * (np.mean(y * y) - np.mean(y) ** 2))
        ok &= abs(calib.ncc(x, y) - cov / denom) <= 1e-12
    pred = np.array([3, 17, 9, 40, 0], dtype=np.float64) / 64
    truth = np.array([5, 12, 8, 33, 2], dtype=np.float64) / 64
    ok &= calib.rmse(pred + 7.0 / 64, truth + 7.0 / 64) == calib.rmse(pred, truth)
    _report(9, "tau-b vs pair counting, ncc vs covariance formula, rmse shift", ok)


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """Full pipeline over the synthetic noise-ladder dataset at level enc."""
    root = tmp_path_factory.mktemp("smoke")
    manifest = build_smoke_dataset(root / "data", n_signals=10, snrs=SMOKE_SNRS)
    cfg = PipelineConfig(level="enc")

    def run(tag):
        cache = root / f"cache_{tag}"
        out = root / f"out_{tag}"
        out.mkdir(exist_ok=True)
        scores = out / "scores.csv"
        pipeline.run_featurize(manifest, cache, cfg)
        pipeline.run_forward(manifest, cache, cfg, levels=("enc",))
        pipeline.run_sim(manifest, cache, scores, cfg)
        pipeline.run_fit(scores, manifest, out / "params.json", cfg)
        pipeline.run_eval(scores, manifest, out / "params.json", out, cfg)
        return out

    return manifest, run


def test_criterion_10_end_to_end_monotonicity(smoke_run):
    manifest, run = smoke_run
    t0 = time.monotonic()
    out = run("a")
    elapsed = time.monotonic() - t0
    rows = pipeline.read_scores(out / "scores.csv")
    by_level = {}
    for row in rows:
        j = int(row["signal_id"][-1])  # noise-ladder index from the id suffix
        by_level.setdefault(j, []).append(row["raw_score"])
    means = [np.mean(by_level[j]) for j in sorted(by_level)]
    non_increasing = all(a > b for a, b in zip(means, means[1:]))
    # score should rank with SNR: higher SNR (lower ladder index) -> higher score
    snr_rank = -np.arange(len(means), dtype=float)
    kt = calib.kendall_tau(means, snr_rank)
    _report(10, f"mean enc score decreases with noise {np.round(means, 4).tolist()}, "
                f"tau vs SNR {kt:.3f}, {elapsed:.1f}s",
            non_increasing and kt >= 0.9 and elapsed < 60.0)


def test_criterion_11_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(111)
    ok = True
    for i in range(100):
        rep = make_rep(rng, int(rng.integers(1, 40)), int(rng.integers(1, 16)),
                       level=reps.LEVELS[i % 4], channel=reps.CHANNELS[i % 2],
                       signal_id=f"sig_{i}")
        p = tmp_path / "x.hrep"
        reps.write_reps(rep, p)
        back = reps.read_reps(p)
        ok &= back.data.tobytes() == rep.data.tobytes()
        ok &= (back.level, back.channel, back.signal_id) == \
            (rep.level, rep.channel, rep.signal_id)
    # corrupted headers raise the documented errors
    p = tmp_path / "x.hrep"
    raw = bytearray(p.read_bytes())
    raw[:4] = b"XXXX"
    (tmp_path / "bad_magic.hrep").write_bytes(bytes(raw))
    with pytest.raises(reps.FormatError, match="bad magic"):
        reps.read_reps(tmp_path / "bad_magic.hrep")
    (tmp_path / "trunc.hrep").write_bytes(p.read_bytes()[:-2])
    with pytest.raises(reps.FormatError):
        reps.read_reps(tmp_path / "trunc.hrep")
    raw = bytearray(p.read_bytes())
    raw[4] = 7
    (tmp_path / "ver.hrep").write_bytes(bytes(raw))
    with pytest.raises(reps.FormatError, match="version"):
        reps.read_reps(tmp_path / "ver.hrep")
    _report(11, "100 round trips bit-exact; corrupt headers rejected", ok)


def test_criterion_12_pipeline_determinism(smoke_run):
    manifest, run = smoke_run
    out_a = run("a")  # cached from criterion 10 if it ran first
    out_b = run("b")  # fresh cache, fresh outputs
    same_scores = (out_a / "scores.csv").read_bytes() == (out_b / "scores.csv").read_bytes()
    same_report = (out_a / "report.json").read_bytes() == \
        (out_b / "report.json").read_bytes()
    _report(12, "two full runs: identical scores.csv and report.json",
            same_scores and same_report)

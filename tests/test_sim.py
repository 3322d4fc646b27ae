import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hirsim import sim
from hirsim.reps import BinauralRep, RepSequence
from hirsim.sim import (
    SimilarityError,
    WarpPath,
    binaural_warped_sim,
    cosine,
    dtw_path_exact,
    dtw_path_fast,
    framewise_binaural_sim,
    path_cost,
    warped_sim,
)
from conftest import make_binaural, make_rep


def rep(data, level="dec", channel="left", signal_id="s"):
    return RepSequence(data=np.asarray(data, dtype=np.float32), level=level,
                       channel=channel, signal_id=signal_id)


class TestCosine:
    def test_self_similarity(self, rng):
        h = rng.normal(size=16)
        assert abs(cosine(h, h) - 1.0) < 1e-12

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_evaluated(self):
        assert abs(cosine([1.0, 1.0], [1.0, 0.0]) - 1 / np.sqrt(2)) < 1e-12

    def test_zero_norm_scores_zero(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine([1.0], [1.0, 2.0])

    def test_scale_invariance(self, rng):
        h = rng.normal(size=8)
        g = rng.normal(size=8)
        assert abs(cosine(h, g) - cosine(3.7 * h, 0.01 * g)) < 1e-12


class TestFramewise:
    def test_self_similarity(self, rng):
        b = make_binaural(rng, 12, 6, level="enc")
        score = framewise_binaural_sim(b, b)
        assert abs(score.value - 1.0) < 1e-9
        assert score.level == "enc"

    def test_max_picks_matching_pair(self, rng):
        u = rng.normal(size=(10, 5)).astype(np.float32)
        ref = BinauralRep(left=rep(u, "enc", "left"), right=rep(u, "enc", "right"))
        proc = BinauralRep(left=rep(u, "enc", "left"), right=rep(-u, "enc", "right"))
        assert abs(framewise_binaural_sim(ref, proc).value - 1.0) < 1e-9

    def test_crossed_channels_still_score_one(self):
        rl = [[1.0, 0.0], [0.0, 1.0]]
        ref = BinauralRep(left=rep(rl, "enc", "left"), right=rep(rl, "enc", "right"))
        proc = BinauralRep(left=rep([[0.0, 1.0], [0.0, 1.0]], "enc", "left"),
                           right=rep([[1.0, 0.0], [1.0, 0.0]], "enc", "right"))
        assert abs(framewise_binaural_sim(ref, proc).value - 1.0) < 1e-9

    def test_dec_level_rejected(self, rng):
        b = make_binaural(rng, 5, 3, level="dec")
        with pytest.raises(SimilarityError):
            framewise_binaural_sim(b, b)

    def test_small_length_mismatch_truncates(self, rng):
        ref = make_binaural(rng, 50, 4, level="enc")
        proc = make_binaural(rng, 48, 4, level="enc")
        framewise_binaural_sim(ref, proc)  # within tolerance

    def test_large_length_mismatch_rejected(self, rng):
        ref = make_binaural(rng, 50, 4, level="enc")
        proc = make_binaural(rng, 40, 4, level="enc")
        with pytest.raises(SimilarityError):
            framewise_binaural_sim(ref, proc)

    def test_zero_norm_frames_counted(self, rng):
        u = rng.normal(size=(4, 3)).astype(np.float32)
        z = u.copy()
        z[1] = 0.0
        ref = BinauralRep(left=rep(u, "enc", "left"), right=rep(u, "enc", "right"))
        proc = BinauralRep(left=rep(z, "enc", "left"), right=rep(z, "enc", "right"))
        assert framewise_binaural_sim(ref, proc).zero_norm_frames == 4

    def test_channel_swap_invariance(self, rng):
        ref = make_binaural(rng, 10, 4, level="enc")
        proc = make_binaural(rng, 10, 4, level="enc")
        swapped = BinauralRep(
            left=RepSequence(ref.right.data, "enc", "left", ref.signal_id),
            right=RepSequence(ref.left.data, "enc", "right", ref.signal_id))
        assert framewise_binaural_sim(ref, proc).value == \
            framewise_binaural_sim(swapped, proc).value


def framewise_per_pairing(ref, proc):
    """Reference: row cosines of each of the four channel pairings in turn,
    then the per-frame max; zero-norm frames summed over the pairings."""
    T = min(ref.left.n_frames, proc.left.n_frames)
    per_pair, zero = [], 0
    for a in (ref.left, ref.right):
        for b in (proc.left, proc.right):
            A, B = a.data[:T].astype(np.float64), b.data[:T].astype(np.float64)
            na, nb = np.linalg.norm(A, axis=1), np.linalg.norm(B, axis=1)
            z = (na < sim.ZERO_NORM_EPS) | (nb < sim.ZERO_NORM_EPS)
            per_pair.append(np.where(z, 0.0, np.einsum("td,td->t", A, B)
                                     / np.where(z, 1.0, na * nb)))
            zero += int(z.sum())
    return float(np.maximum.reduce(per_pair).mean()), zero


def framewise_one_shot(ref, proc):
    """Oracle: framewise_binaural_sim's cosines taken over all frames at once."""
    T = sim._reconcile_lengths(ref.left.n_frames, proc.left.n_frames)
    A, B = (np.stack([r.left.data[:T], r.right.data[:T]]).astype(np.float64) for r in (ref, proc))
    vals, zero = sim._cosine_rows(A[:, None], B[None])  # (ref channel, proc channel, frame)
    return float(vals.max(axis=(0, 1)).mean()), int(zero.sum())


class TestFramewiseBlocks:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5000), st.integers(1, 600), st.integers(-12, 12),
           st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.integers(0, 2 ** 32 - 1))
    # blocks of two frames with a last block of three; one frame of a wide level
    @example(d=sim.BLOCK_VALUES // 2, t_ref=7, diff=0, zero_frac=0.0, seed=0)
    @example(d=sim.BLOCK_VALUES + 1, t_ref=1, diff=0, zero_frac=0.0, seed=0)
    def test_equals_one_shot(self, d, t_ref, diff, zero_frac, seed):
        t_ref = min(t_ref, max(1, 2 ** 17 // d))  # at most 512 KB per channel
        tol = max(2, int(0.02 * t_ref))
        t_proc = max(1, t_ref + max(-tol, min(tol, diff)))
        rng = np.random.default_rng(seed)

        def binaural(t):
            chans = rng.normal(size=(2, t, d)).astype(np.float32)
            chans[rng.random((2, t)) < zero_frac] = 0.0
            return BinauralRep(left=rep(chans[0], "pre", "left"),
                               right=rep(chans[1], "pre", "right"))

        ref, proc = binaural(t_ref), binaural(t_proc)
        score = framewise_binaural_sim(ref, proc)
        assert (score.value, score.zero_norm_frames) == framewise_one_shot(ref, proc)

    def test_widest_level_matches_one_shot_past_numpy_buffer(self, rng):
        # rows over numpy's 8192-value buffer: a lone-frame block would sum
        # them in another order
        ref = make_binaural(rng, 5, 9000, level="pre")
        proc = make_binaural(rng, 5, 9000, level="pre")
        score = framewise_binaural_sim(ref, proc)
        assert (score.value, score.zero_norm_frames) == framewise_one_shot(ref, proc)


class TestFramewiseBroadcast:
    @pytest.mark.parametrize("t_ref,t_proc,d",
                             [(1, 1, 1), (12, 12, 7), (50, 49, 64), (101, 100, 40)])
    def test_equals_per_pairing_reference(self, rng, t_ref, t_proc, d):
        for _ in range(5):
            ref = make_binaural(rng, t_ref, d, level="pre")
            proc = make_binaural(rng, t_proc, d, level="pre")
            score = framewise_binaural_sim(ref, proc)
            assert (score.value, score.zero_norm_frames) == framewise_per_pairing(ref, proc)

    def test_zero_norm_rows_equal_reference(self, rng):
        chans = [rng.normal(size=(20, 6)).astype(np.float32) for _ in range(4)]
        for c, rows in zip(chans, ([0, 3], [3, 7], [], [0, 19])):
            c[rows] = 0.0
        ref = BinauralRep(left=rep(chans[0], "enc", "left"), right=rep(chans[1], "enc", "right"))
        proc = BinauralRep(left=rep(chans[2], "enc", "left"), right=rep(chans[3], "enc", "right"))
        score = framewise_binaural_sim(ref, proc)
        assert (score.value, score.zero_norm_frames) == framewise_per_pairing(ref, proc)
        # pairings (l,l) 2 (l,r) 3 (r,l) 2 (r,r) 4
        assert score.zero_norm_frames == 11


class TestWarpPath:
    def test_boundary_enforced(self):
        with pytest.raises(ValueError):
            WarpPath(pairs=((1, 0), (2, 1)))

    def test_step_validation(self):
        with pytest.raises(ValueError):
            WarpPath(pairs=((0, 0), (2, 0)))
        with pytest.raises(ValueError):
            WarpPath(pairs=((0, 0), (0, 0)))


class TestDtwExact:
    def test_identical_sequences_diagonal(self, rng):
        A = rng.normal(size=(8, 4))
        p = dtw_path_exact(A, A)
        assert p.pairs == tuple((i, i) for i in range(8))
        assert path_cost(A, A, p) < 1e-9

    def test_length_one_forced_path(self, rng):
        A = rng.normal(size=(1, 3))
        B = rng.normal(size=(5, 3))
        p = dtw_path_exact(A, B)
        assert p.pairs == tuple((0, j) for j in range(5))

    def test_no_worse_than_diagonal(self, rng):
        for _ in range(20):
            A = rng.normal(size=(5, 3))
            B = rng.normal(size=(5, 3))
            opt = path_cost(A, B, dtw_path_exact(A, B))
            diag = path_cost(A, B, WarpPath(tuple((i, i) for i in range(5))))
            assert opt <= diag + 1e-12


class TestDtwFast:
    def test_full_radius_matches_exact(self, rng):
        for _ in range(10):
            t1, t2 = rng.integers(2, 40, size=2)
            A = rng.normal(size=(t1, 3))
            B = rng.normal(size=(t2, 3))
            exact = path_cost(A, B, dtw_path_exact(A, B))
            fast = path_cost(A, B, dtw_path_fast(A, B, radius=int(max(t1, t2))))
            assert abs(exact - fast) < 1e-9

    def test_identical_sequences_zero_cost(self, rng):
        A = rng.normal(size=(40, 4))
        for radius in (0, 2, 10):
            assert path_cost(A, A, dtw_path_fast(A, A, radius)) < 1e-9

    def test_never_beats_exact(self, rng):
        for _ in range(15):
            t1, t2 = rng.integers(20, 50, size=2)
            A = rng.normal(size=(t1, 3))
            B = rng.normal(size=(t2, 3))
            exact = path_cost(A, B, dtw_path_exact(A, B))
            fast = path_cost(A, B, dtw_path_fast(A, B, radius=2))
            assert fast >= exact - 1e-12

    def test_returned_path_is_valid(self, rng):
        A = rng.normal(size=(33, 3))
        B = rng.normal(size=(47, 3))
        p = dtw_path_fast(A, B, radius=3)
        assert p.pairs[0] == (0, 0)
        assert p.pairs[-1] == (32, 46)


def dtw_window_min_backtrace(A, B, allowed):
    """Reference: the DP filled without predecessor links, then a backtrace
    that re-ranks each cell's predecessors as min over (D, order, cell) with
    order diagonal 0, i-advance 1, j-advance 2."""
    t1, t2 = A.shape[0], B.shape[0]
    C = sim._cost_matrix(A, B)
    D = np.full((t1, t2), np.inf)
    for i in range(t1):
        for j in range(t2):
            if allowed is not None and not allowed[i, j]:
                continue
            if i == 0 and j == 0:
                D[i, j] = C[i, j]
                continue
            best = np.inf
            if i > 0 and j > 0:
                best = D[i - 1, j - 1]
            if i > 0 and D[i - 1, j] < best:
                best = D[i - 1, j]
            if j > 0 and D[i, j - 1] < best:
                best = D[i, j - 1]
            D[i, j] = C[i, j] + best
    if not np.isfinite(D[t1 - 1, t2 - 1]):
        raise SimilarityError("DTW window disconnects the endpoints")
    pairs = [(t1 - 1, t2 - 1)]
    i, j = t1 - 1, t2 - 1
    while (i, j) != (0, 0):
        cands = []
        if i > 0 and j > 0:
            cands.append((D[i - 1, j - 1], 0, (i - 1, j - 1)))
        if i > 0:
            cands.append((D[i - 1, j], 1, (i - 1, j)))
        if j > 0:
            cands.append((D[i, j - 1], 2, (i, j - 1)))
        _, _, (i, j) = min(cands)
        pairs.append((i, j))
    return tuple(reversed(pairs))


def tie_heavy_frames(rng, kind, t, d=3):
    """`t` frames: independent ("random"), drawn from a pool of three vectors,
    one of them zero ("repeated"), or all the same vector ("constant")."""
    if kind == "random":
        return rng.normal(size=(t, d))
    pool = np.vstack([np.zeros(d), rng.integers(-2, 3, size=(2, d))]).astype(np.float64)
    return pool[rng.integers(3, size=t)] if kind == "repeated" else np.repeat(pool[1:2], t, axis=0)


class TestDtwTieBreak:
    @pytest.mark.parametrize("kind", ["random", "repeated", "constant"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_paths_equal_min_backtrace_reference(self, rng, kind, masked):
        def outcome(dtw, A, B, allowed):
            try:
                return dtw(A, B, allowed)
            except SimilarityError:
                return "disconnected"

        connected = 0
        for _ in range(60):
            t1, t2 = (int(t) for t in rng.integers(1, 13, size=2))
            A, B = tie_heavy_frames(rng, kind, t1), tie_heavy_frames(rng, kind, t2)
            allowed = rng.random((t1, t2)) < 0.8 if masked else None
            want = outcome(dtw_window_min_backtrace, A, B, allowed)
            got = outcome(sim._dtw_window, A, B, allowed)
            assert (got if got == "disconnected" else got[0].pairs) == want
            connected += want != "disconnected"
        assert connected >= 10


def expand_window_sets(path, t1, t2, radius):
    """Reference: the fast-DTW corridor built as a set of (i, j) cells."""
    cells = set()
    for ci, cj in path.pairs:
        for i in (2 * ci, 2 * ci + 1):
            for j in (2 * cj, 2 * cj + 1):
                cells.add((i, j))
    window = set()
    for i, j in cells:
        for di in range(-radius, radius + 1):
            for dj in range(-radius, radius + 1):
                ii, jj = i + di, j + dj
                if 0 <= ii < t1 and 0 <= jj < t2:
                    window.add((ii, jj))
    return sorted(window)


def random_path(rng, c1, c2):
    """A random valid warp path from (0, 0) to (c1 - 1, c2 - 1)."""
    pairs = [(0, 0)]
    i = j = 0
    while (i, j) != (c1 - 1, c2 - 1):
        steps = [(di, dj) for di, dj in ((1, 0), (0, 1), (1, 1))
                 if i + di < c1 and j + dj < c2]
        di, dj = steps[rng.integers(len(steps))]
        i, j = i + di, j + dj
        pairs.append((i, j))
    return WarpPath(tuple(pairs))


class TestWarpedFromDtwMatrix:
    @settings(max_examples=120, deadline=None)
    @given(st.tuples(*[st.integers(1, 40)] * 4), st.sampled_from(["random", "repeated", "constant"]),
           st.integers(1, 6), st.integers(0, 12), st.integers(0, 2 ** 32 - 1))
    def test_equals_max_over_warped_sim(self, lengths, kind, d, radius, seed):
        """The decoder score equals the max over pairings of warped_sim on
        dtw_path_fast's path, and the zero-norm count their sum; "repeated"
        and "constant" frames make zero-norm rows and DTW ties."""
        rng = np.random.default_rng(seed)
        chans = [tie_heavy_frames(rng, kind, t, d).astype(np.float32) for t in lengths]
        ref = BinauralRep(left=rep(chans[0], "dec", "left"), right=rep(chans[1], "dec", "right"))
        proc = BinauralRep(left=rep(chans[2], "dec", "left"), right=rep(chans[3], "dec", "right"))
        per_pairing = [warped_sim(a, b, dtw_path_fast(a, b, radius))
                       for a in (ref.left, ref.right) for b in (proc.left, proc.right)]
        score = binaural_warped_sim(ref, proc, radius)
        assert (score.value, score.zero_norm_frames) == (max(v for v, _ in per_pairing),
                                                         sum(z for _, z in per_pairing))


class TestExpandWindow:
    def test_mask_equals_set_reference(self, rng):
        for radius in range(13):
            for _ in range(4):
                t1, t2 = (int(t) for t in rng.integers(2, 41, size=2))
                # the coarse grid of _coarsen: odd lengths keep their last frame
                path = random_path(rng, (t1 + 1) // 2, (t2 + 1) // 2)
                mask = sim._expand_window(path, t1, t2, radius)
                assert mask.shape == (t1, t2)
                assert list(zip(*np.nonzero(mask))) == expand_window_sets(path, t1, t2, radius)
                # _dtw_window relies on the corridor holding both endpoints
                assert mask[0, 0] and mask[-1, -1]


class TestWarpedSim:
    def test_self_with_diagonal(self, rng):
        A = rng.normal(size=(6, 4))
        p = WarpPath(tuple((i, i) for i in range(6)))
        val, _ = warped_sim(A, A, p)
        assert abs(val - 1.0) < 1e-12

    def test_stretching_is_free(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        H = np.stack([u, v])
        H_hat = np.stack([u, u, v])
        p = dtw_path_exact(H, H_hat)
        val, _ = warped_sim(H, H_hat, p)
        assert abs(val - 1.0) < 1e-12

    def test_orthogonal_throughout(self):
        H = np.array([[1.0, 0.0], [1.0, 0.0]])
        H_hat = np.array([[0.0, 1.0], [0.0, 1.0]])
        p = WarpPath(((0, 0), (1, 1)))
        val, _ = warped_sim(H, H_hat, p)
        assert val == 0.0

    def test_invalid_path_rejected(self, rng):
        A = rng.normal(size=(4, 2))
        B = rng.normal(size=(6, 2))
        with pytest.raises(SimilarityError):
            warped_sim(A, B, WarpPath(((0, 0), (1, 1))))


class TestBinauralWarped:
    def test_self_similarity(self, rng):
        b = make_binaural(rng, 9, 5, level="dec", t_right=7)
        assert abs(binaural_warped_sim(b, b).value - 1.0) < 1e-9

    def test_channel_swap_exact_invariance(self, rng):
        ref = make_binaural(rng, 8, 4, level="dec", t_right=6)
        proc = make_binaural(rng, 7, 4, level="dec", t_right=9)
        swapped = BinauralRep(
            left=RepSequence(proc.right.data, "dec", "left", proc.signal_id),
            right=RepSequence(proc.left.data, "dec", "right", proc.signal_id))
        assert binaural_warped_sim(ref, proc).value == \
            binaural_warped_sim(ref, swapped).value

    def test_matching_pair_dominates_noise(self, rng):
        # ref channels identical; proc left = 2x frame-repeated ref,
        # proc right lives in orthogonal dimensions
        d = 8
        base = np.abs(rng.normal(size=(10, d))) + 0.1
        base[:, d // 2:] = 0.0
        stretched = np.repeat(base, 2, axis=0)
        noise = np.zeros((12, d))
        noise[:, d // 2:] = np.abs(rng.normal(size=(12, d // 2))) + 0.1
        ref = BinauralRep(left=rep(base, "dec", "left"), right=rep(base, "dec", "right"))
        proc = BinauralRep(left=rep(stretched, "dec", "left"),
                           right=rep(noise, "dec", "right"))
        assert abs(binaural_warped_sim(ref, proc).value - 1.0) < 1e-6

    def test_wrong_level_rejected(self, rng):
        b = make_binaural(rng, 5, 3, level="enc")
        with pytest.raises(SimilarityError):
            binaural_warped_sim(b, b)

    def test_zero_norm_frames_summed_over_pairings(self, rng):
        chans = [rng.normal(size=(t, 5)).astype(np.float32) for t in (30, 24, 27, 33)]
        for c, rows in zip(chans, ([0, 4, 5], [], [2, 20], [31])):
            c[rows] = 0.0
        ref = BinauralRep(left=rep(chans[0], "dec", "left"), right=rep(chans[1], "dec", "right"))
        proc = BinauralRep(left=rep(chans[2], "dec", "left"), right=rep(chans[3], "dec", "right"))
        per_pairing = [warped_sim(a, b, dtw_path_fast(a, b, 3))[1]
                       for a in (ref.left, ref.right) for b in (proc.left, proc.right)]
        assert sum(per_pairing) > max(per_pairing)
        assert binaural_warped_sim(ref, proc, radius=3).zero_norm_frames == sum(per_pairing)


class TestInvariants:
    def test_per_vector_scale_invariance(self, rng):
        ref = make_binaural(rng, 10, 4, level="enc")
        proc = make_binaural(rng, 10, 4, level="enc")
        base = framewise_binaural_sim(ref, proc).value
        scales = rng.uniform(0.5, 2.0, size=(10, 1)).astype(np.float32)
        scaled = BinauralRep(
            left=RepSequence(proc.left.data * scales, "enc", "left", proc.signal_id),
            right=RepSequence(proc.right.data * scales, "enc", "right", proc.signal_id))
        assert abs(framewise_binaural_sim(ref, scaled).value - base) < 1e-6

    def test_scores_in_range(self, rng):
        for _ in range(30):
            ref = make_binaural(rng, 6, 3, level="enc")
            proc = make_binaural(rng, 6, 3, level="enc")
            v = framewise_binaural_sim(ref, proc).value
            assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12

    def test_nonnegative_reps_score_nonnegative(self, rng):
        for _ in range(10):
            a = np.abs(rng.normal(size=(6, 3))).astype(np.float32)
            b = np.abs(rng.normal(size=(6, 3))).astype(np.float32)
            ref = BinauralRep(left=rep(a, "enc", "left"), right=rep(a, "enc", "right"))
            proc = BinauralRep(left=rep(b, "enc", "left"), right=rep(b, "enc", "right"))
            assert framewise_binaural_sim(ref, proc).value >= 0.0

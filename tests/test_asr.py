import numpy as np
import pytest

from hirsim import asr
from hirsim.asr import (
    AttentionParams,
    CtcInfeasibleError,
    EncoderBlockParams,
    FeedForwardParams,
    JointLossConfig,
    ToyAsrConfig,
    causal_mask,
    ctc_brute_force,
    ctc_collapse,
    ctc_loss,
    ctc_output_distribution,
    joint_loss,
    layer_norm,
    multi_head_attention,
    scaled_dot_attention,
    seq2seq_loss,
    toy_forward,
)
from hirsim.reps import RepSequence


def random_ctc_instance(rng, t_max=6, v_max=4, l_max=3):
    T = int(rng.integers(1, t_max + 1))
    V = int(rng.integers(2, v_max + 1))
    probs = rng.dirichlet(np.ones(V), size=T)
    L = int(rng.integers(1, l_max + 1))
    labels = [int(rng.integers(1, V)) for _ in range(L)]
    return np.log(probs), labels


class TestScaledDotAttention:
    def test_identical_keys_give_mean_of_values(self, rng):
        K = np.tile(rng.normal(size=(1, 4)), (6, 1))
        V = rng.normal(size=(6, 3))
        Q = rng.normal(size=(5, 4))
        out = scaled_dot_attention(Q, K, V)
        assert np.allclose(out, V.mean(axis=0), atol=1e-12)

    def test_uniform_two_values(self):
        out = scaled_dot_attention([[0.0]], [[0.0], [0.0]], [[1.0], [3.0]])
        assert np.allclose(out, [[2.0]])

    def test_hand_evaluated_softmax(self):
        out = scaled_dot_attention([[1.0]], [[1.0], [-1.0]], [[1.0], [0.0]])
        w = np.exp(2) / (np.exp(2) + 1)
        assert abs(out[0, 0] - w) < 1e-12

    def test_softmax_rows_sum_to_one(self, rng):
        # extract the weight matrix by attending onto the identity
        Q = rng.normal(size=(7, 5))
        K = rng.normal(size=(9, 5))
        weights = scaled_dot_attention(Q, K, np.eye(9))
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(weights >= 0)

    def test_joint_row_permutation_invariance(self, rng):
        Q = rng.normal(size=(4, 3))
        K = rng.normal(size=(6, 3))
        V = rng.normal(size=(6, 2))
        perm = rng.permutation(6)
        out = scaled_dot_attention(Q, K, V)
        out_p = scaled_dot_attention(Q, K[perm], V[perm])
        assert np.allclose(out, out_p, atol=1e-12)

    def test_fully_masked_row_rejected(self, rng):
        Q = rng.normal(size=(2, 3))
        K = rng.normal(size=(2, 3))
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(ValueError):
            scaled_dot_attention(Q, K, K, mask)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            scaled_dot_attention([[np.nan]], [[0.0]], [[0.0]])


class TestMultiHead:
    def test_single_head_identity_projections(self, rng):
        d = 4
        eye = np.eye(d)[None]
        params = AttentionParams(eye, eye, eye, np.eye(d))
        X = rng.normal(size=(5, d))
        assert np.allclose(multi_head_attention(X, X, params),
                           scaled_dot_attention(X, X, X), atol=1e-12)

    def test_output_shape(self, rng):
        params = AttentionParams.from_seed(0, "t", n_heads=4, d_model=16)
        X = rng.normal(size=(6, 16))
        assert multi_head_attention(X, X, params).shape == (6, 16)

    def test_duplicated_heads_match_split_output_projection(self, rng):
        d, dk = 6, 3
        Wq = rng.normal(size=(d, dk))
        Wk = rng.normal(size=(d, dk))
        Wv = rng.normal(size=(d, dk))
        Wo = rng.normal(size=(dk, d))
        one = AttentionParams(Wq[None], Wk[None], Wv[None], Wo)
        two = AttentionParams(np.stack([Wq, Wq]), np.stack([Wk, Wk]), np.stack([Wv, Wv]),
                              np.vstack([Wo / 2, Wo / 2]))
        X = rng.normal(size=(5, d))
        assert np.allclose(multi_head_attention(X, X, one),
                           multi_head_attention(X, X, two), atol=1e-12)


def multi_head_attention_loop(X_q, X_kv, params, mask=None):
    """Reference: one scaled_dot_attention call per head, then concatenate."""
    heads = [scaled_dot_attention(X_q @ params.W_q[h], X_kv @ params.W_k[h],
                                  X_kv @ params.W_v[h], mask)
             for h in range(params.W_q.shape[0])]
    return np.concatenate(heads, axis=1) @ params.W_o


class TestBatchedHeads:
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("masked", [False, True])
    def test_self_attention_equals_per_head_loop(self, rng, n_heads, masked):
        params = AttentionParams.from_seed(5, "b", n_heads=n_heads, d_model=16)
        X = rng.normal(size=(9, 16))
        mask = causal_mask(9) if masked else None
        assert np.array_equal(multi_head_attention(X, X, params, mask),
                              multi_head_attention_loop(X, X, params, mask))

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_cross_attention_equals_per_head_loop(self, rng, n_heads):
        params = AttentionParams.from_seed(6, "c", n_heads=n_heads, d_model=16)
        Y, enc = rng.normal(size=(3, 16)), rng.normal(size=(11, 16))
        out = multi_head_attention(Y, enc, params)
        assert out.shape == (3, 16)
        assert np.array_equal(out, multi_head_attention_loop(Y, enc, params))

    @pytest.mark.parametrize("masked", [False, True])
    def test_stacked_attention_equals_per_slice_calls(self, rng, masked):
        Q, K, V = rng.normal(size=(4, 6, 5)), rng.normal(size=(4, 6, 5)), rng.normal(size=(4, 6, 3))
        mask = causal_mask(6) if masked else None
        out = scaled_dot_attention(Q, K, V, mask)
        assert out.shape == (4, 6, 3)
        for h in range(4):
            assert np.array_equal(out[h], scaled_dot_attention(Q[h], K[h], V[h], mask))

    def test_stacked_attention_checks(self, rng):
        Q = rng.normal(size=(2, 3, 4))
        with pytest.raises(ValueError, match="mask shape"):
            scaled_dot_attention(Q, Q, Q, np.ones((2, 3, 3), dtype=bool))
        with pytest.raises(ValueError, match="every key masked"):
            scaled_dot_attention(Q, Q, Q, np.eye(3, dtype=bool) & [True, True, False])
        with pytest.raises(ValueError, match="incompatible"):
            scaled_dot_attention(Q, Q[:, :2], Q)
        Q[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            scaled_dot_attention(Q, Q, Q)

    def test_positional_encoding_prefix_is_bit_identical(self):
        full = asr.positional_encoding(16, 64)
        for n in range(1, 17):
            assert np.array_equal(asr.positional_encoding(n, 64), full[:n])


class TestCausalMask:
    def test_small_cases(self):
        assert causal_mask(1).tolist() == [[True]]
        assert causal_mask(2).tolist() == [[True, False], [True, True]]

    def test_row_counts(self):
        m = causal_mask(9)
        assert all(m[i].sum() == i + 1 for i in range(9))


class TestBlocks:
    def test_layer_norm_rows_standardized(self, rng):
        X = rng.normal(size=(8, 32)) * 5 + 2
        Y = layer_norm(X)
        assert np.allclose(Y.mean(axis=1), 0.0, atol=1e-9)
        assert np.allclose(Y.var(axis=1), 1.0, atol=1e-9)

    def test_zero_weights_reduce_to_layer_norm(self, rng):
        d = 8
        z = np.zeros((1, d, d))
        attn = AttentionParams(z, z, z, np.zeros((d, d)))
        ffn = FeedForwardParams(np.zeros((d, d)), np.zeros(d), np.zeros((d, d)), np.zeros(d))
        X = rng.normal(size=(5, d))
        out = asr.encoder_block_forward(X, EncoderBlockParams(attn, ffn))
        assert np.allclose(out, layer_norm(X), atol=1e-9)

    def test_shapes_preserved(self, rng):
        cfg = ToyAsrConfig()
        model = asr.ToyAsr(cfg, 20)
        X = rng.normal(size=(7, cfg.d_model))
        assert asr.encoder_block_forward(X, model.enc_blocks[0]).shape == X.shape
        enc = rng.normal(size=(9, cfg.d_model))
        assert asr.decoder_block_forward(X, enc, model.dec_blocks[0]).shape == X.shape


class TestToyForward:
    def _features(self, rng, t=40, d=20):
        return RepSequence(data=rng.normal(size=(t, d)).astype(np.float32),
                           level="input", channel="left", signal_id="s")

    def test_prenet_time_halving(self, rng):
        cfg = ToyAsrConfig()
        for t in (16, 17, 40, 41):
            h = toy_forward(self._features(rng, t=t), cfg)
            expect = t
            for _ in cfg.prenet_channels:
                expect = (expect + 1) // 2
            assert h["pre"].n_frames == expect

    def test_bit_reproducible(self, rng):
        feat = self._features(rng)
        cfg = ToyAsrConfig()
        a = toy_forward(feat, cfg)
        b = toy_forward(feat, cfg)
        for level in ("pre", "enc", "dec"):
            assert np.array_equal(a[level].data, b[level].data)

    def test_seed_changes_representations(self, rng):
        feat = self._features(rng)
        a = toy_forward(feat, ToyAsrConfig(seed_tag=0))
        b = toy_forward(feat, ToyAsrConfig(seed_tag=5))
        assert not np.array_equal(a["enc"].data, b["enc"].data)

    def test_too_short_input_rejected(self, rng):
        with pytest.raises(asr.AsrError):
            toy_forward(self._features(rng, t=3), ToyAsrConfig())


class TestCtc:
    def test_single_frame(self):
        lp = np.log([[0.5, 0.5]])
        assert abs(ctc_loss(lp, [1]) - (-np.log(0.5))) < 1e-12

    def test_two_frames_uniform(self):
        lp = np.log(np.full((2, 2), 0.5))
        assert abs(ctc_loss(lp, [1]) - (-np.log(0.75))) < 1e-12
        assert abs(ctc_brute_force(lp, [1]) - (-np.log(0.75))) < 1e-12

    def test_matches_brute_force(self, rng):
        for _ in range(60):
            lp, labels = random_ctc_instance(rng)
            try:
                fast = ctc_loss(lp, labels)
            except CtcInfeasibleError:
                with pytest.raises(CtcInfeasibleError):
                    ctc_brute_force(lp, labels)
                continue
            assert abs(fast - ctc_brute_force(lp, labels)) < 1e-9

    def test_label_longer_than_frames(self):
        lp = np.log(np.full((2, 3), 1 / 3))
        with pytest.raises(CtcInfeasibleError):
            ctc_loss(lp, [1, 2, 1])
        with pytest.raises(CtcInfeasibleError):
            ctc_brute_force(lp, [1, 2, 1])

    def test_repeated_label_needs_separating_blank(self):
        lp = np.log(np.full((2, 2), 0.5))
        with pytest.raises(CtcInfeasibleError):
            ctc_loss(lp, [1, 1])

    def test_collapse(self):
        assert ctc_collapse([0, 1, 1, 0, 2, 2, 0]) == (1, 2)
        assert ctc_collapse([1, 1, 1]) == (1,)
        assert ctc_collapse([0, 0]) == ()

    def test_output_distribution_is_normalized(self, rng):
        lp = np.log(rng.dirichlet(np.ones(3), size=3))
        dist = ctc_output_distribution(lp)
        assert abs(sum(dist.values()) - 1.0) < 1e-9

    def test_boosting_on_path_label_never_increases_loss(self, rng):
        # move frame mass from a symbol absent from every valid path onto the
        # label symbol; the label probability can only grow
        for _ in range(20):
            T = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(4), size=T)
            labels = [1, 2][: int(rng.integers(1, 3))]
            base = ctc_loss(np.log(probs), labels)
            t = int(rng.integers(0, T))
            shift = 0.5 * probs[t, 3]  # symbol 3 is never on a valid path
            bumped = probs.copy()
            bumped[t, 3] -= shift
            bumped[t, labels[0]] += shift
            assert ctc_loss(np.log(bumped), labels) <= base + 1e-12

    def test_row_normalization_enforced(self):
        with pytest.raises(ValueError):
            ctc_loss(np.log([[0.6, 0.6]]), [1])


class TestSeq2Seq:
    def test_zero_when_equal(self, rng):
        P = rng.dirichlet(np.ones(4), size=3)
        assert seq2seq_loss(P, P) == 0.0

    def test_one_hot_cross_term(self):
        assert abs(seq2seq_loss([[1.0, 0.0]], [[0.5, 0.5]]) - (-np.log(0.5))) < 1e-12

    def test_hand_evaluated(self):
        got = seq2seq_loss([[0.5, 0.5]], [[0.9, 0.1]])
        want = 0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1)
        assert abs(got - want) < 1e-9
        assert abs(got - 0.510826) < 1e-6

    def test_nonnegative_and_zero_iff_equal(self, rng):
        for _ in range(50):
            P = rng.dirichlet(np.ones(5), size=4)
            Q = rng.dirichlet(np.ones(5), size=4)
            assert seq2seq_loss(P, Q) >= 0.0
        P = rng.dirichlet(np.ones(5), size=4)
        assert abs(seq2seq_loss(P, P)) < 1e-12

    def test_support_violation(self):
        with pytest.raises(ValueError):
            seq2seq_loss([[1.0, 0.0]], [[0.0, 1.0]])


class TestJointLoss:
    def test_boundaries_and_mix(self):
        assert joint_loss(2.0, 1.0, JointLossConfig(lam=0.0)) == 1.0
        assert joint_loss(2.0, 1.0, JointLossConfig(lam=1.0)) == 2.0
        assert abs(joint_loss(2.0, 1.0, JointLossConfig(lam=0.3)) - 1.3) < 1e-12

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            JointLossConfig(lam=1.5)

    def test_full_scale_metadata_constants(self):
        assert (asr.REAL_PRENET_DIM, asr.REAL_ENCODER_DIM, asr.REAL_DECODER_DIM) == \
            (10240, 768, 768)
        assert (asr.LAMBDA_TRAIN, asr.LAMBDA_DECODE) == (0.3, 0.4)

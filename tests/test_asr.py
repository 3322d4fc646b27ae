import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def attention_params_per_matrix(seed_tag, name, n_heads, d_model):
    """Reference: W_q, W_k and W_v stacked by one comprehension each."""
    d_k = d_v = d_model // n_heads
    tag = lambda suffix: asr._name_tag(seed_tag, f"{name}.{suffix}")
    W_q = np.stack([asr.det_weight(tag(f"q{h}"), d_model, d_k) for h in range(n_heads)])
    W_k = np.stack([asr.det_weight(tag(f"k{h}"), d_model, d_k) for h in range(n_heads)])
    W_v = np.stack([asr.det_weight(tag(f"v{h}"), d_model, d_v) for h in range(n_heads)])
    W_o = asr.det_weight(tag("o"), n_heads * d_v, d_model)
    return AttentionParams(W_q, W_k, W_v, W_o)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_from_seed_equals_per_matrix_reference(n_heads):
    got = AttentionParams.from_seed(7, "enc0.attn", n_heads=n_heads, d_model=16)
    want = attention_params_per_matrix(7, "enc0.attn", n_heads, 16)
    for w in ("W_q", "W_k", "W_v", "W_o"):
        assert np.array_equal(getattr(got, w), getattr(want, w)), w


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

    def test_positional_encoding_built_once_and_read_only(self):
        pe = asr.positional_encoding(12, 64)
        assert asr.positional_encoding(12, 64) is pe
        assert not pe.flags.writeable
        with pytest.raises(ValueError):
            pe[0, 0] = 1.0


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
        block = model.dec_blocks[0]
        out = asr.decoder_block_forward(X, asr.project_kv(enc, block.cross_attn), block,
                                        causal_mask(7))
        assert out.shape == X.shape


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


def decode_greedy_one(model, enc_out):
    """Oracle: greedy decoding of one sequence of encoder states (T', d_model)
    on its own, projecting the cross-attention keys and values afresh at every
    step. Returns the last-block hidden states of the emitted steps and the
    emitted tokens; an end symbol at the first step still gives one state."""
    cfg = model.cfg
    tokens = [0]  # start symbol
    hiddens, emitted = [], []
    pe = asr.positional_encoding(cfg.max_decode_len, cfg.d_model)
    for _ in range(cfg.max_decode_len):
        Y = model.embed[tokens] + pe[:len(tokens)]
        for block in model.dec_blocks:
            Y = asr.decoder_block_forward(Y, asr.project_kv(enc_out, block.cross_attn), block,
                                          causal_mask(len(tokens)))
        h_last = Y[-1]
        tok = int(np.argmax(h_last @ model.W_out))
        if tok == cfg.end_symbol:
            if not hiddens:
                hiddens.append(h_last)
            break
        hiddens.append(h_last)
        emitted.append(tok)
        tokens.append(tok)
    return np.stack(hiddens), emitted


# (config, input bands). The default model decodes almost every input to the
# same three tokens; on the small ones the decode length depends on the input:
# 0 or 1 tokens (a silent clip ends at once), 4 or 5, and 0 or 6. The last is
# the third small one under a cap of 4, which its 6-token decodes reach with
# no end symbol.
ORACLE_MODELS = [
    (ToyAsrConfig(), 20),
    (ToyAsrConfig(d_model=8, n_heads=2, seed_tag=1, vocab_size=5, max_decode_len=8), 6),
    (ToyAsrConfig(d_model=8, n_heads=2, seed_tag=1, vocab_size=8, max_decode_len=8), 6),
    (ToyAsrConfig(d_model=16, n_heads=2, seed_tag=0, vocab_size=5, max_decode_len=8), 6),
    (ToyAsrConfig(d_model=16, n_heads=2, seed_tag=0, vocab_size=5, max_decode_len=4), 6),
]


def clip(kind, seed, scale, t, bands):
    if kind == "silent":
        return np.zeros((t, bands))
    if kind == "constant":
        return np.full((t, bands), scale)
    return np.random.default_rng(seed).normal(size=(t, bands)) * scale


def assert_stack_equals_oracle(model, clips, chunk=None):
    """The stacked PreNet, encoder and decoder states of equal-length `clips`
    equal a run of each clip alone, bit for bit; returns the tokens. The
    encoder takes the clips in separate stacks of `chunk` (default: all of
    them), and the decoder takes all their outputs as one stack."""
    pre = np.stack([model.prenet(x) for x in clips])
    chunk = chunk or len(clips)
    enc = np.concatenate([model.encode(pre[i:i + chunk]) for i in range(0, len(clips), chunk)])
    dec = model.decode_greedy(enc)
    assert pre.dtype == enc.dtype == np.float64 and len(dec) == len(clips)
    for x, p, e, (d, tokens) in zip(clips, pre, enc, dec):
        pre1 = model.prenet(x)
        enc1 = model.encode(pre1)
        dec1, tokens1 = decode_greedy_one(model, enc1)
        assert np.array_equal(p, pre1) and np.array_equal(e, enc1)
        assert d.dtype == np.float64 and np.array_equal(d, dec1)
        assert tokens == tokens1 and len(d) == max(1, len(tokens))
    return [tokens for _, tokens in dec]


@st.composite
def clip_stacks(draw):
    """A model, 1-12 equal-length clips of varied content, and how many of
    them one encoder stack takes."""
    cfg, bands = draw(st.sampled_from(ORACLE_MODELS))
    t = draw(st.integers(4, 40))
    clips = [clip(draw(st.sampled_from(["silent", "constant", "noise"])),
                  draw(st.integers(0, 2 ** 32 - 1)), draw(st.sampled_from([0.3, 1.0, 3.0, 10.0])),
                  t, bands)
             for _ in range(draw(st.integers(1, 12)))]
    return cfg, bands, clips, draw(st.integers(1, len(clips)))


class TestBatchedForward:
    @settings(max_examples=60, deadline=None)
    @given(clip_stacks())
    def test_stack_equals_per_item_oracle(self, drawn):
        # decode stacks that span separately encoded chunks, as in run_forward
        cfg, bands, clips, chunk = drawn
        assert_stack_equals_oracle(asr.ToyAsr(cfg, bands), clips, chunk)

    @pytest.mark.parametrize("which, kinds, lengths", [
        (1, ["silent", "constant", "noise", "silent"], {0, 1}),
        (2, ["noise"] * 6, {4, 5}),
        (3, ["noise"] * 6, {0, 6}),
        (4, ["noise", "silent", "noise", "noise", "silent", "silent"], {0, 4}),
    ])
    def test_stack_shrinks_as_sequences_end(self, which, kinds, lengths):
        # decodes that end at different steps, an end at the first step, and
        # decodes stopped by the cap beside ones that end at once
        cfg, bands = ORACLE_MODELS[which]
        clips = [clip(kind, seed, 10.0 if kind == "noise" else 2.0, 16, bands)
                 for seed, kind in enumerate(kinds)]
        tokens = assert_stack_equals_oracle(asr.ToyAsr(cfg, bands), clips)
        assert {len(t) for t in tokens} == lengths

    def test_toy_forward_is_a_stack_of_one(self, rng):
        x = rng.normal(size=(48, 20)).astype(np.float32)
        got = toy_forward(RepSequence(x, "input", "right", "s"), ToyAsrConfig())
        model = asr.ToyAsr(ToyAsrConfig(), 20)
        pre = model.prenet(x.astype(np.float64))
        enc = model.encode(pre)
        dec, _ = decode_greedy_one(model, enc)
        for level, want in (("pre", pre), ("enc", enc), ("dec", dec)):
            assert got[level].data.tobytes() == want.astype(np.float32).tobytes()
            assert (got[level].level, got[level].channel, got[level].signal_id) == \
                (level, "right", "s")


def ctc_loss_per_state(log_probs, labels):
    """Oracle: the CTC forward recursion updating one label state at a time,
    with one scalar logaddexp per transition."""
    lp, labels = asr._validate_ctc(log_probs, labels)
    T = lp.shape[0]
    min_frames = len(labels) + sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    if T < min_frames:
        raise CtcInfeasibleError(f"label needs at least {min_frames} frames, got {T}")
    ext = [asr.BLANK]
    for v in labels:
        ext.extend([v, asr.BLANK])
    S = len(ext)
    alpha = np.full(S, -np.inf)
    alpha[0] = lp[0, asr.BLANK]
    alpha[1] = lp[0, ext[1]]
    for t in range(1, T):
        prev = alpha
        alpha = np.full(S, -np.inf)
        for s in range(S):
            a = prev[s]
            if s >= 1:
                a = np.logaddexp(a, prev[s - 1])
            if s >= 2 and ext[s] != asr.BLANK and ext[s] != ext[s - 2]:
                a = np.logaddexp(a, prev[s - 2])
            alpha[s] = a + lp[t, ext[s]]
    total = np.logaddexp(alpha[-1], alpha[-2])
    if not np.isfinite(total):
        raise CtcInfeasibleError("label sequence has zero probability")
    return float(-total)


@st.composite
def ctc_instances(draw):
    """Log-probabilities (T <= 40, V <= 8), some entries exactly zero, and up
    to 10 labels drawn from a small alphabet so that repeats are common."""
    T, V = draw(st.integers(1, 40)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    probs = rng.dirichlet(np.full(V, draw(st.sampled_from([0.2, 1.0, 5.0]))), size=T)
    if draw(st.booleans()):
        probs[rng.random((T, V)) < 0.3] = 0.0
        probs[probs.sum(axis=1) == 0.0, 0] = 1.0
        probs /= probs.sum(axis=1, keepdims=True)
    labels = draw(st.lists(st.integers(1, min(V - 1, 3)), min_size=1, max_size=10))
    with np.errstate(divide="ignore"):
        return np.log(probs), labels


class TestCtc:
    @settings(max_examples=300, deadline=None)
    @given(ctc_instances())
    def test_equals_per_state_loop(self, instance):
        lp, labels = instance
        try:
            want = ctc_loss_per_state(lp, labels)
        except CtcInfeasibleError:
            with pytest.raises(CtcInfeasibleError):
                ctc_loss(lp, labels)
            return
        assert ctc_loss(lp, labels) == want

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

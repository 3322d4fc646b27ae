"""Forward-only toy transformer ASR and exact loss computations.

The network (conv PreNet, transformer encoder, autoregressive decoder) exists
to produce hidden representations at three levels for the similarity pipeline.
There is no training: every weight is a closed-form function of its indices
and a seed tag, so runs are bit-reproducible. Losses (CTC, seq2seq KL, joint)
are evaluated exactly; a brute-force path enumerator serves as the CTC oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .reps import RepSequence

# dimensions of the full-scale model these toy levels stand in for
REAL_PRENET_DIM = 10240
REAL_ENCODER_DIM = 768
REAL_DECODER_DIM = 768
LAMBDA_TRAIN = 0.3
LAMBDA_DECODE = 0.4

BLANK = 0


class AsrError(ValueError):
    pass


class CtcInfeasibleError(AsrError):
    """Label sequence has probability exactly zero for the given frames."""


# ---------------------------------------------------------------------------
# deterministic weights
# ---------------------------------------------------------------------------

def det_weight(tag: int, rows: int, cols: int) -> np.ndarray:
    """W[i, j] = 0.1 * sin(tag + 13 i + 7 j); closed-form, PRNG-free."""
    i = np.arange(rows)[:, None]
    j = np.arange(cols)[None, :]
    return 0.1 * np.sin(float(tag) + 13.0 * i + 7.0 * j)


def _name_tag(seed_tag: int, name: str) -> int:
    # stable, platform-independent per-matrix offset
    return seed_tag + sum((k + 1) * ord(c) for k, c in enumerate(name)) % 10007


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def causal_mask(n: int) -> np.ndarray:
    """Lower-triangular boolean mask: position i may attend to j <= i."""
    if n < 1:
        raise ValueError("mask size must be >= 1")
    return np.tril(np.ones((n, n), dtype=bool))


def scaled_dot_attention(Q, K, V, mask=None) -> np.ndarray:
    """softmax(Q K^T / sqrt(d_k)) V with optional boolean allow-mask, per
    leading index (batch, head)."""
    Q = np.asarray(Q, dtype=np.float64)
    K = np.asarray(K, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if Q.shape[-1] != K.shape[-1] or K.shape[-2] != V.shape[-2]:
        raise ValueError("incompatible attention shapes")
    if not (np.all(np.isfinite(Q)) and np.all(np.isfinite(K)) and np.all(np.isfinite(V))):
        raise ValueError("non-finite attention inputs")
    scores = Q @ np.swapaxes(K, -1, -2)
    scores /= math.sqrt(Q.shape[-1])
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != scores.shape[-2:]:
            raise ValueError("mask shape mismatch")
        if not mask.any(axis=-1).all():
            raise ValueError("some query position has every key masked")
        np.copyto(scores, -np.inf, where=~mask)
    # softmax in place; max-subtraction keeps exp in range and masked entries
    # get weight exactly 0
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores @ V


@dataclass(frozen=True)
class AttentionParams:
    W_q: np.ndarray  # (n_heads, d_model, d_k)
    W_k: np.ndarray  # (n_heads, d_model, d_k)
    W_v: np.ndarray  # (n_heads, d_model, d_v)
    W_o: np.ndarray  # (n_heads * d_v, d_model)

    @classmethod
    def from_seed(cls, seed_tag: int, name: str, n_heads: int, d_model: int) -> "AttentionParams":
        d_head = d_model // n_heads  # d_k = d_v
        W_q, W_k, W_v = (
            np.stack([det_weight(_name_tag(seed_tag, f"{name}.{w}{h}"), d_model, d_head)
                      for h in range(n_heads)])
            for w in "qkv")
        W_o = det_weight(_name_tag(seed_tag, f"{name}.o"), n_heads * d_head, d_model)
        return cls(W_q, W_k, W_v, W_o)


def project_kv(X_kv, params: AttentionParams) -> tuple[np.ndarray, np.ndarray]:
    """Every head's keys and values of X_kv (..., T, d_model), each (..., n_heads, T, d_head)."""
    X_kv = np.asarray(X_kv, dtype=np.float64)
    if X_kv.shape[-1] != params.W_k.shape[1]:
        raise ValueError("input width must equal d_model")
    X_kv = X_kv[..., None, :, :]
    return X_kv @ params.W_k, X_kv @ params.W_v


def attend(X_q, kv, params: AttentionParams, mask=None) -> np.ndarray:
    """Multi-head attention of X_q (..., T, d_model) on keys and values from
    `project_kv`: all heads in one attention call, their outputs concatenated
    before W_o."""
    X_q = np.asarray(X_q, dtype=np.float64)
    if X_q.shape[-1] != params.W_q.shape[1]:
        raise ValueError("input width must equal d_model")
    heads = scaled_dot_attention(X_q[..., None, :, :] @ params.W_q, *kv, mask)
    return np.swapaxes(heads, -3, -2).reshape(*X_q.shape[:-1], -1) @ params.W_o


def multi_head_attention(X_q, X_kv, params: AttentionParams, mask=None) -> np.ndarray:
    """Multi-head attention of X_q on X_kv, both (..., T, d_model)."""
    return attend(X_q, project_kv(X_kv, params), params, mask)


def layer_norm(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=-1, keepdims=True)
    var = X.var(axis=-1, keepdims=True)
    return (X - mean) / np.sqrt(var + 1e-12)


# ---------------------------------------------------------------------------
# transformer blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeedForwardParams:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    @classmethod
    def from_seed(cls, seed_tag: int, name: str, d_model: int, d_ff: int) -> "FeedForwardParams":
        return cls(
            W1=det_weight(_name_tag(seed_tag, f"{name}.w1"), d_model, d_ff),
            b1=det_weight(_name_tag(seed_tag, f"{name}.b1"), 1, d_ff)[0],
            W2=det_weight(_name_tag(seed_tag, f"{name}.w2"), d_ff, d_model),
            b2=det_weight(_name_tag(seed_tag, f"{name}.b2"), 1, d_model)[0],
        )

    def apply(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(X @ self.W1 + self.b1, 0.0) @ self.W2 + self.b2


@dataclass(frozen=True)
class EncoderBlockParams:
    attn: AttentionParams
    ffn: FeedForwardParams


@dataclass(frozen=True)
class DecoderBlockParams:
    self_attn: AttentionParams
    cross_attn: AttentionParams
    ffn: FeedForwardParams


def encoder_block_forward(X, params: EncoderBlockParams) -> np.ndarray:
    """Self-attention then feed-forward, each as LayerNorm(x + Sublayer(x))."""
    X = layer_norm(X + multi_head_attention(X, X, params.attn))
    X = layer_norm(X + params.ffn.apply(X))
    _check_finite(X, "encoder block")
    return X


def decoder_block_forward(Y, cross_kv, params: DecoderBlockParams, mask) -> np.ndarray:
    """Self-attention under `mask` (the causal mask of Y's length),
    cross-attention on the encoder output's `project_kv(enc_out,
    params.cross_attn)`, then feed-forward."""
    Y = layer_norm(Y + multi_head_attention(Y, Y, params.self_attn, mask))
    Y = layer_norm(Y + attend(Y, cross_kv, params.cross_attn))
    Y = layer_norm(Y + params.ffn.apply(Y))
    _check_finite(Y, "decoder block")
    return Y


def _check_finite(X, where: str):
    if not np.all(np.isfinite(X)):
        raise AsrError(f"non-finite values in {where}")


@functools.lru_cache(maxsize=32)
def positional_encoding(n: int, d_model: int) -> np.ndarray:
    """Sinusoidal position encodings, (n, d_model); shared, read-only."""
    pos = np.arange(n)[:, None].astype(np.float64)
    dim = np.arange(d_model)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * np.floor(dim / 2.0) / d_model)
    pe = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))
    pe.setflags(write=False)
    return pe


# ---------------------------------------------------------------------------
# toy model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyAsrConfig:
    d_model: int = 64
    n_heads: int = 4
    n_enc_blocks: int = 2
    n_dec_blocks: int = 2
    prenet_channels: tuple[int, ...] = (4, 8)
    vocab_size: int = 16  # includes blank at 0; last index is the end symbol
    max_decode_len: int = 16
    seed_tag: int = 0

    def __post_init__(self):
        object.__setattr__(self, "prenet_channels", tuple(self.prenet_channels))
        for name, least in (("d_model", 1), ("n_heads", 1), ("max_decode_len", 1),
                            ("n_enc_blocks", 0), ("n_dec_blocks", 0), ("vocab_size", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if min(self.prenet_channels, default=1) < 1:
            raise ValueError("every prenet_channels entry must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")

    @property
    def end_symbol(self) -> int:
        return self.vocab_size - 1


class ToyAsr:
    """Deterministic forward-only model; weights derive from cfg.seed_tag."""

    PRENET_KERNEL = 3

    def __init__(self, cfg: ToyAsrConfig, n_input_bands: int):
        self.cfg = cfg
        tag = cfg.seed_tag
        k = self.PRENET_KERNEL
        self.conv = []
        c_in = 1
        for li, c_out in enumerate(cfg.prenet_channels):
            w = det_weight(_name_tag(tag, f"prenet{li}"), c_out, c_in * k).reshape(c_out, c_in, k)
            b = det_weight(_name_tag(tag, f"prenet{li}.b"), 1, c_out)[0]
            self.conv.append((w, b))
            c_in = c_out
        self.pre_dim = c_in * n_input_bands
        self.W_in = det_weight(_name_tag(tag, "enc.in"), self.pre_dim, cfg.d_model)
        self.enc_blocks = [
            EncoderBlockParams(
                attn=AttentionParams.from_seed(tag, f"enc{b}.attn", cfg.n_heads, cfg.d_model),
                ffn=FeedForwardParams.from_seed(tag, f"enc{b}.ffn", cfg.d_model, 2 * cfg.d_model),
            )
            for b in range(cfg.n_enc_blocks)
        ]
        self.dec_blocks = [
            DecoderBlockParams(
                self_attn=AttentionParams.from_seed(tag, f"dec{b}.self", cfg.n_heads, cfg.d_model),
                cross_attn=AttentionParams.from_seed(tag, f"dec{b}.cross", cfg.n_heads, cfg.d_model),
                ffn=FeedForwardParams.from_seed(tag, f"dec{b}.ffn", cfg.d_model, 2 * cfg.d_model),
            )
            for b in range(cfg.n_dec_blocks)
        ]
        self.embed = det_weight(_name_tag(tag, "dec.embed"), cfg.vocab_size, cfg.d_model)
        self.W_out = det_weight(_name_tag(tag, "dec.out"), cfg.d_model, cfg.vocab_size)

    def prenet(self, feats: np.ndarray) -> np.ndarray:
        """Stride-2 conv stack over time; output (ceil(T/2^L), C_last * bands)."""
        T = feats.shape[0]
        if T < 2 ** len(self.conv):
            raise AsrError(
                f"{T} frames is shorter than the PreNet receptive field "
                f"({2 ** len(self.conv)} frames)"
            )
        x = feats[:, None, :].astype(np.float64)  # (T, C=1, bands)
        k = self.PRENET_KERNEL
        for w, b in self.conv:
            t_in = x.shape[0]
            t_out = (t_in + 1) // 2
            padded = np.zeros((t_in + 2, x.shape[1], x.shape[2]))
            padded[1:-1] = x
            out = np.zeros((t_out, w.shape[0], x.shape[2]))
            for dt in range(k):
                # strided slice of length t_out starting at dt
                sl = padded[dt:dt + 2 * t_out - 1:2]
                out += np.einsum("tcb,oc->tob", sl, w[:, :, dt])
            x = np.maximum(out + b[None, :, None], 0.0)
        return x.reshape(x.shape[0], -1)

    def encode(self, h_pre: np.ndarray) -> np.ndarray:
        """Encoder states (N, T', d_model) of a stack of PreNet outputs (N, T', pre_dim)."""
        X = h_pre @ self.W_in + positional_encoding(h_pre.shape[-2], self.cfg.d_model)
        for block in self.enc_blocks:
            X = encoder_block_forward(X, block)
        return X

    def decode_greedy(self, enc_out: np.ndarray) -> list[tuple[np.ndarray, list[int]]]:
        """Free-running greedy decoding of each sequence in a stack of encoder
        states (N, T', d_model). Returns, per sequence, the last-block hidden
        states of its emitted steps (excluding the end-symbol step) and its
        emitted tokens. The stack decodes until every sequence has ended or
        max_decode_len is reached; then each is cut at its first end symbol,
        and an end at the first step keeps that step's state."""
        cfg = self.cfg
        n = enc_out.shape[0]
        cross = [project_kv(enc_out, block.cross_attn) for block in self.dec_blocks]
        pe = positional_encoding(cfg.max_decode_len, cfg.d_model)
        tokens = np.zeros((n, 1), dtype=np.intp)  # start symbol
        ended = np.zeros(n, dtype=bool)
        states = []
        for step in range(cfg.max_decode_len):
            mask = causal_mask(step + 1)
            Y = self.embed[tokens] + pe[:step + 1]
            for block, kv in zip(self.dec_blocks, cross):
                Y = decoder_block_forward(Y, kv, block, mask)
            h_last = Y[:, -1]
            # one (1, d) x (d, vocab) product per sequence, as for a lone sequence
            tok = (h_last[:, None] @ self.W_out)[:, 0].argmax(axis=-1)
            states.append(h_last)
            tokens = np.column_stack([tokens, tok])
            ended |= tok == cfg.end_symbol
            if ended.all():
                break
        is_end = tokens[:, 1:] == cfg.end_symbol
        n_emitted = np.where(ended, is_end.argmax(axis=1), is_end.shape[1])
        return [(h[:max(1, k)], t[:k].tolist())
                for h, t, k in zip(np.stack(states, axis=1), tokens[:, 1:], n_emitted)]


# one shared ToyAsr per (cfg, n_input_bands); forward passes never mutate it
shared_model = functools.lru_cache(maxsize=8)(ToyAsr)


def toy_forward(features: RepSequence, cfg: ToyAsrConfig) -> dict[str, RepSequence]:
    """Run the toy model on one sequence: prenet, encode and decode_greedy on
    a stack of one; returns {'pre', 'enc', 'dec'} RepSequences."""
    model = shared_model(cfg, features.dim)
    pre = model.prenet(features.data.astype(np.float64))
    [enc] = model.encode(pre[None])
    [(dec, _)] = model.decode_greedy(enc[None])
    return {level: RepSequence(data=data, level=level, channel=features.channel,
                               signal_id=features.signal_id)
            for level, data in (("pre", pre), ("enc", enc), ("dec", dec))}


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _validate_ctc(log_probs: np.ndarray, labels) -> tuple[np.ndarray, list[int]]:
    lp = np.asarray(log_probs, dtype=np.float64)
    if lp.ndim != 2:
        raise ValueError("log_probs must be T x V")
    rowsums = np.exp(lp).sum(axis=1)
    if not np.allclose(rowsums, 1.0, atol=1e-9):
        raise ValueError("log_probs rows must normalize to 1")
    labels = [int(v) for v in labels]
    V = lp.shape[1]
    if any(not (1 <= v < V) for v in labels):
        raise ValueError("labels must lie in [1, V)")
    return lp, labels


def ctc_loss(log_probs, labels) -> float:
    """Negative log probability of the label sequence under the standard
    forward DP over the blank-expanded label, in log space."""
    lp, labels = _validate_ctc(log_probs, labels)
    if not labels:
        raise ValueError("label sequence must be nonempty")
    T = lp.shape[0]
    # minimum frames: one per label plus one blank between equal neighbours
    min_frames = len(labels) + sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    if T < min_frames:
        raise CtcInfeasibleError(
            f"label needs at least {min_frames} frames, got {T}")
    ext = np.full(2 * len(labels) + 1, BLANK)
    ext[1::2] = labels
    # a state may also come from two back when it holds a label unlike the
    # one there (two blanks are alike)
    skip = np.flatnonzero(ext[2:] != ext[:-2]) + 2
    alpha = np.full(len(ext), -np.inf)
    alpha[:2] = lp[0, ext[:2]]
    for t in range(1, T):
        a = alpha.copy()
        a[1:] = np.logaddexp(a[1:], alpha[:-1])
        a[skip] = np.logaddexp(a[skip], alpha[skip - 2])
        alpha = a + lp[t, ext]
    total = np.logaddexp(alpha[-1], alpha[-2])
    if not np.isfinite(total):
        raise CtcInfeasibleError("label sequence has zero probability")
    return float(-total)


def ctc_collapse(path) -> tuple:
    """Remove repeated labels, then blanks."""
    out = []
    prev = None
    for v in path:
        if v != prev:
            if v != BLANK:
                out.append(v)
            prev = v
    return tuple(out)


def ctc_output_distribution(log_probs) -> dict[tuple, float]:
    """Probability of every collapsed output by full path enumeration."""
    lp = np.asarray(log_probs, dtype=np.float64)
    T, V = lp.shape
    if V ** T > 10 ** 6:
        raise ValueError("enumeration bound V^T <= 1e6 exceeded")
    probs = np.exp(lp)
    dist: dict[tuple, float] = {}
    for path in itertools.product(range(V), repeat=T):
        p = 1.0
        for t, v in enumerate(path):
            p *= probs[t, v]
        key = ctc_collapse(path)
        dist[key] = dist.get(key, 0.0) + p
    return dist


def ctc_brute_force(log_probs, labels) -> float:
    """Oracle: enumerate all V^T paths, collapse, sum matches; -log of sum."""
    lp, labels = _validate_ctc(log_probs, labels) if labels else (
        np.asarray(log_probs, dtype=np.float64), [])
    dist = ctc_output_distribution(lp)
    total = dist.get(tuple(labels), 0.0)
    if total <= 0.0:
        raise CtcInfeasibleError("label sequence has zero probability")
    return float(-np.log(total))


def seq2seq_loss(true_dists, pred_dists) -> float:
    """Sum over positions of KL(true || pred), with 0 log 0 := 0."""
    P = np.asarray(true_dists, dtype=np.float64)
    Q = np.asarray(pred_dists, dtype=np.float64)
    if P.shape != Q.shape or P.ndim != 2:
        raise ValueError("distributions must share a U x V shape")
    for M in (P, Q):
        if not np.allclose(M.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("distribution rows must sum to 1")
    support = P > 0
    if np.any(support & (Q <= 0)):
        raise ValueError("pred assigns zero probability inside true support")
    terms = np.zeros_like(P)
    terms[support] = P[support] * (np.log(P[support]) - np.log(Q[support]))
    return float(terms.sum())


@dataclass(frozen=True)
class JointLossConfig:
    lam: float = LAMBDA_TRAIN

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("weighting coefficient must lie in [0, 1]")


def joint_loss(ctc: float, s2s: float, cfg: JointLossConfig) -> float:
    if not (math.isfinite(ctc) and math.isfinite(s2s)):
        raise ValueError("loss terms must be finite")
    return cfg.lam * ctc + (1.0 - cfg.lam) * s2s

"""Binaural similarity scores over hidden-representation sequences.

Matched-length levels (input/pre/enc) use framewise cosine similarity with a
per-frame max over the four left/right channel pairings, taken over blocks of
frames. Decoder-level sequences have variable lengths, so each pairing is
aligned with fast DTW before averaging cosines along the warp path, read from
the cosine matrix the alignment already computed; the exact O(T1*T2) dynamic
program is kept as the oracle the fast path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reps import BinauralRep, RepSequence

ZERO_NORM_EPS = 1e-12
DEFAULT_RADIUS = 10
MIN_COARSEN_SIZE = 16
# float64 values of one channel in one framewise block (32 KiB). The
# whole-sequence temporaries of a 100 x 640 `pre` trial are megabytes, which
# the allocator maps and unmaps for each trial; blocks this size reuse heap
# memory. That counts where `sim` scores: a cold pass, or a level's first `sim`
# (a rerun takes the stored scores). The first `pre` `sim` of a `unique_long`
# corpus took 20.7k minor page faults with one block per trial and 5.2k with
# these.
BLOCK_VALUES = 4096


class SimilarityError(ValueError):
    pass


@dataclass(frozen=True)
class SimilarityScore:
    value: float
    level: str
    zero_norm_frames: int

    def __post_init__(self):
        if not np.isfinite(self.value) or not (-1.0 - 1e-12 <= self.value <= 1.0 + 1e-12):
            raise ValueError(f"similarity {self.value} outside [-1, 1]")
        if self.zero_norm_frames < 0:
            raise ValueError(f"zero_norm_frames {self.zero_norm_frames} is negative")


@dataclass(frozen=True)
class WarpPath:
    pairs: tuple  # ordered ((i, j), ...) from (0, 0) to (T1-1, T2-1)

    def __post_init__(self):
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        if not pairs or pairs[0] != (0, 0):
            raise ValueError("warp path must start at (0, 0)")
        for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]):
            di, dj = i1 - i0, j1 - j0
            if (di, dj) not in ((1, 0), (0, 1), (1, 1)):
                raise ValueError(f"invalid warp step ({di}, {dj})")
        object.__setattr__(self, "pairs", pairs)


def cosine(h: np.ndarray, h_hat: np.ndarray) -> float:
    """Cosine similarity; zero-norm vectors score 0 by definition."""
    h = np.asarray(h, dtype=np.float64)
    h_hat = np.asarray(h_hat, dtype=np.float64)
    if h.shape != h_hat.shape:
        raise ValueError("dimension mismatch")
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(h_hat))):
        raise ValueError("non-finite input")
    return float(_cosine_rows(h, h_hat)[0])


def _cosine_rows(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosines over the last axis of two broadcastable stacks, and the mask of
    those taken as 0 because one of the two vectors has zero norm. The one
    place a cosine is computed."""
    na = np.linalg.norm(A, axis=-1)
    nb = np.linalg.norm(B, axis=-1)
    zero = (na < ZERO_NORM_EPS) | (nb < ZERO_NORM_EPS)
    denom = np.where(zero, 1.0, na * nb)
    vals = np.where(zero, 0.0, np.einsum("...d,...d->...", A, B) / denom)
    return vals, zero


def _reconcile_lengths(t_ref: int, t_proc: int) -> int:
    diff = abs(t_ref - t_proc)
    tol = max(2, int(0.02 * max(t_ref, t_proc)))
    if diff > tol:
        raise SimilarityError(
            f"frame counts {t_ref} vs {t_proc} differ by {diff}, beyond tolerance {tol}")
    return min(t_ref, t_proc)


def framewise_binaural_sim(ref: BinauralRep, proc: BinauralRep) -> SimilarityScore:
    """Mean over frames of max cosine over the four channel pairings.

    The cosines are taken over blocks of BLOCK_VALUES // d frames; each
    frame's cosine depends on that frame alone, so the result equals one pass
    over all frames. A block holds at least two frames unless T is 1: numpy
    drops a length-1 axis, and then sums a row of more than 8192 values in
    another order."""
    if ref.level == "dec" or proc.level == "dec":
        raise SimilarityError("decoder-level sequences require binaural_warped_sim")
    if ref.level != proc.level:
        raise SimilarityError("ref and proc levels differ")
    if ref.left.dim != proc.left.dim:
        raise SimilarityError("representation dimensions differ")
    T = _reconcile_lengths(ref.left.n_frames, proc.left.n_frames)
    step = max(2, BLOCK_VALUES // ref.left.dim)
    best = np.empty(T)  # per frame, the max over the pairings
    zero = s = 0
    while s < T:
        e = T if T - s <= step + 1 else s + step
        A, B = (np.stack([r.left.data[s:e], r.right.data[s:e]]).astype(np.float64)
                for r in (ref, proc))
        vals, z = _cosine_rows(A[:, None], B[None])  # (ref channel, proc channel, frame)
        vals.max(axis=(0, 1), out=best[s:e])
        zero += int(z.sum())
        s = e
    return SimilarityScore(value=float(best.mean()), level=ref.level, zero_norm_frames=zero)


# ---------------------------------------------------------------------------
# dynamic time warping (distance = 1 - cosine)
# ---------------------------------------------------------------------------

def _cost_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return 1.0 - _cosine_rows(A[:, None], B[None])[0]


def path_cost(A: np.ndarray, B: np.ndarray, path: WarpPath) -> float:
    C = _cost_matrix(np.asarray(A, dtype=np.float64), np.asarray(B, dtype=np.float64))
    return float(sum(C[i, j] for i, j in path.pairs))


def _dtw_window(A: np.ndarray, B: np.ndarray, allowed: np.ndarray | None) -> tuple:
    """DP over the cells a boolean (T1, T2) mask allows (None = full matrix)
    on a (T1+1, T2+1) table, infinite on its border but D[0, 0] = 0 (Sakoe &
    Chiba, IEEE TASSP 26(1), 1978); the path backtracks to each cell's
    cheapest predecessor, the first of diagonal, up and left on a tie.
    Returns the path, the (T1, T2) cosine matrix V whose cost is 1 - V, and
    V's zero-norm mask."""
    t1, t2 = A.shape[0], B.shape[0]
    V, zero = _cosine_rows(A[:, None], B[None])
    C = 1.0 - V
    D = np.full((t1 + 1, t2 + 1), np.inf)
    D[0, 0] = 0.0
    for i in range(t1):
        for j in range(t2):
            if allowed is None or allowed[i, j]:
                D[i + 1, j + 1] = C[i, j] + min(D[i, j], D[i, j + 1], D[i + 1, j])
    if not np.isfinite(D[t1, t2]):
        raise SimilarityError("DTW window disconnects the endpoints")
    pairs = [(t1 - 1, t2 - 1)]
    while (cell := pairs[-1]) != (0, 0):  # back to the cell's predecessor, read from D
        i, j = cell
        pairs.append(min((i - 1, j - 1), (i - 1, j), (i, j - 1),
                         key=lambda c: D[c[0] + 1, c[1] + 1]))
    return WarpPath(pairs=tuple(reversed(pairs))), V, zero


def dtw_path_exact(H: RepSequence | np.ndarray, H_hat: RepSequence | np.ndarray) -> WarpPath:
    """Full O(T1*T2) dynamic program; the oracle for dtw_path_fast."""
    A, B = _as_matrices(H, H_hat)
    return _dtw_window(A, B, None)[0]


def _as_matrices(H, H_hat) -> tuple[np.ndarray, np.ndarray]:
    A = H.data if isinstance(H, RepSequence) else np.asarray(H)
    B = H_hat.data if isinstance(H_hat, RepSequence) else np.asarray(H_hat)
    return A.astype(np.float64), B.astype(np.float64)


def _coarsen(A: np.ndarray) -> np.ndarray:
    """Halve the time axis by averaging adjacent frames."""
    t = A.shape[0]
    n = t // 2
    out = (A[0:2 * n:2] + A[1:2 * n:2]) / 2.0
    if t % 2 == 1:
        out = np.vstack([out, A[-1:]])
    return out


def _expand_window(path: WarpPath, t1: int, t2: int, radius: int) -> np.ndarray:
    """Project a coarse path to the finer grid and widen it by the radius:
    a (t1, t2) mask of the cells within `radius` of a coarse cell's 2x2 block."""
    mask = np.zeros((t1, t2), dtype=bool)
    for ci, cj in path.pairs:
        mask[max(2 * ci - radius, 0):2 * ci + 2 + radius,
             max(2 * cj - radius, 0):2 * cj + 2 + radius] = True
    return mask


def dtw_path_fast(H, H_hat, radius: int = DEFAULT_RADIUS) -> WarpPath:
    """Multilevel fast DTW: coarsen by adjacent-frame averaging, solve
    recursively, then refine inside a corridor of the given radius."""
    A, B = _as_matrices(H, H_hat)
    return _fast_dtw(A, B, radius)[0]


def _fast_dtw(A: np.ndarray, B: np.ndarray, radius: int) -> tuple:
    """_dtw_window's (path, V, zero mask) at the finest level of fast DTW."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    t1, t2 = A.shape[0], B.shape[0]
    if min(t1, t2) <= MIN_COARSEN_SIZE or radius >= max(t1, t2):
        return _dtw_window(A, B, None)
    coarse = _fast_dtw(_coarsen(A), _coarsen(B), radius)[0]
    window = _expand_window(coarse, t1, t2, radius)
    return _dtw_window(A, B, window)


def warped_sim(H, H_hat, path: WarpPath) -> tuple[float, int]:
    """Mean cosine over the aligned pairs; returns (value, zero_norm_frames).
    The oracle for the path cosines binaural_warped_sim reads from DTW."""
    A, B = _as_matrices(H, H_hat)
    last_i, last_j = path.pairs[-1]
    if last_i != A.shape[0] - 1 or last_j != B.shape[0] - 1:
        raise SimilarityError("warp path does not span the two sequences")
    idx_i, idx_j = np.array(path.pairs).T
    vals, zero = _cosine_rows(A[idx_i], B[idx_j])
    return float(vals.mean()), int(zero.sum())


def binaural_warped_sim(ref: BinauralRep, proc: BinauralRep,
                        radius: int = DEFAULT_RADIUS) -> SimilarityScore:
    """Max over the four channel pairings of DTW-aligned mean cosine;
    zero-norm frames are summed over all four pairings, as framewise. Each
    pairing's path cosines are read from the cosine matrix of its DTW."""
    if ref.level != "dec" or proc.level != "dec":
        raise SimilarityError("binaural_warped_sim applies to decoder-level sequences")
    refs, procs = ([r.data.astype(np.float64) for r in (b.left, b.right)] for b in (ref, proc))
    best = -np.inf
    zero_norm = 0
    for A in refs:
        for B in procs:
            path, V, zero = _fast_dtw(A, B, radius)
            idx = tuple(np.array(path.pairs).T)
            best = max(best, float(V[idx].mean()))
            zero_norm += int(zero[idx].sum())
    return SimilarityScore(value=float(best), level="dec", zero_norm_frames=zero_norm)


def binaural_similarity(ref: BinauralRep, proc: BinauralRep,
                        radius: int = DEFAULT_RADIUS) -> SimilarityScore:
    """Dispatch on level: framewise for input/pre/enc, warped for dec."""
    if ref.level == "dec":
        return binaural_warped_sim(ref, proc, radius)
    return framewise_binaural_sim(ref, proc)

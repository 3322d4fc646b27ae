"""Binaural similarity scores over hidden-representation sequences.

Matched-length levels (input/pre/enc) use framewise cosine similarity with a
per-frame max over the four left/right channel pairings. Decoder-level
sequences have variable lengths, so each pairing is aligned with fast DTW
before averaging cosines along the warp path; the exact O(T1*T2) dynamic
program is kept as the oracle the fast path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reps import BinauralRep, RepSequence

ZERO_NORM_EPS = 1e-12
DEFAULT_RADIUS = 10
MIN_COARSEN_SIZE = 16


class SimilarityError(Exception):
    pass


@dataclass(frozen=True)
class SimilarityScore:
    value: float
    level: str
    zero_norm_frames: int

    def __post_init__(self):
        if not np.isfinite(self.value) or not (-1.0 - 1e-12 <= self.value <= 1.0 + 1e-12):
            raise ValueError(f"similarity {self.value} outside [-1, 1]")


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

    @property
    def n_steps(self) -> int:
        return len(self.pairs)


def cosine(h: np.ndarray, h_hat: np.ndarray) -> float:
    """Cosine similarity; zero-norm vectors score 0 by definition."""
    h = np.asarray(h, dtype=np.float64)
    h_hat = np.asarray(h_hat, dtype=np.float64)
    if h.shape != h_hat.shape:
        raise ValueError("dimension mismatch")
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(h_hat))):
        raise ValueError("non-finite input")
    na = np.linalg.norm(h)
    nb = np.linalg.norm(h_hat)
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        return 0.0
    return float(np.dot(h, h_hat) / (na * nb))


def _cosine_rows(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, int]:
    """Row-by-row cosines of two (..., T, d) stacks; counts zero-norm frames."""
    na = np.linalg.norm(A, axis=-1)
    nb = np.linalg.norm(B, axis=-1)
    zero = (na < ZERO_NORM_EPS) | (nb < ZERO_NORM_EPS)
    denom = np.where(zero, 1.0, na * nb)
    vals = np.where(zero, 0.0, np.einsum("...d,...d->...", A, B) / denom)
    return vals, int(zero.sum())


def _reconcile_lengths(t_ref: int, t_proc: int) -> int:
    diff = abs(t_ref - t_proc)
    tol = max(2, int(0.02 * max(t_ref, t_proc)))
    if diff > tol:
        raise SimilarityError(
            f"frame counts {t_ref} vs {t_proc} differ by {diff}, beyond tolerance {tol}")
    return min(t_ref, t_proc)


def framewise_binaural_sim(ref: BinauralRep, proc: BinauralRep) -> SimilarityScore:
    """Mean over frames of max cosine over the four channel pairings."""
    if ref.level == "dec" or proc.level == "dec":
        raise SimilarityError("decoder-level sequences require binaural_warped_sim")
    if ref.level != proc.level:
        raise SimilarityError("ref and proc levels differ")
    if ref.left.dim != proc.left.dim:
        raise SimilarityError("representation dimensions differ")
    T = _reconcile_lengths(ref.left.n_frames, proc.left.n_frames)
    A, B = (np.stack([r.left.data[:T], r.right.data[:T]]).astype(np.float64) for r in (ref, proc))
    vals, zero = _cosine_rows(A[:, None], B[None])  # (ref channel, proc channel, frame)
    return SimilarityScore(value=float(vals.max(axis=(0, 1)).mean()), level=ref.level,
                           zero_norm_frames=zero)


# ---------------------------------------------------------------------------
# dynamic time warping (distance = 1 - cosine)
# ---------------------------------------------------------------------------

def _cost_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(A, axis=1)
    nb = np.linalg.norm(B, axis=1)
    az = na < ZERO_NORM_EPS
    bz = nb < ZERO_NORM_EPS
    na = np.where(az, 1.0, na)
    nb = np.where(bz, 1.0, nb)
    cos = (A / na[:, None]) @ (B / nb[:, None]).T
    cos[az, :] = 0.0
    cos[:, bz] = 0.0
    return 1.0 - cos


def path_cost(A: np.ndarray, B: np.ndarray, path: WarpPath) -> float:
    C = _cost_matrix(np.asarray(A, dtype=np.float64), np.asarray(B, dtype=np.float64))
    return float(sum(C[i, j] for i, j in path.pairs))


def _dtw_window(A: np.ndarray, B: np.ndarray,
                window: list[tuple[int, int]] | None) -> WarpPath:
    """DP over an index window (None = full matrix); tie-break prefers the
    diagonal step, then the i-advance."""
    t1, t2 = A.shape[0], B.shape[0]
    C = _cost_matrix(A, B)
    INF = np.inf
    D = np.full((t1, t2), INF)
    allowed = None
    if window is not None:
        allowed = np.zeros((t1, t2), dtype=bool)
        for i, j in window:
            allowed[i, j] = True
        allowed[0, 0] = True
        allowed[t1 - 1, t2 - 1] = True
    for i in range(t1):
        for j in range(t2):
            if allowed is not None and not allowed[i, j]:
                continue
            if i == 0 and j == 0:
                D[i, j] = C[i, j]
                continue
            best = INF
            if i > 0 and j > 0:
                best = D[i - 1, j - 1]
            if i > 0 and D[i - 1, j] < best:
                best = D[i - 1, j]
            if j > 0 and D[i, j - 1] < best:
                best = D[i, j - 1]
            D[i, j] = C[i, j] + best
    if not np.isfinite(D[t1 - 1, t2 - 1]):
        raise SimilarityError("DTW window disconnects the endpoints")
    # backtrace; diagonal preferred, then i-advance
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
    pairs.reverse()
    return WarpPath(pairs=tuple(pairs))


def dtw_path_exact(H: RepSequence | np.ndarray, H_hat: RepSequence | np.ndarray) -> WarpPath:
    """Full O(T1*T2) dynamic program; the oracle for dtw_path_fast."""
    A, B = _as_matrices(H, H_hat)
    return _dtw_window(A, B, None)


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


def _expand_window(path: WarpPath, t1: int, t2: int, radius: int) -> list[tuple[int, int]]:
    """Project a coarse path to the finer grid and widen it by the radius."""
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


def dtw_path_fast(H, H_hat, radius: int = DEFAULT_RADIUS) -> WarpPath:
    """Multilevel fast DTW: coarsen by adjacent-frame averaging, solve
    recursively, then refine inside a corridor of the given radius."""
    A, B = _as_matrices(H, H_hat)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return _fast_dtw(A, B, radius)


def _fast_dtw(A: np.ndarray, B: np.ndarray, radius: int) -> WarpPath:
    t1, t2 = A.shape[0], B.shape[0]
    if min(t1, t2) <= MIN_COARSEN_SIZE or radius >= max(t1, t2):
        return _dtw_window(A, B, None)
    coarse = _fast_dtw(_coarsen(A), _coarsen(B), radius)
    window = _expand_window(coarse, t1, t2, radius)
    return _dtw_window(A, B, window)


def warped_sim(H, H_hat, path: WarpPath) -> tuple[float, int]:
    """Mean cosine over the aligned pairs; returns (value, zero_norm_frames)."""
    A, B = _as_matrices(H, H_hat)
    last_i, last_j = path.pairs[-1]
    if last_i != A.shape[0] - 1 or last_j != B.shape[0] - 1:
        raise SimilarityError("warp path does not span the two sequences")
    idx_i = np.array([i for i, _ in path.pairs])
    idx_j = np.array([j for _, j in path.pairs])
    vals, zero = _cosine_rows(A[idx_i], B[idx_j])
    return float(vals.mean()), zero


def binaural_warped_sim(ref: BinauralRep, proc: BinauralRep,
                        radius: int = DEFAULT_RADIUS) -> SimilarityScore:
    """Max over the four channel pairings of DTW-aligned mean cosine."""
    if ref.level != "dec" or proc.level != "dec":
        raise SimilarityError("binaural_warped_sim applies to decoder-level sequences")
    best = -np.inf
    best_zero = 0
    for a in (ref.left, ref.right):
        for b in (proc.left, proc.right):
            path = dtw_path_fast(a, b, radius)
            val, zero = warped_sim(a, b, path)
            if val > best:
                best, best_zero = val, zero
    return SimilarityScore(value=float(best), level="dec", zero_norm_frames=best_zero)


def binaural_similarity(ref: BinauralRep, proc: BinauralRep,
                        radius: int = DEFAULT_RADIUS) -> SimilarityScore:
    """Dispatch on level: framewise for input/pre/enc, warped for dec."""
    if ref.level == "dec":
        return binaural_warped_sim(ref, proc, radius)
    return framewise_binaural_sim(ref, proc)

"""Log-mel filterbank front end for stereo WAV input.

Computes the 80-channel log mel-filterbank features that feed the toy ASR.
All functions are pure; the same input always yields the same output.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .reps import RepSequence


class AudioError(ValueError):
    """Unreadable or unsupported audio input."""


@dataclass(frozen=True)
class StereoSignal:
    samples_left: np.ndarray
    samples_right: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        left = np.asarray(self.samples_left, dtype=np.float64)
        right = np.asarray(self.samples_right, dtype=np.float64)
        if left.ndim != 1 or right.ndim != 1:
            raise AudioError("channels must be 1-D sample sequences")
        if len(left) != len(right):
            raise AudioError("left/right channels differ in length")
        if len(left) == 0:
            raise AudioError("zero-length audio")
        if self.sample_rate_hz <= 0:
            raise AudioError("sample rate must be positive")
        if not (np.all(np.isfinite(left)) and np.all(np.isfinite(right))):
            raise AudioError("non-finite samples")
        object.__setattr__(self, "samples_left", left)
        object.__setattr__(self, "samples_right", right)

    @property
    def n_samples(self) -> int:
        return len(self.samples_left)

    def channel(self, which: str) -> np.ndarray:
        if which == "left":
            return self.samples_left
        if which == "right":
            return self.samples_right
        raise ValueError(f"unknown channel {which!r}")


@dataclass(frozen=True)
class FeatConfig:
    n_mels: int = 80
    window_ms: float = 25.0
    hop_ms: float = 10.0
    fft_size: int | None = None  # None: next power of two >= window samples
    fmin_hz: float = 0.0
    fmax_hz: float | None = None  # None: Nyquist
    log_floor: float = 1e-10

    def __post_init__(self):
        # json reads NaN and Infinity, which pass or dodge the range checks below
        for name in ("window_ms", "hop_ms", "fmin_hz", "fmax_hz", "log_floor"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.fmin_hz < 0:
            raise ValueError("fmin_hz must be >= 0")
        if self.n_mels <= 0:
            raise ValueError("n_mels must be positive")
        if self.hop_ms <= 0:
            raise ValueError("hop_ms must be positive")
        if self.window_ms < self.hop_ms:
            raise ValueError("window_ms must be >= hop_ms")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")

    def validate(self, sr: int) -> None:
        """The checks that depend on the sample rate."""
        fmax = self.fmax_hz if self.fmax_hz is not None else sr / 2.0
        if not (self.fmin_hz < fmax <= sr / 2.0):
            raise ValueError("need fmin_hz < fmax_hz <= sample_rate/2")
        if not math.isfinite(self.window_ms * sr / 1000.0):  # the hop's count is no larger
            raise ValueError(f"window_ms {self.window_ms} overflows a sample count at {sr} Hz")
        if self.hop_samples(sr) < 1:  # the window is at least as long as the hop
            raise ValueError(f"hop_ms {self.hop_ms} is under one sample at {sr} Hz")

    def window_samples(self, sr: int) -> int:
        return int(round(self.window_ms * sr / 1000.0))

    def hop_samples(self, sr: int) -> int:
        return int(round(self.hop_ms * sr / 1000.0))

    def effective_fft_size(self, sr: int) -> int:
        if self.fft_size is not None:
            if self.fft_size < self.window_samples(sr):
                raise ValueError("fft_size smaller than window")
            return self.fft_size
        n = 1
        while n < self.window_samples(sr):
            n *= 2
        return n


# (format tag, bits per sample) -> sample type of the `data` chunk
_WAV_SAMPLES = {(1, 16): np.dtype("<i2"), (3, 32): np.dtype("<f4")}
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# bytes 2-15 of every KSDATAFORMAT_SUBTYPE GUID; bytes 0-1 hold the format tag
_SUBTYPE_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def read_wav(path) -> StereoSignal:
    """Read a 16-bit PCM or 32-bit float WAV file as a StereoSignal.

    A little-endian RIFF/WAVE file whose `fmt ` chunk has format tag 1 (PCM,
    16 bits) or 3 (IEEE float, 32 bits), directly or as the subformat of
    WAVE_FORMAT_EXTENSIBLE, with one or two channels. Other chunks (LIST,
    fact, ...) are skipped, with the pad byte that follows an odd-sized chunk.
    Anything else is an AudioError naming the file: a truncated header or
    chunk, RIFX or RF64, another sample format, more than two channels, or no
    `fmt ` or `data` chunk. A missing file raises FileNotFoundError.

    Mono files are duplicated into both channels; int16 samples are scaled
    by 1/32768 into [-1, 1].
    """
    buf = Path(path).read_bytes()

    def bad(why) -> AudioError:
        return AudioError(f"unsupported WAV file {path}: {why}")

    if len(buf) < 12 or buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise bad(f"no little-endian RIFF/WAVE header: file starts {buf[:12]!r}")
    fmt = data = None
    pos, view = 12, memoryview(buf)
    while data is None:
        if pos + 8 > len(buf):
            raise bad("no 'data' chunk" if fmt else "no 'fmt ' chunk")
        chunk_id, size = struct.unpack_from("<4sI", buf, pos)
        body = view[pos + 8:pos + 8 + size]  # no copy of the samples
        if len(body) < size:
            raise bad(f"{chunk_id!r} chunk truncated to {len(body)} of {size} bytes")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            if fmt is None:
                raise bad("no 'fmt ' chunk before the 'data' chunk")
            data = body
        pos += 8 + size + size % 2

    if len(fmt) < 16:
        raise bad(f"'fmt ' chunk of {len(fmt)} bytes")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        if len(fmt) < 40 or fmt[26:40] != _SUBTYPE_GUID_TAIL:
            raise bad("WAVE_FORMAT_EXTENSIBLE without a format-tag subformat")
        tag = struct.unpack_from("<H", fmt, 24)[0]
    dtype = _WAV_SAMPLES.get((tag, bits))
    if dtype is None:
        raise bad(f"format tag {tag} with {bits}-bit samples; "
                  "expected 16-bit PCM (1) or 32-bit float (3)")
    if channels not in (1, 2):
        raise bad(f"{channels} channels; expected 1 or 2")
    if block_align != channels * dtype.itemsize or len(data) % block_align:
        raise bad(f"{len(data)} data bytes do not fill {channels}-channel "
                  f"{bits}-bit frames of {block_align} bytes")
    samples = np.frombuffer(data, dtype).reshape(-1, channels).astype(np.float64)
    if dtype.kind == "i":
        samples /= 32768.0
    try:
        return StereoSignal(samples[:, 0], samples[:, -1], rate)
    except AudioError as e:  # zero-length, zero rate or non-finite samples
        raise bad(e) from None


def frame_count(n_samples: int, cfg: FeatConfig, sr: int) -> int:
    """Number of analysis frames: floor((n - win)/hop) + 1."""
    win = cfg.window_samples(sr)
    hop = cfg.hop_samples(sr)
    if n_samples < win:
        raise ValueError(f"signal of {n_samples} samples shorter than one {win}-sample window")
    return (n_samples - win) // hop + 1


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _band_edges_hz(cfg: FeatConfig, sr: int) -> np.ndarray:
    """The n_mels + 2 filter edges, equally spaced in mel from fmin_hz to
    fmax_hz (default: Nyquist); band k peaks at edge k + 1."""
    fmax = cfg.fmax_hz if cfg.fmax_hz is not None else sr / 2.0
    return mel_to_hz(np.linspace(hz_to_mel(cfg.fmin_hz), hz_to_mel(fmax), cfg.n_mels + 2))


@functools.lru_cache(maxsize=16)
def mel_filterbank(cfg: FeatConfig, sr: int) -> np.ndarray:
    """Triangular unit-peak mel filters, (n_mels, fft_size//2 + 1); shared, read-only."""
    cfg.validate(sr)
    n_fft = cfg.effective_fft_size(sr)
    hz_pts = _band_edges_hz(cfg, sr)
    bin_hz = np.arange(n_fft // 2 + 1) * sr / n_fft
    lo, ctr, hi = (hz_pts[k:k + cfg.n_mels, None] for k in range(3))
    fb = np.maximum(0.0, np.minimum((bin_hz - lo) / (ctr - lo), (hi - bin_hz) / (hi - ctr)))
    empty = np.flatnonzero(~np.any(fb > 0, axis=1))
    if empty.size:
        raise ValueError(
            f"mel band {empty[0]} covers no FFT bin; increase fft_size or reduce n_mels"
        )
    fb.setflags(write=False)
    return fb


@functools.lru_cache(maxsize=16)
def _hann(win: int) -> np.ndarray:
    """np.hanning(win); shared, read-only."""
    w = np.hanning(win)
    w.setflags(write=False)
    return w


def band_centers_hz(cfg: FeatConfig, sr: int) -> np.ndarray:
    return _band_edges_hz(cfg, sr)[1:-1]


def logmel(signal_channel: np.ndarray, cfg: FeatConfig, sr: int,
           signal_id: str = "", channel: str = "left") -> RepSequence:
    """Log-mel features for one channel: (frame_count, n_mels) RepSequence.

    Hann-windowed frames, power spectrum, triangular mel filters,
    ln(max(energy, log_floor)).
    """
    cfg.validate(sr)
    x = np.asarray(signal_channel, dtype=np.float64)
    win = cfg.window_samples(sr)
    hop = cfg.hop_samples(sr)
    n_frames = frame_count(len(x), cfg, sr)
    n_fft = cfg.effective_fft_size(sr)
    frames = sliding_window_view(x, win)[::hop][:n_frames] * _hann(win)
    spec = np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2
    feats = np.log(np.maximum(spec @ mel_filterbank(cfg, sr).T, cfg.log_floor))
    return RepSequence(data=feats, level="input", channel=channel, signal_id=signal_id)

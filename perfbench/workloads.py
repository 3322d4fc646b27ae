"""Seeded synthetic datasets for the benchmark workloads.

The trial structure follows the Clarity Prediction Challenge (Barker et al.,
Interspeech 2022): one reference scene is heard through several hearing-aid
systems, and each processed signal by one or more listeners. The program under
test sees only what these functions write: WAV files, a manifest and, for the
calibration workload, scores files.

At seed 0 with one listener per signal, ``build_audio_dataset`` writes the same
WAV bytes and manifest entries as the test suite's smoke dataset, so traced
counts can be compared with the numbers measured on that dataset. The seed
changes the noise realisation of every processed signal; the scene structure,
SNRs and listener labels are fixed by the workload.

A benchmark run generates several corpora of its workload, one per cycle of
passes: corpus ``c`` of run seed ``s`` is built with ``corpus_seed(s, c)``, so
corpus 0 of seed 0 is the seed-0 dataset above.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

SR = 16000
SNRS = (np.inf, 20.0, 10.0, 0.0, -5.0, -10.0)
LEVELS = ("input", "pre", "enc", "dec")
# noise seeds of the smoke dataset are 1000 + 10 * scene + system; each
# benchmark seed moves them to a disjoint block
_SEED_STRIDE = 1_000_000
# corpora a run may generate from one seed
CORPORA_PER_SEED = 64
AUDIO_LISTENERS = 5
# noise of the calibration workload's raw scores at each pseudo-level
CALIB_NOISE_SD = (0.04, 0.08, 0.12, 0.16)


@dataclass(frozen=True)
class AudioWorkload:
    """Scenes x systems x listeners, all stages from WAV to report.

    ``unique`` gives every scene one system (cycling through the finite SNRs)
    instead of all of them, so no two trials share a reference or a signal.
    """
    scenes: int
    listeners_per_signal: int
    clip_s: float
    unique: bool = False

    def systems(self, scene: int) -> list[int]:
        if self.unique:
            return [1 + scene % (len(SNRS) - 1)]
        return list(range(len(SNRS)))

    @property
    def n_trials(self) -> int:
        return sum(len(self.systems(i)) for i in range(self.scenes)) * self.listeners_per_signal

    @property
    def frames_per_channel(self) -> int:
        n = int(round(self.clip_s * SR))
        return (n - 400) // 160 + 1  # default 25 ms window, 10 ms hop


@dataclass(frozen=True)
class CalibWorkload:
    """Synthetic scores at four pseudo-levels; fit and eval only. Each signal
    is heard by ``listeners_per_signal`` of the ``listeners``, so listener
    means differ as they do in real listening tests."""
    scenes: int
    systems: int
    listeners: int
    listeners_per_signal: int

    def listener(self, scene: int, system: int, k: int) -> int:
        # offsets k * (listeners // listeners_per_signal) keep a signal's
        # listeners distinct
        return (scene + system + k * (self.listeners // self.listeners_per_signal)) % self.listeners

    @property
    def n_trials(self) -> int:
        return self.scenes * self.systems * self.listeners_per_signal


WORKLOADS = {
    "shared_short": AudioWorkload(scenes=10, listeners_per_signal=2, clip_s=0.5),
    "unique_long": AudioWorkload(scenes=24, listeners_per_signal=1, clip_s=4.0, unique=True),
    "calib_large": CalibWorkload(scenes=100, systems=20, listeners=50, listeners_per_signal=5),
}


def synth_speechlike(u: float, n_samples: int, sr: int = SR) -> np.ndarray:
    """Deterministic speech-like signal for scene ``u``: gliding harmonics
    under a syllable-rate envelope."""
    t = np.arange(n_samples) / sr
    f0 = 120.0 + 15.0 * u
    glide = f0 * (1.0 + 0.3 * np.sin(2 * np.pi * (1.5 + 0.2 * u) * t))
    phase = 2 * np.pi * np.cumsum(glide) / sr
    x = np.sin(phase) + 0.5 * np.sin(2 * phase) + 0.25 * np.sin(3 * phase)
    env = 0.55 + 0.45 * np.sin(2 * np.pi * (3.0 + 0.5 * u) * t + u)
    return 0.3 * x * env


def add_noise_at_snr(x: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    if np.isinf(snr_db):
        return x.copy()
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(len(x))
    sig_p = np.mean(x ** 2)
    noise *= np.sqrt(sig_p / (10 ** (snr_db / 10)) / np.mean(noise ** 2))
    return x + noise


def write_stereo_wav(path: Path, left: np.ndarray, right: np.ndarray, sr: int = SR) -> None:
    data = np.stack([left, right], axis=1)
    wavfile.write(path, sr, (np.clip(data, -1, 1) * 32767).astype(np.int16))


def _wcs(snr: float, listener: int) -> float:
    snr_term = -(30.0 if np.isinf(snr) else snr) / 5.0
    wcs = 1.0 / (1.0 + np.exp(snr_term - 1.0))
    return float(np.clip(wcs + 0.02 * (listener - 2), 0.0, 1.0))


def build_audio_dataset(root: Path, w: AudioWorkload, seed: int) -> Path:
    """Write the WAVs and manifest of an audio workload; returns the manifest."""
    audio = root / "audio"
    audio.mkdir(parents=True, exist_ok=True)
    n_samples = int(round(w.clip_s * SR))
    entries = []
    for i in range(w.scenes):
        clean = synth_speechlike(i, n_samples)
        ref_path = audio / f"ref{i:02d}.wav"
        write_stereo_wav(ref_path, clean, 0.9 * clean)
        for j in w.systems(i):
            snr = SNRS[j]
            noisy = add_noise_at_snr(clean, snr, seed=1000 + 10 * i + j + _SEED_STRIDE * seed)
            peak = np.max(np.abs(noisy))
            if peak > 1.0:
                noisy = noisy / peak
            proc_path = audio / f"proc{i:02d}n{j}.wav"
            write_stereo_wav(proc_path, noisy, 0.9 * noisy)
            for k in range(w.listeners_per_signal):
                listener = (i + k) % AUDIO_LISTENERS
                entries.append({
                    "signal_id": f"s{i:02d}n{j}",
                    "listener_id": f"L{listener}",
                    "system_id": f"sys{j}",
                    "correctness": _wcs(snr, listener),
                    "ref_left": f"audio/{ref_path.name}",
                    "ref_right": f"audio/{ref_path.name}",
                    "proc_left": f"audio/{proc_path.name}",
                    "proc_right": f"audio/{proc_path.name}",
                    "split": "dev" if i < (w.scenes + 1) // 2 else "eval",
                })
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=1))
    return manifest


SCORES_HEADER = "signal_id,listener_id,system_id,level,raw_score,zero_norm_frames\n"


def build_calib_dataset(root: Path, w: CalibWorkload, seed: int) -> Path:
    """Write a manifest and one scores file per pseudo-level.

    Each signal (scene x system) gets one raw score per level, shared by all
    its listeners as in the real pipeline; each trial's word correctness adds
    a listener offset and trial noise to the signal's latent quality. Short
    WAVs are written so that every manifest path exists.
    """
    rng = np.random.default_rng([seed, 2022])
    audio = root / "audio"
    audio.mkdir(parents=True, exist_ok=True)
    n_samples = SR // 50
    system_q = np.linspace(-2.0, 2.5, w.systems) + rng.normal(0, 0.2, w.systems)
    scene_q = rng.normal(0, 0.5, w.scenes)
    listener_q = rng.normal(0, 0.6, w.listeners)
    signal_noise = {lv: rng.normal(0, sd, (w.scenes, w.systems))
                    for lv, sd in zip(LEVELS, CALIB_NOISE_SD)}
    entries = []
    rows = {lv: [] for lv in LEVELS}
    for i in range(w.scenes):
        clean = synth_speechlike(i, n_samples)
        ref = audio / f"ref{i:03d}.wav"
        write_stereo_wav(ref, clean, 0.9 * clean)
        for j in range(w.systems):
            proc = audio / f"proc{i:03d}n{j:02d}.wav"
            write_stereo_wav(proc, 0.5 * clean, 0.45 * clean)
            latent = system_q[j] + scene_q[i]
            sid = f"s{i:03d}n{j:02d}"
            listeners = [w.listener(i, j, k) for k in range(w.listeners_per_signal)]
            for lv in LEVELS:
                raw = float(np.clip(0.55 + 0.1 * latent + signal_noise[lv][i, j], -1.0, 1.0))
                rows[lv].append((sid, raw, j, listeners))
            for k in listeners:
                wcs = 1.0 / (1.0 + np.exp(-(latent + listener_q[k] + rng.normal(0, 0.5))))
                entries.append({
                    "signal_id": sid, "listener_id": f"L{k:02d}", "system_id": f"sys{j:02d}",
                    "correctness": float(wcs),
                    "ref_left": f"audio/{ref.name}", "ref_right": f"audio/{ref.name}",
                    "proc_left": f"audio/{proc.name}", "proc_right": f"audio/{proc.name}",
                    "split": "dev" if i < (w.scenes + 1) // 2 else "eval",
                })
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=1))
    for lv in LEVELS:
        lines = ["# generated by the benchmark's calibration workload\n", SCORES_HEADER]
        for sid, raw, j, listeners in rows[lv]:
            for k in listeners:
                lines.append(f"{sid},L{k:02d},sys{j:02d},{lv},{raw:.12g},0\n")
        (root / f"scores_{lv}.csv").write_text("".join(lines))
    return manifest


def corpus_seed(seed: int, corpus: int) -> int:
    """Generator seed of corpus ``corpus`` (0 <= corpus < CORPORA_PER_SEED) of
    run seed ``seed``; distinct for every pair."""
    if not 0 <= corpus < CORPORA_PER_SEED:
        raise ValueError(f"corpus {corpus} outside [0, {CORPORA_PER_SEED})")
    return CORPORA_PER_SEED * seed + corpus


def build_dataset(root: Path, w, seed: int) -> Path:
    if isinstance(w, AudioWorkload):
        return build_audio_dataset(root, w, seed)
    return build_calib_dataset(root, w, seed)

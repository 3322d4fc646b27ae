import wave

import numpy as np
import pytest

from hirsim.reps import BinauralRep, RepSequence


def make_rep(rng, t, d, level="enc", channel="left", signal_id="sig"):
    data = rng.normal(size=(t, d)).astype(np.float32)
    return RepSequence(data=data, level=level, channel=channel, signal_id=signal_id)


def make_binaural(rng, t, d, level="enc", signal_id="sig", t_right=None):
    return BinauralRep(
        left=make_rep(rng, t, d, level, "left", signal_id),
        right=make_rep(rng, t_right or t, d, level, "right", signal_id),
    )


def write_stereo_wav(path, left, right, sr=16000):
    data = (np.clip(np.stack([left, right], axis=1), -1, 1) * 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(sr)
        w.writeframes(data.tobytes())


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def synth_speechlike(i, n_samples=8000, sr=16000):
    """Deterministic speech-ish test signal: gliding harmonics + envelope."""
    t = np.arange(n_samples) / sr
    f0 = 120.0 + 15.0 * i
    glide = f0 * (1.0 + 0.3 * np.sin(2 * np.pi * (1.5 + 0.2 * i) * t))
    phase = 2 * np.pi * np.cumsum(glide) / sr
    x = np.sin(phase) + 0.5 * np.sin(2 * phase) + 0.25 * np.sin(3 * phase)
    env = 0.55 + 0.45 * np.sin(2 * np.pi * (3.0 + 0.5 * i) * t + i)
    return 0.3 * x * env


def add_noise_at_snr(x, snr_db, seed):
    if np.isinf(snr_db):
        return x.copy()
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(len(x))
    sig_p = np.mean(x ** 2)
    noise *= np.sqrt(sig_p / (10 ** (snr_db / 10)) / np.mean(noise ** 2))
    return x + noise


SMOKE_SNRS = (np.inf, 20.0, 10.0, 0.0, -5.0, -10.0)


def build_smoke_dataset(root, n_signals=10, snrs=SMOKE_SNRS, sr=16000):
    """Reference signals at several noise levels, with a manifest whose WCS
    tracks the SNR. Returns the manifest path."""
    import json

    root.mkdir(parents=True, exist_ok=True)
    audio = root / "audio"
    audio.mkdir(exist_ok=True)
    entries = []
    for i in range(n_signals):
        clean = synth_speechlike(i, sr=sr)
        ref_path = audio / f"ref{i:02d}.wav"
        write_stereo_wav(ref_path, clean, 0.9 * clean, sr=sr)
        for j, snr in enumerate(snrs):
            noisy = add_noise_at_snr(clean, snr, seed=1000 + 10 * i + j)
            peak = np.max(np.abs(noisy))
            if peak > 1.0:
                noisy = noisy / peak
            proc_path = audio / f"proc{i:02d}n{j}.wav"
            write_stereo_wav(proc_path, noisy, 0.9 * noisy, sr=sr)
            snr_term = -(30.0 if np.isinf(snr) else snr) / 5.0
            wcs = 1.0 / (1.0 + np.exp(snr_term - 1.0))
            wcs = float(np.clip(wcs + 0.02 * ((i % 5) - 2), 0.0, 1.0))
            entries.append({
                "signal_id": f"s{i:02d}n{j}",
                "listener_id": f"L{i % 5}",
                "system_id": f"sys{j}",
                "correctness": wcs,
                "ref_left": f"audio/{ref_path.name}",
                "ref_right": f"audio/{ref_path.name}",
                "proc_left": f"audio/{proc_path.name}",
                "proc_right": f"audio/{proc_path.name}",
                "split": "dev" if i < (n_signals + 1) // 2 else "eval",
            })
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=1))
    return manifest

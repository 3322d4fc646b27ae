import struct
import wave

import numpy as np
import pytest
from scipy.io import wavfile

from hirsim import feats
from hirsim.feats import AudioError, FeatConfig


SR = 16000


def test_read_stereo_int16(tmp_path, rng):
    n = 4410
    data = (rng.uniform(-0.5, 0.5, size=(n, 2)) * 32767).astype(np.int16)
    p = tmp_path / "x.wav"
    wavfile.write(p, 44100, data)
    sig = feats.read_wav(p)
    assert sig.n_samples == n
    assert sig.sample_rate_hz == 44100


def test_read_mono_duplicates(tmp_path, rng):
    data = (rng.uniform(-0.5, 0.5, size=1000) * 32767).astype(np.int16)
    p = tmp_path / "m.wav"
    wavfile.write(p, SR, data)
    sig = feats.read_wav(p)
    assert np.array_equal(sig.samples_left, sig.samples_right)


def test_int16_scaling_against_stdlib_decoder(tmp_path):
    # independent decode through the stdlib wave module
    vals = np.array([16384, -32768, 32767, 0], dtype=np.int16)
    p = tmp_path / "s.wav"
    wavfile.write(p, SR, vals)
    sig = feats.read_wav(p)
    assert sig.samples_left[0] == 0.5
    with wave.open(str(p)) as w:
        raw = struct.unpack(f"<{w.getnframes()}h", w.readframes(w.getnframes()))
    assert np.allclose(sig.samples_left, np.array(raw) / 32768.0)


def test_read_float32(tmp_path):
    data = np.array([0.25, -0.5, 1.0], dtype=np.float32)
    p = tmp_path / "f.wav"
    wavfile.write(p, SR, data)
    sig = feats.read_wav(p)
    assert np.allclose(sig.samples_left, data)


def test_unsupported_encoding(tmp_path):
    p = tmp_path / "i32.wav"
    wavfile.write(p, SR, np.array([1, 2, 3], dtype=np.int32))
    with pytest.raises(AudioError):
        feats.read_wav(p)


def test_zero_length(tmp_path):
    p = tmp_path / "z.wav"
    wavfile.write(p, SR, np.zeros(0, dtype=np.int16))
    with pytest.raises(AudioError):
        feats.read_wav(p)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        feats.read_wav(tmp_path / "nope.wav")


class TestFrameCount:
    cfg = FeatConfig()

    def test_one_second(self):
        assert feats.frame_count(16000, self.cfg, SR) == 98

    def test_single_frame(self):
        assert feats.frame_count(400, self.cfg, SR) == 1

    def test_two_frames(self):
        assert feats.frame_count(560, self.cfg, SR) == 2

    def test_too_short(self):
        with pytest.raises(ValueError):
            feats.frame_count(399, self.cfg, SR)


class TestLogmel:
    cfg = FeatConfig()

    def test_silence_hits_floor(self):
        rep = feats.logmel(np.zeros(SR), self.cfg, SR)
        assert rep.data.shape == (98, 80)
        assert np.allclose(rep.data, np.log(self.cfg.log_floor), atol=1e-5)

    def test_tone_peaks_at_its_band(self):
        centers = feats.band_centers_hz(self.cfg, SR)
        t = np.arange(2 * SR) / SR
        for k in (10, 40, 70):
            tone = 0.5 * np.sin(2 * np.pi * centers[k] * t)
            rep = feats.logmel(tone, self.cfg, SR)
            mid = rep.data[rep.data.shape[0] // 2]
            assert int(np.argmax(mid)) == k

    def test_deterministic(self, rng):
        x = rng.normal(size=SR)
        a = feats.logmel(x, self.cfg, SR)
        b = feats.logmel(x, self.cfg, SR)
        assert np.array_equal(a.data, b.data)

    def test_scaling_never_decreases_unfloored_values(self, rng):
        x = rng.normal(size=SR) * 0.1
        a = feats.logmel(x, self.cfg, SR).data.astype(np.float64)
        b = feats.logmel(3.0 * x, self.cfg, SR).data.astype(np.float64)
        floor = np.log(self.cfg.log_floor)
        unfloored = a > floor + 1e-6
        assert np.all(b[unfloored] >= a[unfloored] - 1e-5)

    def test_output_shape(self, rng):
        for n in (400, 1000, 5000):
            x = rng.normal(size=n)
            rep = feats.logmel(x, self.cfg, SR)
            assert rep.data.shape == (feats.frame_count(n, self.cfg, SR), self.cfg.n_mels)

    def test_filterbank_covers_all_bands(self):
        fb = feats.mel_filterbank(self.cfg, SR)
        assert fb.shape == (80, self.cfg.effective_fft_size(SR) // 2 + 1)
        assert np.all(fb.sum(axis=1) > 0)
        assert np.all(fb.max(axis=1) > 0)

    def test_filterbank_built_once_and_read_only(self):
        fb = feats.mel_filterbank(self.cfg, SR)
        assert feats.mel_filterbank(FeatConfig(), SR) is fb
        assert not fb.flags.writeable
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0

    @pytest.mark.parametrize("n", [400, 8000, 64000])
    def test_matches_frame_loop_reference(self, rng, n):
        """The framed, batched computation agrees with one FFT per frame."""
        x = rng.normal(size=n) * 0.3
        cfg = self.cfg
        win, hop = cfg.window_samples(SR), cfg.hop_samples(SR)
        window, fb = np.hanning(win), feats.mel_filterbank(cfg, SR)
        want = np.empty((feats.frame_count(n, cfg, SR), cfg.n_mels))
        for t in range(want.shape[0]):
            spec = np.abs(np.fft.rfft(x[t * hop:t * hop + win] * window,
                                      n=cfg.effective_fft_size(SR))) ** 2
            want[t] = np.log(np.maximum(fb @ spec, cfg.log_floor))
        got = feats.logmel(x, cfg, SR).data
        # float32 storage; summation order may differ in the last float64 bits
        np.testing.assert_allclose(got, want.astype(np.float32), rtol=1e-6, atol=1e-6)


def test_invalid_configs():
    with pytest.raises(ValueError):
        FeatConfig(fmin_hz=9000, fmax_hz=8000).validate(SR)
    with pytest.raises(ValueError):
        FeatConfig(fmax_hz=9000).validate(SR)
    with pytest.raises(ValueError):
        FeatConfig(window_ms=5, hop_ms=10).validate(SR)
    with pytest.raises(ValueError):
        FeatConfig(log_floor=0.0).validate(SR)

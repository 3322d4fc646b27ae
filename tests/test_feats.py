import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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



@settings(max_examples=40, deadline=None)
@given(dtype=st.sampled_from([np.int16, np.float32]), channels=st.sampled_from([1, 2]),
       n=st.integers(1, 3000), rate=st.integers(1, 192000), seed=st.integers(0, 2 ** 32 - 1))
def test_read_wav_matches_scipy_reader(tmp_path_factory, dtype, channels, n, rate, seed):
    rng = np.random.default_rng(seed)
    shape = (n,) if channels == 1 else (n, channels)
    if dtype == np.int16:
        data = rng.integers(-32768, 32768, size=shape).astype(np.int16)
    else:
        data = rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)
    p = tmp_path_factory.mktemp("wav") / "x.wav"
    wavfile.write(p, rate, data)
    sr, want = wavfile.read(p)
    want = want.reshape(n, -1).astype(np.float64) / (32768.0 if dtype == np.int16 else 1.0)
    sig = feats.read_wav(p)
    assert sig.sample_rate_hz == sr == rate
    assert np.array_equal(sig.samples_left, want[:, 0])
    assert np.array_equal(sig.samples_right, want[:, -1])


def _chunk(chunk_id: bytes, body: bytes) -> bytes:
    """One RIFF chunk, with the pad byte after an odd-sized body."""
    return chunk_id + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


def _fmt(tag=1, channels=2, rate=SR, bits=16, subformat=None, block_align=None) -> bytes:
    """A `fmt ` chunk; `subformat` makes it WAVE_FORMAT_EXTENSIBLE around that tag."""
    block_align = channels * bits // 8 if block_align is None else block_align
    body = struct.pack("<HHIIHH", tag if subformat is None else 0xFFFE, channels, rate,
                       rate * block_align, block_align, bits)
    if subformat is not None:
        guid = struct.pack("<H", subformat) + bytes.fromhex("000000001000800000aa00389b71")
        body += struct.pack("<HHI", 22, bits, 0) + guid
    return _chunk(b"fmt ", body)


def _riff(*chunks: bytes, magic=b"RIFF") -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return magic + struct.pack("<I", len(body)) + body


STEREO = np.array([[1000, -2000], [3000, -4000], [-32768, 32767]], dtype="<i2")


class TestHandBuiltWav:
    def read(self, tmp_path, raw: bytes):
        p = tmp_path / "h.wav"
        p.write_bytes(raw)
        return feats.read_wav(p)

    def assert_stereo(self, sig):
        assert sig.sample_rate_hz == SR
        assert np.array_equal(sig.samples_left, STEREO[:, 0] / 32768.0)
        assert np.array_equal(sig.samples_right, STEREO[:, 1] / 32768.0)

    def test_list_and_fact_chunks_are_skipped(self, tmp_path):
        raw = _riff(_chunk(b"LIST", b"INFOISFT\x04\0\0\0abc\0"), _fmt(),
                    _chunk(b"fact", struct.pack("<I", 3)), _chunk(b"data", STEREO.tobytes()),
                    _chunk(b"LIST", b"trailing"))
        self.assert_stereo(self.read(tmp_path, raw))

    def test_odd_sized_chunk_is_padded(self, tmp_path):
        raw = _riff(_fmt(), _chunk(b"junk", b"odd"), _chunk(b"data", STEREO.tobytes()))
        assert raw.count(b"odd\0data") == 1
        self.assert_stereo(self.read(tmp_path, raw))

    @pytest.mark.parametrize("tag, dtype, scale", [(1, "<i2", 32768.0), (3, "<f4", 1.0)])
    def test_wave_format_extensible(self, tmp_path, tag, dtype, scale):
        data = np.array([[0.25, -0.5], [0.75, 1.0]]) * (32767 if tag == 1 else 1.0)
        data = data.astype(dtype)
        raw = _riff(_fmt(subformat=tag, bits=8 * data.itemsize), _chunk(b"data", data.tobytes()))
        sig = self.read(tmp_path, raw)
        assert np.array_equal(sig.samples_left, data[:, 0] / scale)
        assert np.array_equal(sig.samples_right, data[:, 1] / scale)

    def test_mono_is_duplicated(self, tmp_path):
        raw = _riff(_fmt(channels=1), _chunk(b"data", STEREO[:, 0].tobytes()))
        sig = self.read(tmp_path, raw)
        assert np.array_equal(sig.samples_left, STEREO[:, 0] / 32768.0)
        assert np.array_equal(sig.samples_right, sig.samples_left)

    GOOD = _riff(_fmt(), _chunk(b"data", STEREO.tobytes()))

    @pytest.mark.parametrize("raw, cause", [
        (GOOD[:10], "no little-endian RIFF/WAVE header"),
        (GOOD[:30], "'fmt ' chunk truncated"),
        (GOOD[:-3], "'data' chunk truncated"),
        (GOOD[:36], "no 'data' chunk"),
        (_riff(_chunk(b"data", STEREO.tobytes())), "no 'fmt ' chunk before the 'data' chunk"),
        (_riff(_chunk(b"LIST", b"info")), "no 'fmt ' chunk"),
        (b"RIFX" + GOOD[4:], "no little-endian RIFF/WAVE header"),
        (b"RF64" + GOOD[4:], "no little-endian RIFF/WAVE header"),
        (_riff(_fmt(bits=8), _chunk(b"data", b"\x80" * 6)), "format tag 1 with 8-bit samples"),
        (_riff(_fmt(bits=24), _chunk(b"data", b"\0" * 18)), "format tag 1 with 24-bit samples"),
        (_riff(_fmt(bits=32), _chunk(b"data", b"\0" * 24)), "format tag 1 with 32-bit samples"),
        (_riff(_fmt(tag=3, bits=64), _chunk(b"data", b"\0" * 48)),
         "format tag 3 with 64-bit samples"),
        (_riff(_fmt(subformat=1, bits=24), _chunk(b"data", b"\0" * 18)),
         "format tag 1 with 24-bit samples"),
        (_riff(_fmt(channels=3), _chunk(b"data", b"\0" * 18)), "3 channels"),
        (_riff(_fmt(block_align=2), _chunk(b"data", STEREO.tobytes())), "frames of 2 bytes"),
        (_riff(_fmt(), _chunk(b"data", STEREO.tobytes()[:-2])), "data bytes do not fill"),
        (_riff(_fmt(), _chunk(b"data", b"")), "zero-length audio"),
        (_riff(_fmt(rate=0), _chunk(b"data", STEREO.tobytes())), "sample rate must be positive"),
    ], ids=["short-header", "truncated-fmt", "truncated-data", "no-data", "data-before-fmt",
            "no-fmt", "rifx", "rf64", "pcm8", "pcm24", "int32", "float64", "extensible-pcm24",
            "three-channels", "bad-block-align", "partial-frame", "empty-data", "zero-rate"])
    def test_unsupported_or_broken_file_names_itself(self, tmp_path, raw, cause):
        with pytest.raises(AudioError) as e:
            self.read(tmp_path, raw)
        assert str(e.value).startswith(f"unsupported WAV file {tmp_path / 'h.wav'}: ")
        assert cause in str(e.value)


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

    def test_window_built_once_and_read_only(self):
        win = self.cfg.window_samples(SR)
        w = feats._hann(win)
        assert feats._hann(win) is w
        assert np.array_equal(w, np.hanning(win))
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0

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

import json
import os

import numpy as np
import pytest

from hirsim import reps
from hirsim.reps import (
    BinauralRep,
    FormatError,
    RepSequence,
    TrialRecord,
    load_manifest,
    read_reps,
    write_reps,
)
from conftest import make_rep


class TestRepSequence:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            RepSequence(data=np.array([[np.inf, 0.0]]), level="enc",
                        channel="left", signal_id="s")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RepSequence(data=np.zeros((0, 4)), level="enc", channel="left", signal_id="s")

    def test_rejects_bad_level(self, rng):
        with pytest.raises(ValueError):
            make_rep(rng, 3, 2, level="bogus")


class TestBinaural:
    def test_length_mismatch_only_at_dec(self, rng):
        with pytest.raises(ValueError):
            BinauralRep(left=make_rep(rng, 3, 2, "enc", "left"),
                        right=make_rep(rng, 4, 2, "enc", "right"))
        b = BinauralRep(left=make_rep(rng, 3, 2, "dec", "left"),
                        right=make_rep(rng, 5, 2, "dec", "right"))
        assert b.level == "dec"

    def test_level_mismatch(self, rng):
        with pytest.raises(ValueError):
            BinauralRep(left=make_rep(rng, 3, 2, "enc", "left"),
                        right=make_rep(rng, 3, 2, "pre", "right"))


class TestHrepRoundTrip:
    def test_round_trip_exact(self, tmp_path, rng):
        for i in range(20):
            rep = make_rep(rng, int(rng.integers(1, 30)), int(rng.integers(1, 12)),
                           level=reps.LEVELS[i % 4], channel=reps.CHANNELS[i % 2],
                           signal_id=f"sig-{i}")
            p = tmp_path / f"r{i}.hrep"
            write_reps(rep, p)
            back = read_reps(p)
            assert back.level == rep.level
            assert back.channel == rep.channel
            assert back.signal_id == rep.signal_id
            assert back.data.tobytes() == rep.data.tobytes()

    def test_bad_magic(self, tmp_path, rng):
        p = tmp_path / "x.hrep"
        write_reps(make_rep(rng, 2, 2), p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"JUNK"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="bad magic"):
            read_reps(p)

    def test_truncated_payload(self, tmp_path, rng):
        p = tmp_path / "x.hrep"
        write_reps(make_rep(rng, 3, 2), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-4])  # drop one float
        with pytest.raises(FormatError, match="payload"):
            read_reps(p)

    def test_version_mismatch(self, tmp_path, rng):
        p = tmp_path / "x.hrep"
        write_reps(make_rep(rng, 2, 2), p)
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_reps(p)

    def test_header_too_short(self, tmp_path):
        p = tmp_path / "x.hrep"
        p.write_bytes(b"HREP\x01")
        with pytest.raises(FormatError, match="truncated"):
            read_reps(p)


def _entry(i, split="train", **over):
    e = {
        "signal_id": f"s{i}", "listener_id": f"l{i}", "system_id": "sysA",
        "correctness": 0.5, "ref_left": "r.wav", "ref_right": "r.wav",
        "proc_left": "p.wav", "proc_right": "p.wav", "split": split,
    }
    e.update(over)
    return e


def _write_manifest(tmp_path, entries, touch_files=True):
    if touch_files:
        (tmp_path / "r.wav").write_bytes(b"")
        (tmp_path / "p.wav").write_bytes(b"")
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(entries))
    return p


class TestManifest:
    def test_empty(self, tmp_path):
        assert load_manifest(_write_manifest(tmp_path, [])) == []

    def test_order_preserved_and_idempotent(self, tmp_path):
        p = _write_manifest(tmp_path, [_entry(2), _entry(0), _entry(1)])
        a = load_manifest(p)
        b = load_manifest(p)
        assert [r.signal_id for r in a] == ["s2", "s0", "s1"]
        assert a == b

    def test_correctness_range(self, tmp_path):
        p = _write_manifest(tmp_path, [_entry(0, correctness=1.5)])
        with pytest.raises(FormatError, match="correctness"):
            load_manifest(p)

    def test_wcs_percent_scaling(self, tmp_path):
        p = _write_manifest(tmp_path, [_entry(0, correctness=85)])
        recs = load_manifest(p, wcs_percent=True)
        assert recs[0].correctness == 0.85

    def test_duplicate_pair_rejected(self, tmp_path):
        p = _write_manifest(tmp_path, [_entry(0), _entry(0)])
        with pytest.raises(FormatError, match="duplicate"):
            load_manifest(p)

    def test_missing_file_strict_vs_lenient(self, tmp_path):
        p = _write_manifest(tmp_path, [_entry(0, ref_left="gone.wav")])
        with pytest.raises(FormatError, match="missing file"):
            load_manifest(p)
        recs = load_manifest(p, lenient=True)
        assert len(recs) == 1

    def test_existence_checked_once_per_path_and_only_when_strict(self, tmp_path, monkeypatch):
        entries = [_entry(i) for i in range(5)] + [_entry(5, proc_left="gone.wav")]
        p = _write_manifest(tmp_path, entries)
        stat, stats = os.stat, []

        def counting_stat(path, *args, **kwargs):
            stats.append(str(path))
            return stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting_stat)
        recs = load_manifest(p, lenient=True)
        assert stats == []
        assert [r.signal_id for r in recs] == [f"s{i}" for i in range(6)]
        with pytest.raises(FormatError, match="trial s5 references missing file gone.wav"):
            load_manifest(p)
        # found beside the manifest, or looked for there and then as given
        assert sorted(stats) == sorted(
            [str(tmp_path / "r.wav"), str(tmp_path / "p.wav"), str(tmp_path / "gone.wav"), "gone.wav"])

    def test_missing_key(self, tmp_path):
        e = _entry(0)
        del e["system_id"]
        p = _write_manifest(tmp_path, [e])
        with pytest.raises(FormatError, match="system_id"):
            load_manifest(p)

    def test_nan_correctness_allowed(self, tmp_path):
        p = _write_manifest(tmp_path, [_entry(0, split="eval", correctness=float("nan"))])
        recs = load_manifest(p)
        assert np.isnan(recs[0].correctness)


    def test_null_correctness_is_unknown(self, tmp_path):
        p = _write_manifest(tmp_path, [_entry(0, split="eval", correctness=None)])
        assert "NaN" not in p.read_text()
        assert np.isnan(load_manifest(p)[0].correctness)
        assert np.isnan(load_manifest(p, wcs_percent=True)[0].correctness)

    @pytest.mark.parametrize("bad", ["high", "0.5", True, [0.5], {"v": 0.5}])
    def test_non_numeric_correctness_names_entry(self, tmp_path, bad):
        p = _write_manifest(tmp_path, [_entry(0), _entry(1, correctness=bad)])
        with pytest.raises(FormatError, match="entry 1: correctness .* is not a number"):
            load_manifest(p)

def test_trial_record_validation():
    with pytest.raises(ValueError):
        TrialRecord("", "l", "s", 0.5, "a", "b", "c", "d", "train")
    with pytest.raises(ValueError):
        TrialRecord("x", "l", "s", 0.5, "a", "b", "c", "d", "validation")

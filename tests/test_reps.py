import json
import os
import re
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hirsim import pipeline, reps
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


@pytest.mark.parametrize("make", [
    lambda rng: make_rep(rng, 3, 2),
    lambda rng: BinauralRep(make_rep(rng, 3, 2, channel="left"),
                            make_rep(rng, 3, 2, channel="right")),
], ids=["RepSequence", "BinauralRep"])
def test_representations_compare_and_hash_by_identity(make):
    # two objects of equal content
    a, b = make(np.random.default_rng(0)), make(np.random.default_rng(0))
    assert isinstance(hash(a), int) and hash(a) == hash(a)
    assert a == a and not a == b and a != b
    assert {a: 1}[a] == 1
    live = weakref.WeakSet()
    live.add(a)
    assert a in live and b not in live


class TestHrepRoundTrip:
    def test_round_trip_exact(self, tmp_path, rng):
        for i in range(20):
            rep = make_rep(rng, int(rng.integers(1, 30)), int(rng.integers(1, 12)),
                           level=reps.LEVELS[i % 4], channel=reps.CHANNELS[i % 2],
                           signal_id=f"sig-{i}")
            p = tmp_path / f"r{i}.hrep"
            write_reps(rep, p)
            back = read_reps(p)
            assert reps.read_shape(p) == rep.data.shape
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

    @pytest.mark.parametrize("read", [read_reps, reps.read_shape], ids=["reps", "shape"])
    def test_signal_id_that_is_not_utf8_is_format_error_naming_the_file(self, tmp_path, rng,
                                                                        read):
        p = tmp_path / "x.hrep"
        write_reps(make_rep(rng, 2, 2, signal_id="sig"), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:18] + b"\xff" + raw[19:])
        with pytest.raises(FormatError, match=(
                f"^{re.escape(str(p))}: signal_id is not UTF-8: 'utf-8' codec can't decode "
                "byte 0xff in position 0: invalid start byte$")):
            read(p)

    def test_huge_declared_payload_is_format_error_before_allocating(self, tmp_path):
        # 30 bytes whose header declares T = d = 2**31: a 16 EiB payload
        p = tmp_path / "x.hrep"
        p.write_bytes(reps.MAGIC + struct.pack("<BBBBIIH", reps.VERSION, 2, 0, 0,
                                               2 ** 31, 2 ** 31, 4) + b"sig-" + bytes(8))
        assert p.stat().st_size == 30
        with pytest.raises(FormatError, match=f"payload has 8 bytes, header declares {2 ** 64}$"):
            read_reps(p)

    @pytest.mark.parametrize("t, d", [(0, 80), (3, 0)])
    def test_empty_matrix_is_format_error_naming_the_file(self, tmp_path, t, d):
        p = tmp_path / "x.hrep"
        p.write_bytes(reps.MAGIC + struct.pack("<BBBBIIH", reps.VERSION, 0, 0, 0, t, d, 0))
        with pytest.raises(FormatError, match=(
                f"^{re.escape(str(p))}: representation must be a nonempty T x d matrix, "
                f"got \\({t}, {d}\\)$")):
            read_reps(p)


class TestWriteReps:
    def test_successful_write_leaves_only_the_target(self, tmp_path, rng):
        rep = make_rep(rng, 5, 3, level="pre", channel="right", signal_id="sig-\u00e9")
        p = tmp_path / "x.hrep"
        write_reps(rep, p)
        assert list(tmp_path.iterdir()) == [p]
        sid = "sig-\u00e9".encode()
        assert p.read_bytes() == (reps.MAGIC + struct.pack("<BBBBIIH", 1, 1, 1, 0, 5, 3, len(sid))
                                  + sid + rep.data.astype("<f4").tobytes())

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, rng, monkeypatch):
        p = tmp_path / "x.hrep"
        write_reps(make_rep(rng, 2, 2), p)
        before = p.read_bytes()

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write_reps(make_rep(rng, 4, 2), p)
        assert list(tmp_path.iterdir()) == [p]
        assert p.read_bytes() == before


class TestSimFile:
    """The score store of a sim pass, as run_sim writes it and reads it back."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.integers(0, 2 ** 40)), max_size=30))
    @example([(-0.0, 0), (0.0, 1), (5e-324, 2 ** 40), (np.nextafter(1.0, 0.0), 7),
              (0.1 + 0.2, 3), (-1.0, 0), (1.0, 0)])
    def test_round_trip_keeps_every_bit(self, tmp_path_factory, scores):
        p = tmp_path_factory.mktemp("store") / "k.enc.sim.json"
        reps.write_json(p, {"level": "enc", "scores": scores})
        back = pipeline._stored(p, "enc", len(scores))
        assert [(struct.pack("<d", s.value), s.zero_norm_frames) for s in back] == \
            [(struct.pack("<d", v), z) for v, z in scores]
        assert [(type(s.value), type(s.zero_norm_frames)) for s in back] == \
            [(float, int)] * len(scores)

    def test_other_level_is_format_error(self, tmp_path):
        p = tmp_path / "k.enc.sim.json"
        reps.write_json(p, {"level": "enc", "scores": [(0.5, 0)]})
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: level 'enc' is not 'dec'$"):
            pipeline._stored(p, "dec", 1)

    def test_text_write_replaces_whole_or_not_at_all(self, tmp_path, monkeypatch):
        p = tmp_path / "scores.csv"
        with reps.replacing(p, "w", newline="") as f:
            f.write("a\r\nb\n")
        assert p.read_bytes() == b"a\r\nb\n"
        with pytest.raises(KeyError):
            with reps.replacing(p, "w", newline="") as f:
                f.write("partial")
                raise KeyError("crash mid-write")
        assert list(tmp_path.iterdir()) == [p]
        assert p.read_bytes() == b"a\r\nb\n"


class TestWriters:
    def test_json_is_strict_sorted_and_ends_in_a_newline(self, tmp_path):
        p = tmp_path / "new" / "p.json"
        reps.write_json(p, {"b": [1.5, None], "a": 1})
        assert p.read_text() == '{\n  "a": 1,\n  "b": [\n    1.5,\n    null\n  ]\n}\n'
        with pytest.raises(ValueError):
            reps.write_json(p, {"a": float("nan")})
        assert list(p.parent.iterdir()) == [p]
        assert json.loads(p.read_text()) == {"a": 1, "b": [1.5, None]}

    def test_csv_uses_the_default_dialect(self, tmp_path):
        p = tmp_path / "new" / "r.csv"
        reps.write_csv(p, [("id", "x"), ("a,b", 0.5), ('q"', 2)])
        assert p.read_bytes() == b'id,x\r\n"a,b",0.5\r\n"q""",2\r\n'
        assert list(p.parent.iterdir()) == [p]

    def test_a_linked_path_is_replaced_not_written_through(self, tmp_path):
        target, sym, hard = tmp_path / "target.json", tmp_path / "sym.json", tmp_path / "hard.json"
        target.write_text("old\n")
        sym.symlink_to(target)
        os.link(target, hard)
        for link in (sym, hard):
            reps.write_json(link, 1)
            assert not link.is_symlink() and link.read_text() == "1\n"
        assert target.read_text() == "old\n"


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

    def test_source_files_are_not_statted(self, tmp_path, monkeypatch):
        # a missing source is the reading stage's error, not the manifest's
        entries = [_entry(i) for i in range(5)] + [_entry(5, proc_left="gone.wav")]
        p = _write_manifest(tmp_path, entries)
        stat, stats = os.stat, []

        def counting_stat(path, *args, **kwargs):
            stats.append(str(path))
            return stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting_stat)
        recs = load_manifest(p)
        assert stats == []
        assert [r.signal_id for r in recs] == [f"s{i}" for i in range(6)]

    def test_resolve_path_prefers_the_manifest_dir(self, tmp_path):
        p = _write_manifest(tmp_path, [])
        assert reps.resolve_path(p, "r.wav") == tmp_path / "r.wav"
        assert reps.resolve_path(p, "gone.wav") == Path("gone.wav")

    def test_missing_key(self, tmp_path):
        e = _entry(0)
        del e["system_id"]
        p = _write_manifest(tmp_path, [e])
        with pytest.raises(FormatError, match="system_id"):
            load_manifest(p)

    def test_missing_keys_name_the_first_in_field_order(self, tmp_path):
        e = _entry(0)
        for key in ("split", "proc_left", "listener_id", "correctness"):
            del e[key]
        p = _write_manifest(tmp_path, [_entry(1), e])
        with pytest.raises(FormatError, match=r"entry 1: missing key 'listener_id'$"):
            load_manifest(p)
        p.write_text(json.dumps([_entry(1), ["s0"]]))
        with pytest.raises(FormatError, match=r"entry 1 is not a JSON object$"):
            load_manifest(p)

    def test_extra_keys_are_ignored_and_values_stringified(self, tmp_path):
        p = _write_manifest(tmp_path, [_entry(0, note="x", signal_id=7, listener_id=3)])
        assert load_manifest(p) == [TrialRecord("7", "3", "sysA", 0.5, "r.wav", "r.wav",
                                                "p.wav", "p.wav", "train")]

    @pytest.mark.parametrize("bad", [None, True, ["a.wav"], {"v": "a"}],
                             ids=["null", "bool", "array", "object"])
    @pytest.mark.parametrize("key", ["signal_id", "listener_id", "system_id", "ref_left",
                                     "ref_right", "proc_left", "proc_right", "split"])
    def test_text_field_that_is_not_a_string_or_number_names_entry(self, tmp_path, key, bad):
        # stringified, null would become a system or listener named "None"
        p = _write_manifest(tmp_path, [_entry(0), _entry(1, **{key: bad})])
        with pytest.raises(FormatError, match=(
                f"^{re.escape(str(p))}: entry 1: {key} .* is not a string or number$")):
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

import contextlib
import csv
import gc
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from hirsim import asr, calib, cli, feats, pipeline, reps, sim
from hirsim.pipeline import PipelineConfig
from conftest import build_smoke_dataset, synth_speechlike, write_stereo_wav


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    manifest = build_smoke_dataset(root, n_signals=3, snrs=(np.inf, 0.0))
    return root, manifest


def self_manifest(root, n=2):
    """Trials whose processed signal is byte-identical to the reference."""
    audio = root / "audio"
    audio.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(n):
        x = synth_speechlike(i)
        p = audio / f"clean{i}.wav"
        write_stereo_wav(p, x, 0.8 * x)
        entries.append({
            "signal_id": f"c{i}", "listener_id": f"L{i}", "system_id": "ident",
            "correctness": 1.0,
            "ref_left": f"audio/{p.name}", "ref_right": f"audio/{p.name}",
            "proc_left": f"audio/{p.name}", "proc_right": f"audio/{p.name}",
            "split": "eval",
        })
    m = root / "manifest.json"
    m.write_text(json.dumps(entries))
    return m


def add_processed(m, signal_id, left, right):
    """Append to manifest `m` a copy of its first trial whose processed left
    and right channels are new WAV files holding `left` and `right`."""
    entries = json.loads(m.read_text())
    names = []
    for side, x in (("l", left), ("r", right)):
        name = f"audio/{signal_id}_{side}.wav"
        write_stereo_wav(m.parent / name, x, x)
        names.append(name)
    entries.append({**entries[0], "signal_id": signal_id,
                    "proc_left": names[0], "proc_right": names[1]})
    m.write_text(json.dumps(entries))


def write_scores(path, rows, header=",".join(pipeline.SCORE_FIELDS)):
    """A scores.csv of (signal_id, listener_id, raw_score) rows."""
    path.write_text("".join(f"{ln}\n" for ln in [header] + [
        f"{sid},{lid},ident,enc,{raw},0" for sid, lid, raw in rows]))
    return path


class TestFeaturize:
    def test_file_count_and_idempotence(self, dataset, tmp_path):
        root, manifest = dataset
        cfg = PipelineConfig()
        cache = tmp_path / "cache"
        res = pipeline.run_featurize(manifest, cache, cfg)
        # 3 references + 3 noisy files, 2 channels each; each clean
        # "processed" file is byte-identical to its reference
        assert res.written == 12
        assert len(list(cache.glob("*.input.hrep"))) == 12
        assert sorted(p.name for p in cache.iterdir()) == \
            sorted(p.name for p in cache.glob("*.input.hrep"))
        rerun = pipeline.run_featurize(manifest, cache, cfg)
        assert rerun.written == 0
        assert rerun.skipped == 12

    def test_one_input_rep_per_distinct_bytes_and_channel(self, tmp_path):
        m = self_manifest(tmp_path / "d", n=2)
        audio = tmp_path / "d" / "audio"
        # keys follow content, not names: a renamed copy adds nothing, and a
        # file heard on one channel only adds one representation
        (audio / "copy0.wav").write_bytes((audio / "clean0.wav").read_bytes())
        write_stereo_wav(audio / "x.wav", synth_speechlike(5), synth_speechlike(6))
        entries = json.loads(m.read_text())
        entries[0]["proc_left"] = entries[0]["proc_right"] = "audio/copy0.wav"
        entries[1]["proc_right"] = "audio/x.wav"
        m.write_text(json.dumps(entries))
        cache = tmp_path / "cache"
        res = pipeline.run_featurize(m, cache, PipelineConfig())
        # clean0 and clean1 on both channels, x on the right only
        assert res.written == 5
        assert len(list(cache.iterdir())) == 5

    def test_failed_write_leaves_nothing_and_reruns(self, tmp_path, monkeypatch):
        m = self_manifest(tmp_path / "d", n=2)
        cache = tmp_path / "cache"

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(reps.os, "replace", crash)
        with pytest.raises(pipeline.PipelineError, match="simulated crash"):
            pipeline.run_featurize(m, cache, PipelineConfig())
        assert list(cache.iterdir()) == []
        monkeypatch.undo()
        res = pipeline.run_featurize(m, cache, PipelineConfig())
        assert (res.written, res.skipped) == (4, 0)

    def test_missing_audio_lenient(self, tmp_path):
        m = self_manifest(tmp_path / "d")
        entries = json.loads(m.read_text())
        entries[0]["proc_left"] = "audio/gone.wav"
        entries[0]["proc_right"] = "audio/gone.wav"
        m.write_text(json.dumps(entries))
        with pytest.raises((pipeline.PipelineError, reps.FormatError)):
            pipeline.run_featurize(m, tmp_path / "c1", PipelineConfig())
        res = pipeline.run_featurize(m, tmp_path / "c2", PipelineConfig(lenient=True))
        assert len(res.failures) == 1
        assert res.written > 0

    def test_strict_missing_source_names_stage_and_trial(self, tmp_path, capsys):
        m = self_manifest(tmp_path / "d", n=2)
        entries = json.loads(m.read_text())
        entries[1]["proc_left"] = "audio/nope.wav"
        m.write_text(json.dumps(entries))
        base = ["--manifest", str(m), "--cache-dir", str(tmp_path / "c")]
        capsys.readouterr()
        assert cli.main(base + ["featurize"]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert re.search(r"featurize failed for c1: \[Errno 2\] .*audio/nope\.wav", err), err
        # both channels of clean0 and clean1 were written before the missing
        # file was reached; a rerun reuses them
        assert len(list((tmp_path / "c").iterdir())) == 4
        res = pipeline.run_featurize(m, tmp_path / "c", PipelineConfig(lenient=True))
        assert (res.written, res.skipped, len(res.failures)) == (0, 4, 1)


    def test_sub_sample_hop_names_stage_and_trial(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"feat": {"window_ms": 0.01, "hop_ms": 0.01}}))
        base = ["--config", str(cfg_path), "--manifest", str(self_manifest(tmp_path / "d")),
                "--cache-dir", str(tmp_path / "c")]
        assert cli.main(base + ["featurize"]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: featurize failed for c0: hop_ms 0.01 is under one sample at 16000 Hz\n")
        assert list((tmp_path / "c").iterdir()) == []

    @pytest.mark.parametrize("feat", [{"window_ms": 1e308}, {"window_ms": 1e308, "hop_ms": 1e308}],
                             ids=["window", "window-and-hop"])
    def test_overflowing_window_names_stage_and_trial(self, tmp_path, capsys, feat):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"feat": feat}))
        base = ["--config", str(cfg_path), "--manifest", str(self_manifest(tmp_path / "d")),
                "--cache-dir", str(tmp_path / "c")]
        assert cli.main(base + ["featurize"]) == cli.EXIT_DATA
        assert capsys.readouterr().err == ("data error: featurize failed for c0: "
                                           "window_ms 1e+308 overflows a sample count at 16000 Hz\n")
        assert list((tmp_path / "c").iterdir()) == []

    def test_a_source_that_appears_mid_run_fails_as_unreadable(self, tmp_path, capsys,
                                                                monkeypatch):
        # the first read of clean1.wav fails, as if it were not there yet;
        # featurize reports that failure and does not read the file again
        m = self_manifest(tmp_path / "d", n=2)
        target = m.parent / "audio" / "clean1.wav"
        reads = []
        read_bytes = Path.read_bytes

        def flaky(self):
            if self == target:
                reads.append(self)
                if len(reads) == 1:
                    raise FileNotFoundError(2, "No such file or directory", str(self))
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", flaky)
        rc = cli.main(["--manifest", str(m), "--cache-dir", str(tmp_path / "c"), "featurize"])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == ("data error: featurize failed for c1: [Errno 2] "
                                           f"No such file or directory: '{target}'\n")
        assert len(reads) == 1

    def test_hrep_sources(self, tmp_path, rng):
        # precomputed sources stored at another level and channel: featurize
        # copies their data to input level under the slot's channel
        (tmp_path / "d").mkdir()
        data = {}
        for sig in ("a", "b"):
            for side in ("l", "r"):
                data[sig, side] = rng.normal(size=(24, 12)).astype(np.float32)
                reps.write_reps(reps.RepSequence(data[sig, side], "enc", "right", f"{sig}{side}"),
                                tmp_path / "d" / f"{sig}_{side}.hrep")
        m = tmp_path / "d" / "manifest.json"
        m.write_text(json.dumps([{
            "signal_id": f"s{i}", "listener_id": "L0", "system_id": "hrep", "correctness": 0.5,
            "ref_left": "a_l.hrep", "ref_right": "a_r.hrep",
            "proc_left": f"{proc}_l.hrep", "proc_right": f"{proc}_r.hrep", "split": "eval",
        } for i, proc in enumerate("ab")]))
        cache = tmp_path / "cache"
        assert pipeline.run_featurize(m, cache, PipelineConfig()).written == 4
        written = sorted((r.level, r.channel, r.signal_id, r.data.tobytes())
                         for r in map(reps.read_reps, cache.glob("*.input.hrep")))
        assert written == sorted(("input", "left" if side == "l" else "right", "", x.tobytes())
                                 for (_, side), x in data.items())
        assert pipeline.run_forward(m, cache, PipelineConfig()).written == 12
        for level in reps.LEVELS:
            scores = tmp_path / f"scores_{level}.csv"
            res = pipeline.run_sim(m, cache, scores, PipelineConfig(level=level))
            assert (res.written, res.failures) == (2, [])
            rows = {r["signal_id"]: r["raw_score"] for r in pipeline.read_scores(scores)}
            assert abs(rows["s0"] - 1.0) < 1e-9


def clip_trials(audio, n_samples, prefix):
    """A trial per entry of `n_samples`, whose reference and processed clips
    have that many samples, each with four distinct inputs."""
    audio.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, n in enumerate(n_samples):
        names = {}
        for side in ("ref", "proc"):
            x = synth_speechlike(2 * i + (side == "proc"), n_samples=n)
            write_stereo_wav(audio / f"{prefix}{i}_{side}.wav", x, 0.8 * x)
            names[f"{side}_left"] = names[f"{side}_right"] = f"audio/{prefix}{i}_{side}.wav"
        entries.append({"signal_id": f"{prefix}{i}", "listener_id": "L0", "system_id": "S0",
                        "correctness": 0.5, "split": "eval", **names})
    return entries


def mixed_length_manifests(root):
    """Five trials whose clips give 48, 48, 48, 49 and 398 log-mel frames (12,
    12, 12, 13 and 100 encoder frames), each with four distinct inputs. Returns
    the manifest of those and one that adds trial 'short': trial a0 with a
    processed left channel of 3 frames, fewer than the PreNet needs."""
    entries = clip_trials(root / "audio", (8000, 8000, 8000, 8160, 64000), "a")
    x = synth_speechlike(99, n_samples=800)
    write_stereo_wav(root / "audio" / "short.wav", x, x)
    good, full = root / "good.json", root / "full.json"
    good.write_text(json.dumps(entries))
    full.write_text(json.dumps(
        entries + [{**entries[0], "signal_id": "short", "proc_left": "audio/short.wav"}]))
    return good, full


def interleaved_length_manifests(root):
    """Six trials whose clips alternate between 48 and 49 log-mel frames (12
    and 13 encoder frames), so 12 inputs of each length. Returns the manifest
    of those and one of the same trials sorted by length."""
    entries = clip_trials(root / "audio", (8000, 8160) * 3, "b")
    mixed, by_length = root / "mixed.json", root / "by_length.json"
    mixed.write_text(json.dumps(entries))
    by_length.write_text(json.dumps(entries[::2] + entries[1::2]))
    return mixed, by_length


def kill_at_rename(n, call, *args):
    """Run `call`, a statement of `pipeline` calls on sys.argv[1:], in a
    subprocess that SIGKILLs itself at its n-th os.replace, after the
    temporary file is written and before it is renamed."""
    code = ("import os, signal, sys\n"
            "from hirsim import pipeline\n"
            "renames, rename = [], os.replace\n"
            "def replace(src, dst):\n"
            "    renames.append(dst)\n"
            f"    if len(renames) == {n}:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    rename(src, dst)\n"
            f"os.replace = replace\n{call}\n")
    src = str(Path(pipeline.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == -signal.SIGKILL, run.stderr


def forward_files(manifest, cache, cfg):
    """Featurize and forward `manifest` into `cache`; returns the bytes of each
    model-level .hrep by name, and forward's StageResult."""
    pipeline.run_featurize(manifest, cache, cfg)
    result = pipeline.run_forward(manifest, cache, cfg)
    return ({p.name: p.read_bytes() for p in cache.glob("*.hrep")
             if not p.name.endswith(".input.hrep")}, result)


class TestForward:
    def test_deterministic_bytes(self, dataset, tmp_path):
        root, manifest = dataset
        cfg = PipelineConfig()
        c1, c2 = tmp_path / "c1", tmp_path / "c2"
        for c in (c1, c2):
            pipeline.run_featurize(manifest, c, cfg)
            pipeline.run_forward(manifest, c, cfg)
        for p1 in sorted(c1.glob("*.hrep")):
            assert p1.read_bytes() == (c2 / p1.name).read_bytes()

    def test_a_killed_forward_reruns_to_a_clean_runs_bytes(self, dataset, tmp_path):
        # a forward SIGKILLed after writing a temporary file, before renaming
        # it, leaves that file behind; a rerun never reads it, writes only the
        # files the killed run did not, and ends with a clean run's bytes
        root, manifest = dataset
        cfg = PipelineConfig()
        want, clean = forward_files(manifest, tmp_path / "clean", cfg)
        cache = tmp_path / "cache"
        pipeline.run_featurize(manifest, cache, cfg)
        kill_at = len(want) // 2 + 1  # a dec file, with files of every level left to write
        kill_at_rename(kill_at, "pipeline.run_forward(*sys.argv[1:], pipeline.PipelineConfig())",
                       manifest, cache)
        [tmp] = cache.glob("*.tmp")
        assert tmp.name.rsplit(".", 2)[0] in want and tmp.stat().st_size > 0
        tmp.write_bytes(b"garbage")
        result = pipeline.run_forward(manifest, cache, cfg)
        assert (clean.written, result.failures) == (len(want), [])
        assert (result.written, result.skipped) == (len(want) - kill_at + 1, kill_at - 1)
        assert {p.name: p.read_bytes() for p in cache.glob("*.hrep")
                if not p.name.endswith(".input.hrep")} == want
        assert tmp.read_bytes() == b"garbage"

    def test_level_filter(self, dataset, tmp_path):
        root, manifest = dataset
        cfg = PipelineConfig()
        cache = tmp_path / "cache"
        pipeline.run_featurize(manifest, cache, cfg)
        pipeline.run_forward(manifest, cache, cfg, levels=("enc",))
        assert len(list(cache.glob("*.enc.hrep"))) == 12
        assert not list(cache.glob("*.pre.hrep"))
        assert not list(cache.glob("*.dec.hrep"))

    def test_warm_forward_reads_no_representation(self, dataset, tmp_path, monkeypatch):
        # the levels are checked before an input or its header is read, so a
        # filled cache reads nothing
        root, manifest = dataset
        cfg = PipelineConfig()
        cache = tmp_path / "cache"
        pipeline.run_featurize(manifest, cache, cfg)
        pipeline.run_forward(manifest, cache, cfg)
        n_inputs = len(list(cache.glob("*.input.hrep")))
        read = []
        for name in ("read_reps", "read_shape"):
            monkeypatch.setattr(reps, name, lambda p, f=getattr(reps, name): read.append(p) or f(p))
        res = pipeline.run_forward(manifest, cache, cfg)
        assert (res.written, res.skipped, res.failures) == (0, 3 * n_inputs, [])
        assert read == []

    def test_a_level_named_twice_counts_once(self, dataset, tmp_path, capsys):
        root, manifest = dataset
        printed = {}
        for levels in ("pre", "pre,pre"):
            base = ["--manifest", str(manifest), "--cache-dir", str(tmp_path / levels)]
            assert cli.main(base + ["featurize"]) == cli.EXIT_OK
            capsys.readouterr()
            for _ in ("cold", "warm"):
                assert cli.main(base + ["forward", "--levels", levels]) == cli.EXIT_OK
            printed[levels] = capsys.readouterr().out
        assert printed["pre,pre"] == printed["pre"] == (
            "forward: 12 written, 0 up to date, 0 failed\n"
            "forward: 0 written, 12 up to date, 0 failed\n")

    def test_dec_lengths_may_differ(self, dataset, tmp_path):
        root, manifest = dataset
        cfg = PipelineConfig()
        cache = tmp_path / "cache"
        pipeline.run_featurize(manifest, cache, cfg)
        pipeline.run_forward(manifest, cache, cfg, levels=("dec",))
        # stored fine regardless of left/right length agreement
        decs = list(cache.glob("*.dec.hrep"))
        assert len(decs) == 12
        for p in decs:
            reps.read_reps(p)

    def test_lenient_forward_carries_on_past_a_short_clip(self, tmp_path, capsys):
        m = self_manifest(tmp_path / "d")
        # 800 samples give 3 log-mel frames, fewer than the PreNet needs
        add_processed(m, "short", synth_speechlike(7, n_samples=800), synth_speechlike(7))
        base = ["--manifest", str(m), "--cache-dir", str(tmp_path / "c")]
        assert cli.main(base + ["featurize"]) == cli.EXIT_OK
        n_inputs = len(list((tmp_path / "c").glob("*.input.hrep")))
        capsys.readouterr()
        assert cli.main(base + ["--lenient", "forward"]) == cli.EXIT_DATA
        out, err = capsys.readouterr()
        assert out == f"forward: {3 * (n_inputs - 1)} written, 0 up to date, 1 failed\n"
        assert err.startswith("  FAILED short: 3 frames is shorter than the PreNet")
        assert err.count("FAILED") == 1
        for lv in ("pre", "enc", "dec"):
            assert len(list((tmp_path / "c").glob(f"*.{lv}.hrep"))) == n_inputs - 1
        assert cli.main(base + ["forward"]) == cli.EXIT_DATA
        assert "data error: forward failed for short: 3 frames" in capsys.readouterr().err


    def test_chunks_hold_equal_lengths_within_the_budget(self, tmp_path, monkeypatch):
        good, _ = mixed_length_manifests(tmp_path / "d")
        chunks, stacks = [], []
        encode, decode_greedy = asr.ToyAsr.encode, asr.ToyAsr.decode_greedy

        def recorded_encode(model, h_pre):
            chunks.append(h_pre.shape[:2])
            return encode(model, h_pre)

        def recorded_decode(model, enc_out):
            stacks.append(enc_out.shape[:2])
            return decode_greedy(model, enc_out)

        monkeypatch.setattr(asr.ToyAsr, "encode", recorded_encode)
        monkeypatch.setattr(asr.ToyAsr, "decode_greedy", recorded_decode)
        files, result = forward_files(good, tmp_path / "c", PipelineConfig())
        assert (len(files), result.written, result.failures) == (60, 60, [])
        # (inputs, encoder frames): 12 inputs of 12 frames as 8 + 4, the 4 of
        # 13 frames together and each 100-frame input alone
        assert sorted(chunks) == [(1, 100)] * 4 + [(4, 12), (4, 13), (8, 12)]
        assert all(n * t <= pipeline.FORWARD_BUDGET or n == 1 for n, t in chunks)
        # the decoder takes up to DECODE_STACK outputs of one shape across
        # chunks: the four 100-frame inputs decode as one stack
        assert sorted(stacks) == [(4, 12), (4, 13), (4, 100), (8, 12)]
        assert all(n <= pipeline.DECODE_STACK for n, _ in stacks)

    def test_interleaved_lengths_run_in_length_order(self, tmp_path, monkeypatch):
        mixed, by_length = interleaved_length_manifests(tmp_path / "d")
        calls = []  # (step, inputs, encoder frames) of each encode and decode stack
        for name in ("encode", "decode_greedy"):
            monkeypatch.setattr(asr.ToyAsr, name, lambda model, x, f=getattr(asr.ToyAsr, name):
                                calls.append((f.__name__, *x.shape[:2])) or f(model, x))
        runs = {}
        for m in (mixed, by_length):
            files, result = forward_files(m, tmp_path / m.stem, PipelineConfig())
            assert (len(files), result.failures) == (72, [])
            runs[m.stem] = calls[:], files
            calls.clear()
        # one contiguous run of calls per shape, though the manifest alternates:
        # the encoder frames of each call that starts a run
        frames = [t for _, _, t in runs["mixed"][0]]
        assert [t for i, t in enumerate(frames) if i == 0 or frames[i - 1] != t] == [12, 13]
        # the same chunks and stacks as the trials sorted by length
        assert sorted(runs["mixed"][0]) == sorted(runs["by_length"][0]) == sorted(
            [("encode", 8, 12), ("encode", 4, 12), ("encode", 7, 13), ("encode", 5, 13),
             ("decode_greedy", 8, 12), ("decode_greedy", 4, 12),
             ("decode_greedy", 8, 13), ("decode_greedy", 4, 13)])
        # and the bytes of one input at a time
        cfg, alone = PipelineConfig(), tmp_path / "alone.hrep"
        sources, _ = pipeline._sources(reps.load_manifest(mixed), mixed, cfg)
        want = {}
        for _, keys, _, _ in sources:
            src = reps.read_reps(pipeline._rep_path(tmp_path / "mixed", keys, "input"))
            for level, rep in asr.toy_forward(src, cfg.asr).items():
                reps.write_reps(rep, alone)
                want[pipeline._rep_path(tmp_path, keys, level).name] = alone.read_bytes()
        assert runs["mixed"][1] == runs["by_length"][1] == want

    def test_check_errors_come_before_compute_errors(self, tmp_path, capsys):
        # 'short' is a compute error listed before 'gone', whose input has a
        # truncated header: the header pass runs first, in manifest order
        m = self_manifest(tmp_path / "d")
        cache = tmp_path / "c"
        base = ["--manifest", str(m), "--cache-dir", str(cache)]
        add_processed(m, "short", synth_speechlike(7, n_samples=800), synth_speechlike(7))
        assert cli.main(base + ["featurize"]) == cli.EXIT_OK
        before = set(cache.glob("*.input.hrep"))
        add_processed(m, "gone", synth_speechlike(8), synth_speechlike(9))
        assert cli.main(base + ["featurize"]) == cli.EXIT_OK
        gone = min(set(cache.glob("*.input.hrep")) - before)
        gone.write_bytes(gone.read_bytes()[:10])
        capsys.readouterr()
        assert cli.main(base + ["forward"]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: forward failed for gone: {gone}: truncated header\n")
        assert cli.main(base + ["--lenient", "forward"]) == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"  FAILED gone: {gone}: truncated header"
        assert err[1].startswith("  FAILED short: 3 frames is shorter than the PreNet")
        assert len(err) == 2

    def test_short_clip_fails_alone(self, tmp_path):
        good, full = mixed_length_manifests(tmp_path / "d")
        with pytest.raises(pipeline.PipelineError,
                           match="^forward failed for short: 3 frames is shorter than the PreNet"):
            forward_files(full, tmp_path / "strict", PipelineConfig())
        want, _ = forward_files(good, tmp_path / "good", PipelineConfig())
        got, result = forward_files(full, tmp_path / "lenient", PipelineConfig(lenient=True))
        assert [sid for sid, _ in result.failures] == ["short"]
        assert got == want

    def test_failing_chunk_reruns_its_inputs_one_by_one(self, tmp_path, monkeypatch):
        good, _ = mixed_length_manifests(tmp_path / "d")
        want, _ = forward_files(good, tmp_path / "want", PipelineConfig())
        # the encoder fails on any stack holding a1's processed left channel,
        # which shares its 12-frame chunk with seven other inputs
        cfg = PipelineConfig()
        wav = feats.read_wav(tmp_path / "d" / "audio" / "a1_proc.wav")
        bad = feats.logmel(wav.channel("left"), cfg.feat, wav.sample_rate_hz).data
        bad = asr.shared_model(cfg.asr, bad.shape[1]).prenet(bad.astype(np.float64))
        encode = asr.ToyAsr.encode

        def poisoned(model, h_pre):
            if any(np.array_equal(p, bad) for p in h_pre):
                raise asr.AsrError("poisoned input")
            return encode(model, h_pre)

        monkeypatch.setattr(asr.ToyAsr, "encode", poisoned)
        with pytest.raises(pipeline.PipelineError, match="^forward failed for a1: poisoned input$"):
            forward_files(good, tmp_path / "strict", cfg)
        got, result = forward_files(good, tmp_path / "lenient", PipelineConfig(lenient=True))
        assert result.failures == [("a1", "poisoned input")]
        assert result.written == len(got) == len(want) - 3
        assert got.items() <= want.items()

    def test_failing_decode_stack_reruns_its_inputs_one_by_one(self, tmp_path, monkeypatch):
        good, _ = mixed_length_manifests(tmp_path / "d")
        want, _ = forward_files(good, tmp_path / "want", PipelineConfig())
        # the decoder fails on any stack holding the encoder output of a4's
        # processed left channel, one of four 100-frame inputs decoded as one
        # stack across their four chunks
        cfg = PipelineConfig()
        wav = feats.read_wav(tmp_path / "d" / "audio" / "a4_proc.wav")
        bad = feats.logmel(wav.channel("left"), cfg.feat, wav.sample_rate_hz).data
        model = asr.shared_model(cfg.asr, bad.shape[1])
        bad = model.encode(model.prenet(bad.astype(np.float64))[None])[0]
        decode_greedy = asr.ToyAsr.decode_greedy

        def poisoned(model, enc_out):
            if any(np.array_equal(e, bad) for e in enc_out):
                raise asr.AsrError("poisoned decode")
            return decode_greedy(model, enc_out)

        monkeypatch.setattr(asr.ToyAsr, "decode_greedy", poisoned)
        with pytest.raises(pipeline.PipelineError, match="^forward failed for a4: poisoned decode$"):
            forward_files(good, tmp_path / "strict", cfg)
        got, result = forward_files(good, tmp_path / "lenient", PipelineConfig(lenient=True))
        assert result.failures == [("a4", "poisoned decode")]
        # only a4's left dec is missing; its pre and enc are written and correct
        [missing] = want.keys() - got.keys()
        assert missing.endswith(".dec.hrep")
        assert result.written == len(got) == len(want) - 1
        assert got.items() <= want.items()
        stem = missing.split(".")[0]
        assert {f"{stem}.pre.hrep", f"{stem}.enc.hrep"} <= got.keys()
        # a rerun decodes only that input
        monkeypatch.undo()
        rerun = pipeline.run_forward(good, tmp_path / "lenient", cfg)
        assert (rerun.written, rerun.failures) == (1, [])
        assert (tmp_path / "lenient" / missing).read_bytes() == want[missing]


class TestUnreadableSource:
    """forward and sim report why a source cannot be read, as featurize does."""

    @pytest.fixture
    def moved(self, tmp_path):
        """A smoke set featurized and forwarded, then one processed file moved away."""
        m = build_smoke_dataset(tmp_path / "d", n_signals=4)
        cache = tmp_path / "cache"
        pipeline.run_featurize(m, cache, PipelineConfig())
        pipeline.run_forward(m, cache, PipelineConfig())
        (m.parent / "audio" / "proc01n1.wav").rename(tmp_path / "proc01n1.wav")
        [(signal_id, cause)] = pipeline.run_featurize(m, cache, PipelineConfig(lenient=True)).failures
        assert signal_id == "s01n1"
        assert cause == "[Errno 2] No such file or directory: 'audio/proc01n1.wav'"
        return m, cache, cause

    def test_forward_names_the_cause(self, moved):
        m, cache, cause = moved
        with pytest.raises(pipeline.PipelineError,
                           match=f"^forward failed for s01n1: {re.escape(cause)}$"):
            pipeline.run_forward(m, cache, PipelineConfig())
        res = pipeline.run_forward(m, cache, PipelineConfig(lenient=True))
        assert (res.written, res.failures) == (0, [("s01n1", cause)])

    @pytest.mark.parametrize("level", ["input", "enc"])
    def test_sim_names_the_cause(self, moved, tmp_path, level):
        m, cache, cause = moved
        scores = tmp_path / "scores.csv"
        with pytest.raises(pipeline.PipelineError,
                           match=f"^sim failed for s01n1: {re.escape(cause)}$"):
            pipeline.run_sim(m, cache, scores, PipelineConfig(level=level))
        res = pipeline.run_sim(m, cache, scores, PipelineConfig(level=level, lenient=True))
        assert (res.written, res.failures) == (23, [("s01n1", cause)])

    @pytest.mark.parametrize("level", ["input", "enc"])
    def test_sim_after_a_stored_run_names_the_cause(self, moved, tmp_path, level):
        m, cache, cause = moved
        away, scores = tmp_path / "proc01n1.wav", tmp_path / "scores.csv"
        away.rename(m.parent / "audio" / away.name)
        assert pipeline.run_sim(m, cache, scores, PipelineConfig(level=level)).failures == []
        assert len(list(cache.glob(f"*.{level}.sim.json"))) == 1
        (m.parent / "audio" / away.name).rename(away)
        with pytest.raises(pipeline.PipelineError,
                           match=f"^sim failed for s01n1: {re.escape(cause)}$"):
            pipeline.run_sim(m, cache, scores, PipelineConfig(level=level))
        res = pipeline.run_sim(m, cache, scores, PipelineConfig(level=level, lenient=True))
        assert (res.written, res.skipped, res.failures) == (23, 0, [("s01n1", cause)])

    def test_sim_names_a_representation_never_computed(self, tmp_path):
        m = self_manifest(tmp_path / "d")
        pipeline.run_featurize(m, tmp_path / "c", PipelineConfig())
        with pytest.raises(pipeline.PipelineError, match=(
                f"^sim failed for c0: missing enc representation of "
                f"{re.escape(str(m.parent))}/audio/clean0.wav \\(left\\)$")):
            pipeline.run_sim(m, tmp_path / "c", tmp_path / "s.csv", PipelineConfig(level="enc"))


def counted_sim(monkeypatch, m, cache, scores, cfg):
    """run_sim's result and how many times it called reps.read_reps and
    sim.binaural_similarity."""
    calls = {"read": 0, "scored": 0}
    read_reps, similarity = reps.read_reps, sim.binaural_similarity

    def counting(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    with monkeypatch.context() as mp:
        mp.setattr(reps, "read_reps", counting("read", read_reps))
        mp.setattr(sim, "binaural_similarity", counting("scored", similarity))
        res = pipeline.run_sim(m, cache, scores, cfg)
    return res, calls["read"], calls["scored"]


@contextlib.contextmanager
def opened_paths(monkeypatch):
    """The list of paths opened with open() or Path.open inside the block."""
    opened = []
    real_open, real_path_open = open, Path.open

    def spy(file, *args, **kwargs):
        opened.append(Path(file))
        return real_open(file, *args, **kwargs)

    def path_spy(self, *args, **kwargs):
        opened.append(self)
        return real_path_open(self, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr("builtins.open", spy)
        mp.setattr(Path, "open", path_spy)
        yield opened


def first_pair(pair):
    """A corruption of a score store: its first pair replaced by `pair`."""
    return lambda store: {**store, "scores": [pair, *store["scores"][1:]]}


class TestScoreStore:
    """sim stores a full pass's scores in <cache>/<key>.<level>.sim.json; a rerun
    on the same sources takes them from there."""

    @pytest.fixture
    def filled(self, tmp_path):
        """Three trials, one sharing a reference, featurized and forwarded."""
        m = self_manifest(tmp_path / "d", n=2)
        add_processed(m, "noisy", synth_speechlike(0) + 0.05, synth_speechlike(1))
        cache = tmp_path / "cache"
        pipeline.run_featurize(m, cache, PipelineConfig())
        pipeline.run_forward(m, cache, PipelineConfig())
        return m, cache

    @pytest.mark.parametrize("level", reps.LEVELS)
    def test_rerun_reads_and_scores_nothing(self, filled, tmp_path, monkeypatch, level):
        m, cache = filled
        cfg = PipelineConfig(level=level)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        res, n_read, n_scored = counted_sim(monkeypatch, m, cache, first, cfg)
        assert (res.written, res.skipped, n_read, n_scored) == (3, 0, 6, 3)
        [store] = cache.glob("*.sim.json")
        assert store.name.endswith(f".{level}.sim.json")
        assert len(store.name.split(".")[0]) == 64
        res, n_read, n_scored = counted_sim(monkeypatch, m, cache, second, cfg)
        assert (res.written, res.skipped, res.failures, n_read, n_scored) == (3, 3, [], 0, 0)
        assert second.read_bytes() == first.read_bytes()
        assert list(cache.glob("*.sim.json")) == [store]

    def test_stored_scores_need_only_the_source_files(self, filled, tmp_path, monkeypatch):
        m, cache = filled
        cfg = PipelineConfig(level="enc")
        pipeline.run_sim(m, cache, tmp_path / "first.csv", cfg)
        for rep in cache.glob("*.hrep"):
            rep.unlink()
        res, n_read, _ = counted_sim(monkeypatch, m, cache, tmp_path / "second.csv", cfg)
        assert (res.skipped, n_read) == (3, 0)
        assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()

    @pytest.mark.parametrize("cfg, rewrite", [
        (PipelineConfig(level="pre"), False),
        (PipelineConfig(level="dec", dtw_radius=3), False),
        (PipelineConfig(level="dec"), True),
        (PipelineConfig(level="dec", asr=asr.ToyAsrConfig(seed_tag=1)), False),
    ], ids=["level", "dtw-radius", "source-bytes", "asr-config"])
    def test_a_changed_input_misses_the_store(self, filled, tmp_path, monkeypatch, cfg, rewrite):
        m, cache = filled
        pipeline.run_sim(m, cache, tmp_path / "first.csv", PipelineConfig(level="dec"))
        [stored] = cache.glob("*.sim.json")
        if rewrite:
            x = synth_speechlike(2)
            write_stereo_wav(m.parent / "audio" / "noisy_l.wav", x, x)
        pipeline.run_featurize(m, cache, cfg)
        pipeline.run_forward(m, cache, cfg)
        res, n_read, n_scored = counted_sim(monkeypatch, m, cache, tmp_path / "second.csv", cfg)
        assert res.skipped == 0 and n_read > 0 and n_scored > 0
        assert ({p.name.split(".")[0] for p in cache.glob("*.sim.json")}
                - {stored.name.split(".")[0]})

    @pytest.mark.parametrize("level", ["input", "pre", "enc"])
    def test_the_dtw_radius_keys_only_the_dec_store(self, filled, tmp_path, monkeypatch, level):
        # only dec scores read the radius
        m, cache = filled
        pipeline.run_sim(m, cache, tmp_path / "first.csv", PipelineConfig(level=level))
        [stored] = cache.glob("*.sim.json")
        res, n_read, n_scored = counted_sim(monkeypatch, m, cache, tmp_path / "second.csv",
                                            PipelineConfig(level=level, dtw_radius=3))
        assert (res.skipped, n_read, n_scored) == (3, 0, 0)
        assert list(cache.glob("*.sim.json")) == [stored]
        assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()

    def test_a_lenient_run_with_a_failure_stores_nothing(self, tmp_path):
        m = self_manifest(tmp_path / "d")
        add_processed(m, "uneven", synth_speechlike(7), synth_speechlike(7, n_samples=9600))
        cache, cfg = tmp_path / "cache", PipelineConfig(level="input", lenient=True)
        pipeline.run_featurize(m, cache, cfg)
        res = pipeline.run_sim(m, cache, tmp_path / "scores.csv", cfg)
        assert (res.written, len(res.failures)) == (2, 1)
        assert not list(cache.glob("*.sim.json"))
        res = pipeline.run_sim(m, cache, tmp_path / "scores.csv", cfg)
        assert (res.skipped, len(res.failures)) == (0, 1)

    @pytest.mark.parametrize("corrupt, cause", [
        (lambda store: "not json", "score store {store} is not JSON: "
         "Expecting value: line 1 column 1 (char 0)"),
        (lambda store: [store], "{store} is not a JSON object"),
        (lambda store: {"level": "enc"}, "{store}: missing key 'scores'"),
        (lambda store: {**store, "level": "dec"}, "{store}: level 'dec' is not 'enc'"),
        (lambda store: {**store, "scores": store["scores"][:2]},
         "{store}: 'scores' must be an array of 3 pairs"),
        (first_pair([True, 0]), "{store}: score 0 [True, 0] is not a [number, integer] pair"),
        (first_pair(["0.5", 0]), "{store}: score 0 ['0.5', 0] is not a [number, integer] pair"),
        (first_pair([0.5, 1.0]), "{store}: score 0 [0.5, 1.0] is not a [number, integer] pair"),
        (first_pair([0.5, False]),
         "{store}: score 0 [0.5, False] is not a [number, integer] pair"),
        (first_pair([1.5, 0]), "{store}: similarity 1.5 outside [-1, 1]"),
        (first_pair([0.5, -1]), "{store}: zero_norm_frames -1 is negative"),
    ], ids=["not-json", "not-object", "missing-key", "level", "count", "bool-score",
            "str-score", "float-count", "bool-count", "score", "zero-norm"])
    def test_malformed_store_is_data_error(self, filled, tmp_path, capsys, corrupt, cause):
        m, cache = filled
        base = ["--manifest", str(m), "--cache-dir", str(cache), "--level", "enc", "sim",
                "--scores", str(tmp_path / "scores.csv")]
        assert cli.main(base) == cli.EXIT_OK
        [store] = cache.glob("*.sim.json")
        bad = corrupt(json.loads(store.read_text()))
        store.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        capsys.readouterr()
        assert cli.main(base) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: {cause.format(store=store)}\n"

    def test_a_binary_store_of_earlier_versions_is_never_read(self, filled, tmp_path,
                                                              monkeypatch):
        # before the JSON store, sim kept its scores in <key>.<level>.sim:
        # "HSIM", u8 version 1, u8 level code, u16 0, u32 count, then
        # (f64, i64) little-endian pairs
        m, cache = filled
        scores = tmp_path / "scores.csv"
        base = ["--manifest", str(m), "--cache-dir", str(cache), "--level", "enc", "sim",
                "--scores", str(scores)]
        assert cli.main(base) == cli.EXIT_OK
        first = scores.read_bytes()
        [store] = cache.glob("*.sim.json")
        old = store.with_suffix("")
        pairs = np.array([(0.25, 0)] * 3, dtype=[("value", "<f8"), ("zero_norm_frames", "<i8")])
        old.write_bytes(b"HSIM" + struct.pack("<BBHI", 1, 2, 0, 3) + pairs.tobytes())
        store.unlink()
        with opened_paths(monkeypatch) as opened:
            assert cli.main(base) == cli.EXIT_OK
        # the sources' .hrep files were read, the old store was not
        assert any(p.suffix == ".hrep" for p in opened) and old not in opened
        assert scores.read_bytes() == first
        assert sorted(p.name for p in cache.glob("*.sim*")) == sorted([old.name, store.name])

    def test_failed_scores_write_keeps_the_old_file(self, filled, tmp_path, monkeypatch):
        m, cache = filled
        out = tmp_path / "out"
        out.mkdir()
        scores = out / "scores.csv"
        pipeline.run_sim(m, cache, scores, PipelineConfig(level="enc"))
        scores.write_text("old\n")

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(reps.os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            pipeline.run_sim(m, cache, scores, PipelineConfig(level="enc"))
        assert list(out.iterdir()) == [scores]
        assert scores.read_text() == "old\n"

    @pytest.mark.parametrize("kill_at", [1, 2], ids=["store", "scores"])
    def test_a_killed_sim_reruns_to_a_clean_runs_bytes(self, filled, tmp_path, monkeypatch,
                                                       kill_at):
        # sim renames its score store into place, then scores.csv; SIGKILLed
        # before either rename, it leaves that file's temporary behind. A rerun
        # never opens it and ends with a clean run's bytes, and once the store
        # is in place it scores nothing
        m, cache = filled
        cfg = PipelineConfig(level="dec")
        pipeline.run_sim(m, cache, tmp_path / "clean.csv", cfg)
        [store] = cache.glob("*.sim.json")
        want = store.read_bytes()
        store.unlink()
        scores = tmp_path / "out" / "scores.csv"
        kill_at_rename(kill_at, "pipeline.run_sim(*sys.argv[1:], "
                                "pipeline.PipelineConfig(level='dec'))", m, cache, scores)
        [tmp] = tmp_path.rglob("*.tmp")
        assert tmp.name.rsplit(".", 2)[0] == (store, scores)[kill_at - 1].name
        assert store.exists() == (kill_at == 2) and not scores.exists()
        tmp.write_bytes(b"garbage")
        with opened_paths(monkeypatch) as opened:
            res, n_read, n_scored = counted_sim(monkeypatch, m, cache, scores, cfg)
        assert tmp not in opened and tmp.read_bytes() == b"garbage"
        assert (res.written, res.failures) == (3, [])
        assert (res.skipped, n_read, n_scored) == ((0, 6, 3) if kill_at == 1 else (3, 0, 0))
        assert store.read_bytes() == want
        assert scores.read_bytes() == (tmp_path / "clean.csv").read_bytes()


class TestSimFitEval:
    def test_a_signal_id_starting_with_a_hash_is_fitted_and_evaluated(self, dataset, tmp_path):
        # no line after the header of scores.csv is a comment, so a trial
        # named "#..." counts
        root, manifest = dataset
        entries = json.loads(manifest.read_text())
        for e in entries:
            e.update({k: str(root / e[k]) for k in ("ref_left", "ref_right", "proc_left",
                                                   "proc_right")})
        dev = [e for e in entries if e["split"] == "dev"]
        ev = [e for e in entries if e["split"] == "eval"]
        dev[0]["signal_id"], ev[0]["signal_id"] = "#dev", "#eval"
        m = tmp_path / "manifest.json"
        m.write_text(json.dumps(entries))
        cache, scores, params = tmp_path / "cache", tmp_path / "scores.csv", tmp_path / "p.json"
        cfg = PipelineConfig(level="input")
        pipeline.run_featurize(m, cache, cfg)
        assert pipeline.run_sim(m, cache, scores, cfg).written == len(entries)
        assert scores.read_text().count("\n#") == 2
        pipeline.run_fit(scores, m, params, cfg)
        report = pipeline.run_eval(scores, m, params, tmp_path / "out", cfg)
        assert json.loads(params.read_text())["n_dev"] == len(dev)
        assert report["trial"]["n_trials"] == len(ev)

    def test_identical_signals_score_one(self, tmp_path):
        m = self_manifest(tmp_path / "d")
        cache = tmp_path / "cache"
        cfg = PipelineConfig(level="enc")
        pipeline.run_featurize(m, cache, cfg)
        pipeline.run_forward(m, cache, cfg, levels=("enc",))
        scores_path = tmp_path / "scores.csv"
        pipeline.run_sim(m, cache, scores_path, cfg)
        rows = pipeline.read_scores(scores_path)
        assert len(rows) == 2
        for row in rows:
            assert abs(row["raw_score"] - 1.0) < 1e-9

    def test_shared_sources_score_as_in_fresh_caches(self, tmp_path):
        m = self_manifest(tmp_path / "d", n=3)
        audio = tmp_path / "d" / "audio"
        entries = json.loads(m.read_text())
        # trial 1 hears clean0/clean1 crossed; trial 2 shares clean0's
        # reference and has a noisy processed signal
        entries[1].update(ref_left="audio/clean0.wav", ref_right="audio/clean1.wav",
                          proc_left="audio/clean1.wav", proc_right="audio/clean0.wav")
        x = synth_speechlike(0)
        noisy = x + 0.1 * np.random.default_rng(7).normal(size=len(x))
        write_stereo_wav(audio / "noisy0.wav", noisy, 0.8 * noisy)
        entries[2].update(ref_left="audio/clean0.wav", ref_right="audio/clean0.wav",
                          proc_left="audio/noisy0.wav", proc_right="audio/noisy0.wav")
        m.write_text(json.dumps(entries))

        def scores(manifest, tag):
            cfg = PipelineConfig(level="enc")
            cache, out = tmp_path / f"cache_{tag}", tmp_path / f"scores_{tag}.csv"
            pipeline.run_featurize(manifest, cache, cfg)
            pipeline.run_forward(manifest, cache, cfg)
            pipeline.run_sim(manifest, cache, out, cfg)
            return pipeline.read_scores(out)

        together = scores(m, "all")
        assert [r["signal_id"] for r in together] == ["c0", "c1", "c2"]
        for entry, row in zip(entries, together):
            single = tmp_path / "d" / f"{entry['signal_id']}.json"
            single.write_text(json.dumps([entry]))
            (alone,) = scores(single, entry["signal_id"])
            assert alone == row
        assert together[2]["raw_score"] < together[0]["raw_score"]

    def test_each_distinct_rep_read_and_each_pairing_scored_once(self, tmp_path, monkeypatch):
        m = self_manifest(tmp_path / "d")
        entries = json.loads(m.read_text())
        # a second listener for each signal, a trial crossing clean0 with
        # clean1, and one whose reference is a byte-identical copy of clean0
        entries += [dict(e, listener_id="L9") for e in entries]
        entries.append(dict(entries[0], signal_id="x",
                            proc_left="audio/clean1.wav", proc_right="audio/clean1.wav"))
        audio = tmp_path / "d" / "audio"
        (audio / "copy0.wav").write_bytes((audio / "clean0.wav").read_bytes())
        entries.append(dict(entries[0], signal_id="y",
                            ref_left="audio/copy0.wav", ref_right="audio/copy0.wav"))
        m.write_text(json.dumps(entries))
        cfg = PipelineConfig(level="input")
        pipeline.run_featurize(m, tmp_path / "cache", cfg)
        read, scored = [], []
        read_reps, similarity = reps.read_reps, sim.binaural_similarity
        monkeypatch.setattr(reps, "read_reps", lambda p: read.append(p) or read_reps(p))
        monkeypatch.setattr(sim, "binaural_similarity",
                            lambda *a: scored.append(a) or similarity(*a))
        out = tmp_path / "scores.csv"
        pipeline.run_sim(m, tmp_path / "cache", out, cfg)
        # clean0 and clean1, two channels each; pairings c0 (= y), c1 and x
        assert len(read) == len(set(read)) == 4
        assert len(scored) == 3
        rows = pipeline.read_scores(out)
        assert [(r["signal_id"], r["listener_id"]) for r in rows] == [
            ("c0", "L0"), ("c0", "L9"), ("c1", "L1"), ("c1", "L9"), ("x", "L0"), ("y", "L0")]
        assert rows[0]["raw_score"] == rows[1]["raw_score"] == rows[5]["raw_score"]
        assert rows[4]["raw_score"] < rows[0]["raw_score"]

    def test_sim_frees_each_representation_after_its_last_trial(self, tmp_path, monkeypatch):
        # s00n0-s00n2 share ref00 and s01n0-s01n2 ref01; no processed file is shared
        m = build_smoke_dataset(tmp_path / "d", n_signals=2, snrs=(10.0, 0.0, -5.0))
        cfg = PipelineConfig(level="input")
        pipeline.run_featurize(m, tmp_path / "cache", cfg)
        read, alive, current = [], [], []  # (path, weak reference to what was read from it)
        read_reps, similarity = reps.read_reps, sim.binaural_similarity

        def recording_read(path):
            rep = read_reps(path)
            read.append((path, weakref.ref(rep)))
            return rep

        def checking_similarity(ref, proc, radius):
            gc.collect()
            alive.append({p for p, r in read if r() is not None})
            current.append({p for p, r in read
                            if any(r() is x for x in (ref.left, ref.right, proc.left, proc.right))})
            return similarity(ref, proc, radius)

        monkeypatch.setattr(reps, "read_reps", recording_read)
        monkeypatch.setattr(sim, "binaural_similarity", checking_similarity)
        pipeline.run_sim(m, tmp_path / "cache", tmp_path / "scores.csv", cfg)
        paths = [p for p, _ in read]
        assert len(paths) == len(set(paths)) == 2 * 2 + 6 * 2
        assert [len(c) for c in current] == [4] * 6
        # only the pairing being scored is alive: a reference stays from its
        # first trial to its last, and is gone at the next signal's first
        assert alive == current
        assert current[0] & current[1] == current[1] & current[2] == set(paths[:2])
        assert not current[2] & current[3]

    def test_join_rejects_a_score_row_not_in_the_manifest(self, tmp_path):
        m = self_manifest(tmp_path / "d")
        scores = write_scores(tmp_path / "s.csv", [("c0", "L0", 0.9), ("ghost", "L0", 0.5)])
        (tmp_path / "p.json").write_text('{"a": -4.0, "b": 2.0}')
        with pytest.raises(pipeline.PipelineError, match=r"score row \(ghost, L0\) not in manifest"):
            pipeline.run_fit(scores, m, tmp_path / "fitted.json", PipelineConfig())
        with pytest.raises(pipeline.PipelineError, match=r"score row \(ghost, L0\) not in manifest"):
            pipeline.run_eval(scores, m, tmp_path / "p.json", tmp_path, PipelineConfig())

    def test_join_rejects_an_empty_split(self, tmp_path):
        m = self_manifest(tmp_path / "d")  # every trial is in the eval split
        scores = write_scores(tmp_path / "s.csv", [("c0", "L0", 0.9), ("c1", "L1", 0.5)])
        with pytest.raises(pipeline.PipelineError,
                           match=r"no trials in split\(s\) \('dev',\) to fit on"):
            pipeline.run_fit(scores, m, tmp_path / "fitted.json", PipelineConfig())
        m.write_text(json.dumps([{**e, "split": "dev"} for e in json.loads(m.read_text())]))
        (tmp_path / "p.json").write_text('{"a": -4.0, "b": 2.0}')
        with pytest.raises(pipeline.PipelineError, match="eval split is empty"):
            pipeline.run_eval(scores, m, tmp_path / "p.json", tmp_path, PipelineConfig())

    def test_scores_csv_is_byte_deterministic(self, tmp_path):
        m = self_manifest(tmp_path / "d")
        cfg = PipelineConfig(level="input")
        pipeline.run_featurize(m, tmp_path / "cache", cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        pipeline.run_sim(m, tmp_path / "cache", a, cfg)
        pipeline.run_sim(m, tmp_path / "cache", b, cfg)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("signal_id,")

    def test_fit_drops_unlabelled_dev_rows(self, dataset, tmp_path):
        root, manifest = dataset
        cfg = PipelineConfig(level="enc")
        cache = tmp_path / "cache"
        pipeline.run_featurize(manifest, cache, cfg)
        pipeline.run_forward(manifest, cache, cfg, levels=("enc",))
        scores = tmp_path / "scores.csv"
        pipeline.run_sim(manifest, cache, scores, cfg)
        entries = json.loads(Path(manifest).read_text())
        dev = [e for e in entries if e["split"] == "dev"]
        assert len(dev) == 4
        dev[0]["correctness"] = float("nan")
        m = tmp_path / "one_nan.json"
        m.write_text(json.dumps(entries))
        params_path = tmp_path / "params.json"
        pipeline.run_fit(scores, m, params_path, cfg)
        params = json.loads(params_path.read_text())  # strict JSON: no NaN
        assert (params["n_dev"], params["n_dropped"]) == (3, 1)
        assert all(np.isfinite(params[k]) for k in ("a", "b", "fit_rmse"))
        dev[1]["correctness"] = float("nan")
        m.write_text(json.dumps(entries))
        with pytest.raises(calib.MetricError):
            pipeline.run_fit(scores, m, params_path, cfg)

    def test_fit_never_reads_eval_wcs(self, dataset, tmp_path):
        root, manifest = dataset
        cfg = PipelineConfig(level="enc")
        cache = tmp_path / "cache"
        pipeline.run_featurize(manifest, cache, cfg)
        pipeline.run_forward(manifest, cache, cfg, levels=("enc",))
        scores = tmp_path / "scores.csv"
        pipeline.run_sim(manifest, cache, scores, cfg)
        # poison the eval labels; fitting must still succeed
        entries = json.loads(Path(manifest).read_text())
        for e in entries:
            if e["split"] == "eval":
                e["correctness"] = float("nan")
        poisoned = tmp_path / "poisoned.json"
        poisoned.write_text(json.dumps(entries))
        params_path = tmp_path / "params.json"
        # dev split of this tiny dataset is small but sufficient
        pipeline.run_fit(scores, poisoned, params_path, cfg)
        params = json.loads(params_path.read_text())
        assert set(params) == {"a", "b", "fit_rmse", "n_dev", "n_dropped"}
        assert np.isfinite(params["a"]) and np.isfinite(params["b"])
        assert (params["n_dev"], params["n_dropped"]) == (4, 0)

    def test_eval_reports(self, dataset, tmp_path):
        root, manifest = dataset
        cfg = PipelineConfig(level="enc")
        cache = tmp_path / "cache"
        pipeline.run_featurize(manifest, cache, cfg)
        pipeline.run_forward(manifest, cache, cfg, levels=("enc",))
        scores = tmp_path / "scores.csv"
        pipeline.run_sim(manifest, cache, scores, cfg)
        params_path = tmp_path / "params.json"
        pipeline.run_fit(scores, manifest, params_path, cfg)
        report = pipeline.run_eval(scores, manifest, params_path, tmp_path, cfg)
        assert set(report) >= {"trial", "trial_raw", "listener", "system"}
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report_listener.csv").exists()
        assert (tmp_path / "report_system.csv").exists()
        for g in report["listener"]["groups"]:
            assert {"id", "pred_mean", "truth_mean", "pred_stderr", "truth_stderr"} \
                <= set(g)

    @pytest.fixture(scope="class")
    def eval_run(self, tmp_path_factory):
        """A 12-trial smoke set (6 eval) scored at enc, with fitted params."""
        root = tmp_path_factory.mktemp("eval")
        manifest = build_smoke_dataset(root / "data", n_signals=4, snrs=(np.inf, 0.0, -5.0))
        cfg = PipelineConfig(level="enc")
        pipeline.run_featurize(manifest, root / "cache", cfg)
        pipeline.run_forward(manifest, root / "cache", cfg, levels=("enc",))
        pipeline.run_sim(manifest, root / "cache", root / "scores.csv", cfg)
        pipeline.run_fit(root / "scores.csv", manifest, root / "params.json", cfg)
        return manifest, root / "scores.csv", root / "params.json", cfg

    def test_eval_leaves_unlabelled_trials_out(self, eval_run, tmp_path):
        manifest, scores, params, cfg = eval_run
        entries = json.loads(Path(manifest).read_text())
        unlabelled = {"s02n0", "s03n1"}
        assert sum(e["split"] == "eval" for e in entries) == 6
        for e in entries:
            if e["signal_id"] in unlabelled:
                e["correctness"] = None if e["signal_id"] == "s02n0" else float("nan")
        partly = tmp_path / "partly.json"
        partly.write_text(json.dumps(entries))
        report = pipeline.run_eval(scores, partly, params, tmp_path / "partly", cfg)
        assert report["n_dropped"] == 2
        # the same as evaluating a manifest and scores file without those trials
        only = tmp_path / "labelled.json"
        only.write_text(json.dumps([e for e in entries if e["signal_id"] not in unlabelled]))
        lines = Path(scores).read_text().splitlines(keepends=True)
        kept = tmp_path / "kept.csv"
        kept.write_text("".join(ln for ln in lines if ln.split(",")[0] not in unlabelled))
        expect = pipeline.run_eval(kept, only, params, tmp_path / "labelled", cfg)
        assert expect["n_dropped"] == 0
        assert {**report, "n_dropped": 0} == expect
        for name in ("report_listener.csv", "report_system.csv"):
            assert (tmp_path / "partly" / name).read_bytes() == \
                (tmp_path / "labelled" / name).read_bytes()
        assert json.loads((tmp_path / "partly" / "report.json").read_text())["n_dropped"] == 2

    def test_one_kendall_tau_per_eval_input(self, eval_run, tmp_path, monkeypatch):
        # tau is invariant to the logistic map, so the trial section reuses
        # the raw scores' tau: one each for those, the listener and the system means
        manifest, scores, params, cfg = eval_run
        tau, sizes = calib.kendall_tau, []
        monkeypatch.setattr(calib, "kendall_tau", lambda p, t: sizes.append(len(p)) or tau(p, t))
        report = pipeline.run_eval(scores, manifest, params, tmp_path, cfg)
        assert sizes == [6, len(report["listener"]["groups"]), len(report["system"]["groups"])]
        assert report["trial"]["kt"] == report["trial_raw"]["kt"]

    def test_group_csvs_hold_the_report_groups(self, eval_run, tmp_path):
        manifest, scores, params, cfg = eval_run
        pipeline.run_eval(scores, manifest, params, tmp_path, cfg)
        report = json.loads((tmp_path / "report.json").read_text())
        stats = ["pred_mean", "truth_mean", "pred_stderr", "truth_stderr"]
        for by in ("listener", "system"):
            with (tmp_path / f"report_{by}.csv").open(newline="") as f:
                header, *rows = csv.reader(f)
            assert header == [by, *stats]
            groups = report[by]["groups"]
            assert len(groups) >= 2
            assert rows == [[g["id"], *(f"{g[k]:.12g}" for k in stats)] for g in groups]

    def test_tied_group_means_evaluate_with_null_correlations(self, tmp_path, capsys):
        # both listeners' eval trials average 0.5
        m = self_manifest(tmp_path / "d", n=1)
        (entry,) = json.loads(m.read_text())
        dev = [(0.2, 0.3), (0.4, 0.5), (0.6, 0.7), (0.8, 0.9)]
        ev = [(0.4, 0.35), (0.6, 0.65), (0.6, 0.55), (0.4, 0.45)]
        entries = [dict(entry, signal_id=f"{split}{i}", listener_id=f"L{i % 2}",
                        correctness=wcs, split=split)
                   for split, trials in (("dev", dev), ("eval", ev))
                   for i, (wcs, _) in enumerate(trials)]
        m.write_text(json.dumps(entries))
        scores = write_scores(tmp_path / "s.csv", [(e["signal_id"], e["listener_id"], raw)
                                                   for e, (_, raw) in zip(entries, dev + ev)])
        base = ["--manifest", str(m), "--level", "enc"]
        params, out = str(tmp_path / "p.json"), tmp_path / "out"
        assert cli.main(base + ["fit", "--scores", str(scores), "--params", params]) == cli.EXIT_OK
        assert cli.main(base + ["eval", "--scores", str(scores), "--params", params,
                                "--out-dir", str(out)]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        report = json.loads((out / "report.json").read_text())
        assert [g["truth_mean"] for g in report["listener"]["groups"]] == [0.5, 0.5]
        assert report["listener"]["ncc"] is None and report["listener"]["kt"] is None
        assert report["system"]["ncc"] is None  # one system
        assert all(np.isfinite(report[s][k]) for s in ("trial", "trial_raw")
                   for k in ("rmse", "ncc", "kt"))

    def test_eval_reports_the_level_of_its_scores(self, eval_run, tmp_path, capsys):
        # scores at enc, evaluated under the default configuration's dec level
        manifest, scores, params, _ = eval_run
        out = tmp_path / "out"
        assert cli.main(["--manifest", str(manifest), "eval", "--scores", str(scores),
                         "--params", str(params), "--out-dir", str(out)]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("level: enc\n")
        assert json.loads((out / "report.json").read_text())["level"] == "enc"

    @pytest.mark.parametrize("levels, found", [(("enc", "dec"), "dec, enc"), (("bogus",), "bogus")],
                             ids=["two-levels", "unknown-level"])
    def test_scores_must_hold_one_known_level(self, eval_run, tmp_path, levels, found):
        manifest, scores, params, cfg = eval_run
        header, *rows = Path(scores).read_text().splitlines(keepends=True)
        fields = [row.split(",") for row in rows]
        bad = tmp_path / "bad.csv"
        bad.write_text(header + "".join(",".join([*f[:3], levels[i % len(levels)], *f[4:]])
                                        for i, f in enumerate(fields)))
        cause = f"{bad}: score rows must share one level of input, pre, enc, dec; found {found}"
        with pytest.raises(reps.FormatError, match=re.escape(cause)):
            pipeline.run_fit(bad, manifest, tmp_path / "p.json", cfg)
        with pytest.raises(reps.FormatError, match=re.escape(cause)):
            pipeline.run_eval(bad, manifest, params, tmp_path, cfg)

    def test_duplicate_score_rows_are_rejected(self, eval_run, tmp_path, capsys):
        # a repeated row would weight its trial twice in the fit and the metrics
        manifest, scores, params, cfg = eval_run
        lines = Path(scores).read_text().splitlines(keepends=True)
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("".join(lines + lines[-1:]))
        sid, lid = lines[-1].split(",")[:2]
        cause = f"{repeated}: duplicate score row for (signal_id, listener_id) ('{sid}', '{lid}')"
        with pytest.raises(reps.FormatError, match=re.escape(cause)):
            pipeline.run_fit(repeated, manifest, tmp_path / "p.json", cfg)
        with pytest.raises(reps.FormatError, match=re.escape(cause)):
            pipeline.run_eval(repeated, manifest, params, tmp_path, cfg)
        assert cli.main(["--manifest", str(manifest), "fit", "--scores", str(repeated),
                         "--params", str(tmp_path / "p.json")]) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: {cause}\n"

    @pytest.mark.parametrize("value", ["1", None, [1], True], ids=["str", "null", "array", "bool"])
    @pytest.mark.parametrize("key", ["a", "b"])
    def test_params_must_be_numbers(self, eval_run, tmp_path, capsys, key, value):
        manifest, scores, _, _ = eval_run
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"a": 1, "b": 1, key: value}))
        assert cli.main(["--manifest", str(manifest), "eval", "--scores", str(scores),
                         "--params", str(params), "--out-dir", str(tmp_path / "out")]) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: {params}: {key!r} must be a number\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value, cause", [
        ("NaN", "{path}: {key!r} nan is not finite"),
        ("Infinity", "{path}: {key!r} inf is not finite"),
        ("-Infinity", "{path}: {key!r} -inf is not finite"),
        ("1e400", "{path}: {key!r} inf is not finite"),
        ("1" + "0" * 400, "params {path} holds an integer beyond float range"),
    ], ids=["nan", "inf", "-inf", "overflow", "huge-int"])
    @pytest.mark.parametrize("key", ["a", "b"])
    def test_params_must_be_finite(self, eval_run, tmp_path, capsys, key, value, cause):
        # Python's json reads each of these values as a number, the last one
        # as an int no float can hold
        manifest, scores, _, _ = eval_run
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"a": 1, "b": 1, key: "X"}).replace('"X"', value))
        assert cli.main(["--manifest", str(manifest), "eval", "--scores", str(scores),
                         "--params", str(params), "--out-dir", str(tmp_path / "out")]) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: {cause.format(path=params, key=key)}\n"
        assert not (tmp_path / "out").exists()

    def test_scores_field_over_the_csv_limit_is_data_error(self, eval_run, tmp_path, capsys):
        manifest, scores, _, _ = eval_run
        header, first, *rows = Path(scores).read_text().splitlines(keepends=True)
        fields = first.split(",")
        fields[2] = "x" * (csv.field_size_limit() + 1)
        big = tmp_path / "big.csv"
        big.write_text(header + ",".join(fields) + "".join(rows))
        assert cli.main(["--manifest", str(manifest), "fit", "--scores", str(big),
                         "--params", str(tmp_path / "p.json")]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {big}: field larger than field limit ({csv.field_size_limit()})\n")

    def test_only_lines_before_the_header_are_comments(self, eval_run, tmp_path, capsys):
        # after the header a `#` line is a row, and this one lacks fields
        manifest, scores, _, _ = eval_run
        header, *rows = Path(scores).read_text().splitlines(keepends=True)
        leading, inner = tmp_path / "leading.csv", tmp_path / "inner.csv"
        leading.write_text("# generated\n" + header + "".join(rows))
        inner.write_text(header + "# generated\n" + "".join(rows))
        assert pipeline.read_scores(leading) == pipeline.read_scores(scores)
        assert cli.main(["--manifest", str(manifest), "fit", "--scores", str(inner),
                         "--params", str(tmp_path / "p.json")]) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {inner}: score row 0: ")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("stage", ["fit", "eval"])
    def test_non_finite_raw_score_is_data_error(self, eval_run, tmp_path, stage, value):
        manifest, scores, params, cfg = eval_run
        header, first, *rows = Path(scores).read_text().splitlines(keepends=True)
        fields = first.split(",")
        fields[4] = value
        bad = tmp_path / "bad.csv"
        bad.write_text(header + ",".join(fields) + "".join(rows))
        cause = f"{bad}: score row 0: raw_score {value} is not finite"
        with pytest.raises(reps.FormatError, match=f"^{re.escape(cause)}$"):
            if stage == "fit":
                pipeline.run_fit(bad, manifest, tmp_path / "p.json", cfg)
            else:
                pipeline.run_eval(bad, manifest, params, tmp_path / "out", cfg)

    def test_every_file_written_goes_through_replacing(self, dataset, tmp_path, monkeypatch):
        root, manifest = dataset
        cfg = PipelineConfig(level="enc")
        targets, replacing = set(), reps.replacing
        monkeypatch.setattr(reps, "replacing",
                            lambda path, *a, **kw: targets.add(Path(path)) or replacing(path, *a, **kw))
        cache, scores, params, out = (tmp_path / n for n in ("cache", "s.csv", "p.json", "out"))
        pipeline.run_featurize(manifest, cache, cfg)
        pipeline.run_forward(manifest, cache, cfg, levels=("enc",))
        pipeline.run_sim(manifest, cache, scores, cfg)
        pipeline.run_fit(scores, manifest, params, cfg)
        pipeline.run_eval(scores, manifest, params, out, cfg)
        assert {scores, params, out / "report.json", out / "report_listener.csv",
                out / "report_system.csv"} <= targets
        assert {p for p in tmp_path.rglob("*") if p.is_file()} == targets

    @pytest.mark.parametrize("stage", ["fit", "eval"])
    def test_failed_write_keeps_the_old_outputs(self, eval_run, tmp_path, monkeypatch, stage):
        manifest, scores, params, cfg = eval_run
        olds = [tmp_path / n for n in ("p.json", "report.json", "report_listener.csv",
                                       "report_system.csv")]
        for p in olds:
            p.write_text("old\n")

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(reps.os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            if stage == "fit":
                pipeline.run_fit(scores, manifest, tmp_path / "p.json", cfg)
            else:
                pipeline.run_eval(scores, manifest, params, tmp_path, cfg)
        assert sorted(tmp_path.iterdir()) == sorted(olds)
        assert all(p.read_text() == "old\n" for p in olds)

    def test_eval_without_labels_raises(self, eval_run, tmp_path):
        manifest, scores, params, cfg = eval_run
        entries = json.loads(Path(manifest).read_text())
        for e in entries:
            if e["split"] == "eval":
                e["correctness"] = None
        m = tmp_path / "undisclosed.json"
        m.write_text(json.dumps(entries))
        with pytest.raises(pipeline.PipelineError, match="none of the 6 eval trials is labelled"):
            pipeline.run_eval(scores, m, params, tmp_path, cfg)

    def test_perfect_predictions_metrics(self):
        from hirsim import calib
        truth = np.array([0.1, 0.4, 0.7, 0.9])
        rep = calib.metrics(truth, truth)
        assert rep["rmse"] == 0.0
        assert abs(rep["ncc"] - 1.0) < 1e-12
        assert rep["kt"] == 1.0


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["sim", "--level", "bogus"])
        assert e.value.code == cli.EXIT_USAGE

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["bogus"])
        assert e.value.code == cli.EXIT_USAGE
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_missing_manifest_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["featurize"])
        assert e.value.code == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: --manifest is required for this command\n"

    def test_unexpected_exception_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def crash(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, "run_featurize", crash)
        assert cli.main(["--manifest", str(self_manifest(tmp_path)), "featurize"]) == \
            cli.EXIT_INTERNAL
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_every_hirsim_error_class_is_a_value_error(self):
        # so bad input is an OSError or a ValueError, whichever module raised it
        for module in (asr, calib, feats, pipeline, reps, sim):
            errors = [c for c in vars(module).values() if isinstance(c, type)
                      and issubclass(c, BaseException) and c.__module__ == module.__name__]
            assert errors and all(issubclass(c, ValueError) for c in errors), module.__name__
        assert pipeline.DATA_ERRORS == (OSError, ValueError)

    def test_forward_before_featurize_names_the_missing_input(self, tmp_path, capsys):
        m = self_manifest(tmp_path / "d")
        rc = cli.main(["--manifest", str(m), "--cache-dir", str(tmp_path / "c"), "forward"])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == ("data error: forward failed for c0: missing input "
                                           f"representation of {m.parent}/audio/clean0.wav (left)\n")

    def test_forward_rejects_the_input_level(self, tmp_path, capsys):
        rc = cli.main(["--manifest", str(self_manifest(tmp_path)), "--cache-dir",
                       str(tmp_path / "c"), "forward", "--levels", "enc,input"])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == "data error: forward cannot produce level 'input'\n"

    @pytest.mark.parametrize("levels", ["", " , "])
    def test_forward_rejects_no_level(self, tmp_path, capsys, levels):
        rc = cli.main(["--manifest", str(self_manifest(tmp_path)), "--cache-dir",
                       str(tmp_path / "c"), "forward", "--levels", levels])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: forward needs at least one level of pre, enc, dec\n")

    def test_non_numeric_raw_score_is_data_error(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "s.csv", [("c0", "L0", "high")])
        assert cli.main(["--manifest", str(self_manifest(tmp_path)),
                         "fit", "--scores", str(scores)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {scores}: score row 0: could not convert string to float: 'high'\n")

    def test_manifest_that_is_not_an_array_is_data_error(self, tmp_path, capsys):
        m = tmp_path / "manifest.json"
        m.write_text(json.dumps({"signal_id": "c0"}))
        assert cli.main(["--manifest", str(m), "featurize"]) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: {m}: manifest must be a JSON array\n"

    @pytest.mark.parametrize("corrupt, cause", [
        (lambda raw: raw[:5] + b"\x09" + raw[6:], "invalid level/channel code"),
        (lambda raw: raw[:20], "truncated signal_id"),
        (lambda raw: raw[:18] + b"\xff" + raw[19:], "signal_id is not UTF-8: 'utf-8' codec "
         "can't decode byte 0xff in position 0: invalid start byte"),
        (lambda raw: raw[:-4] + np.array([np.nan], "<f4").tobytes(),
         "non-finite values in payload"),
        # 30 bytes whose header declares T = d = 2**31
        (lambda raw: raw[:8] + struct.pack("<II", 2 ** 31, 2 ** 31) + raw[16:30],
         f"payload has 4 bytes, header declares {2 ** 64}"),
    ], ids=["level-code", "signal-id", "signal-id-utf8", "nan-payload", "huge-payload"])
    def test_malformed_hrep_source_is_data_error(self, tmp_path, capsys, rng, corrupt, cause):
        d = tmp_path / "d"
        d.mkdir()
        src = d / "a.hrep"
        reps.write_reps(reps.RepSequence(rng.normal(size=(4, 3)), "enc", "left", "signal-a"), src)
        src.write_bytes(corrupt(src.read_bytes()))
        m = d / "manifest.json"
        m.write_text(json.dumps([{
            "signal_id": "s0", "listener_id": "L0", "system_id": "hrep", "correctness": 0.5,
            "ref_left": "a.hrep", "ref_right": "a.hrep", "proc_left": "a.hrep",
            "proc_right": "a.hrep", "split": "eval"}]))
        rc = cli.main(["--manifest", str(m), "--cache-dir", str(tmp_path / "c"), "featurize"])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: featurize failed for s0: {src}: {cause}\n"

    def test_explicit_fft_size(self, tmp_path, capsys):
        # 25 ms at 16 kHz is 400 samples, whose default FFT size is 512
        m = self_manifest(tmp_path / "d")

        def featurize(fft_size):
            cfg_path, cache = tmp_path / f"cfg{fft_size}.json", tmp_path / f"c{fft_size}"
            cfg_path.write_text(json.dumps({"feat": {"fft_size": fft_size}}))
            rc = cli.main(["--config", str(cfg_path), "--manifest", str(m),
                           "--cache-dir", str(cache), "featurize"])
            return rc, sorted(r.data.tobytes() for r in map(reps.read_reps, cache.glob("*.hrep")))

        rc, explicit = featurize(512)
        assert rc == cli.EXIT_OK
        assert explicit == featurize(None)[1] and len(explicit) == 4
        capsys.readouterr()
        assert featurize(256) == (cli.EXIT_DATA, [])
        assert capsys.readouterr().err == (
            "data error: featurize failed for c0: fft_size smaller than window\n")

    def test_missing_manifest_is_data_error(self, tmp_path):
        rc = cli.main(["--manifest", str(tmp_path / "none.json"),
                       "--cache-dir", str(tmp_path / "c"), "featurize"])
        assert rc == cli.EXIT_DATA

    def test_end_to_end_subcommands(self, tmp_path, capsys):
        m = self_manifest(tmp_path / "d", n=6)
        entries = json.loads(m.read_text())
        for i, e in enumerate(entries):
            e["split"] = "dev" if i < 3 else "eval"
        # perturb some trials so neither the fit nor the eval metrics are
        # degenerate: give trials 1 and 4 noisy processed files
        for i in (1, 4):
            x = synth_speechlike(i)
            noisy = x + (0.03 + 0.02 * i) * np.sin(np.arange(len(x)) * 1.7)
            p = tmp_path / "d" / "audio" / f"noisy{i}.wav"
            write_stereo_wav(p, noisy, 0.8 * noisy)
            entries[i]["proc_left"] = f"audio/noisy{i}.wav"
            entries[i]["proc_right"] = f"audio/noisy{i}.wav"
            entries[i]["correctness"] = 0.6
        m.write_text(json.dumps(entries))

        base = ["--manifest", str(m), "--cache-dir", str(tmp_path / "cache"),
                "--level", "enc"]
        scores = str(tmp_path / "scores.csv")
        params = str(tmp_path / "params.json")
        assert cli.main(base + ["featurize"]) == 0
        assert cli.main(base + ["forward", "--levels", "enc"]) == 0
        assert cli.main(base + ["sim", "--scores", scores]) == 0
        assert cli.main(base + ["fit", "--scores", scores, "--params", params]) == 0
        assert cli.main(base + ["eval", "--scores", scores, "--params", params,
                                "--out-dir", str(tmp_path)]) == 0
        assert cli.main(["report", "--report", str(tmp_path / "report.json")]) == 0
        out = capsys.readouterr().out
        assert "RMSE" in out

    def test_null_correctness_is_not_an_internal_error(self, tmp_path, capsys):
        m = self_manifest(tmp_path / "d")
        entries = json.loads(m.read_text())
        entries[0]["correctness"] = None
        m.write_text(json.dumps(entries))
        base = ["--manifest", str(m), "--cache-dir", str(tmp_path / "c")]
        assert cli.main(base + ["featurize"]) == cli.EXIT_OK
        entries[1]["correctness"] = "high"
        m.write_text(json.dumps(entries))
        assert cli.main(base + ["featurize"]) == cli.EXIT_DATA
        assert "entry 1: correctness 'high' is not a number" in capsys.readouterr().err

    def test_lenient_sim_prints_each_failure(self, tmp_path, capsys):
        m = self_manifest(tmp_path / "d")
        base = ["--manifest", str(m), "--cache-dir", str(tmp_path / "c"), "--level", "enc"]
        assert cli.main(base + ["featurize"]) == 0
        assert cli.main(base + ["forward", "--levels", "enc"]) == 0
        entries = json.loads(m.read_text())
        entries.append({**entries[0], "signal_id": "lost", "proc_left": "audio/gone.wav",
                        "proc_right": "audio/gone.wav"})
        m.write_text(json.dumps(entries))
        capsys.readouterr()
        scores = str(tmp_path / "scores.csv")
        assert cli.main(base + ["--lenient", "sim", "--scores", scores]) == cli.EXIT_DATA
        out, err = capsys.readouterr()
        assert out == f"sim: 2 trials scored -> {scores}\n"
        assert err.startswith("  FAILED lost: [Errno 2] No such file or directory: ")
        assert err.count("FAILED") == 1

    def test_lenient_sim_carries_on_past_unequal_channel_lengths(self, tmp_path, capsys):
        m = self_manifest(tmp_path / "d")
        add_processed(m, "uneven", synth_speechlike(7), synth_speechlike(7, n_samples=9600))
        base = ["--manifest", str(m), "--cache-dir", str(tmp_path / "c"), "--level", "enc"]
        assert cli.main(base + ["featurize"]) == cli.EXIT_OK
        assert cli.main(base + ["forward", "--levels", "enc"]) == cli.EXIT_OK
        capsys.readouterr()
        scores = tmp_path / "scores.csv"
        assert cli.main(base + ["--lenient", "sim", "--scores", str(scores)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("  FAILED uneven: channel lengths differ at level enc: ")
        assert err.count("FAILED") == 1
        assert [r["signal_id"] for r in pipeline.read_scores(scores)] == ["c0", "c1"]
        assert cli.main(base + ["sim", "--scores", str(scores)]) == cli.EXIT_DATA
        assert "data error: sim failed for uneven: channel lengths differ" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("config, cause", [
        ({"feat": {"nmels": 40}}, "'feat' has unknown key 'nmels'"),
        ({"levle": "enc"}, "has unknown key 'levle'"),
        ([1], "must be a JSON object"),
        ({"dtw_radius": "5"}, ": 'dtw_radius' must be int"),
        ({"feat": {"n_mels": "40"}}, ": 'feat': 'n_mels' must be int"),
    ], ids=["nested-key", "top-level-key", "not-an-object", "str-radius", "nested-str-n-mels"])
    def test_malformed_config_is_data_error(self, tmp_path, capsys, config, cause):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli.main(["--config", str(cfg_path), "--manifest", str(self_manifest(tmp_path)),
                       "--cache-dir", str(tmp_path / "c"), "featurize"])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: config {cfg_path}") and cause in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("config, cause", [
        ({"level": "bogus"}, ": unknown level 'bogus'"),
        ({"asr": {"d_model": 30}}, ": 'asr': d_model must be divisible by n_heads"),
        ({"feat": {"n_mels": -3}}, ": 'feat': n_mels must be positive"),
        ({"asr": {"n_heads": 0}}, ": 'asr': n_heads must be >= 1"),
        ({"asr": {"n_heads": -1}}, ": 'asr': n_heads must be >= 1"),
        ({"asr": {"d_model": 0}}, ": 'asr': d_model must be >= 1"),
        ({"asr": {"max_decode_len": 0}}, ": 'asr': max_decode_len must be >= 1"),
        ({"asr": {"prenet_channels": [0]}}, ": 'asr': every prenet_channels entry must be >= 1"),
        ({"asr": {"n_enc_blocks": -1}}, ": 'asr': n_enc_blocks must be >= 0"),
        ({"feat": {"hop_ms": 0}}, ": 'feat': hop_ms must be positive"),
    ], ids=["level", "asr-d-model", "feat-n-mels", "asr-zero-heads", "asr-negative-heads",
            "asr-zero-d-model", "asr-zero-decode-len", "asr-zero-prenet-channel",
            "asr-negative-enc-blocks", "feat-zero-hop"])
    def test_invalid_config_value_names_the_config(self, tmp_path, capsys, config, cause):
        # an empty manifest: the config is rejected before any work
        cfg_path, m = tmp_path / "cfg.json", tmp_path / "manifest.json"
        cfg_path.write_text(json.dumps(config))
        m.write_text("[]")
        rc = cli.main(["--config", str(cfg_path), "--manifest", str(m),
                       "--cache-dir", str(tmp_path / "c"), "featurize"])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: config {cfg_path}{cause}\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["window_ms", "hop_ms", "fmin_hz", "fmax_hz", "log_floor"])
    def test_non_finite_feat_value_names_the_config(self, tmp_path, capsys, name, value):
        # json.dumps writes NaN, Infinity and -Infinity, which json.loads reads back
        cfg_path, m = tmp_path / "cfg.json", tmp_path / "manifest.json"
        cfg_path.write_text(json.dumps({"feat": {name: value}}))
        m.write_text("[]")
        cause = f": 'feat': {name} must be finite, got {value}"
        with pytest.raises(ValueError, match=re.escape(f"config {cfg_path}{cause}")):
            pipeline.load_config(cfg_path)
        rc = cli.main(["--config", str(cfg_path), "--manifest", str(m),
                       "--cache-dir", str(tmp_path / "c"), "featurize"])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: config {cfg_path}{cause}\n"

    def test_scores_without_raw_score_column_is_data_error(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "s.csv", [("c0", "L0", 0.9)],
                              header="signal_id,listener_id,system_id,level,score,zero_norm_frames")
        assert cli.main(["--manifest", str(self_manifest(tmp_path)),
                         "fit", "--scores", str(scores)]) == cli.EXIT_DATA
        assert f"data error: {scores}: no 'raw_score' column" in capsys.readouterr().err

    def test_params_without_a_is_data_error(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text('{"b": 2.0}')
        base = ["--manifest", str(self_manifest(tmp_path)), "eval", "--scores", "s.csv"]
        assert cli.main(base + ["--params", str(params)]) == cli.EXIT_DATA
        assert f"data error: {params}: missing key 'a'" in capsys.readouterr().err
        # an OSError other than a missing file is a data error too
        assert cli.main(base + ["--params", str(tmp_path)]) == cli.EXIT_DATA
        assert "data error: [Errno 21] Is a directory" in capsys.readouterr().err

    def test_report_section_without_ncc_is_data_error(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"level": "enc", "trial": {"rmse": 0.1, "kt": 0.5}}))
        assert cli.main(["report", "--report", str(report)]) == cli.EXIT_DATA
        assert f"data error: {report}: 'trial': missing key 'ncc'" in capsys.readouterr().err
        report.write_text(json.dumps({"level": "enc", "trial": {"rmse": 0.1, "ncc": None, "kt": 0.5}}))
        assert cli.main(["report", "--report", str(report)]) == cli.EXIT_OK
        assert "NCC nan" in capsys.readouterr().out

    @pytest.mark.parametrize("value, cause", [
        ([1], "{path}: 'trial': 'ncc' must be a number or null"),
        ({"a": 1}, "{path}: 'trial': 'ncc' must be a number or null"),
        (True, "{path}: 'trial': 'ncc' must be a number or null"),
        ("x", "{path}: 'trial': 'ncc' must be a number or null"),
        (10 ** 400, "report {path} holds an integer beyond float range"),
    ], ids=["array", "object", "bool", "string", "huge-int"])
    def test_report_metric_that_is_not_a_number_is_data_error(self, tmp_path, capsys, value,
                                                              cause):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"level": "enc", "trial": {"rmse": 0.1, "ncc": value,
                                                                "kt": 0.5}}))
        assert cli.main(["report", "--report", str(report)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: {cause.format(path=report)}\n"

    @pytest.mark.parametrize("kind, key", [
        ("manifest", "correctness"),
        *[("config", key) for key in ("window_ms", "hop_ms", "fmin_hz", "fmax_hz", "log_floor")],
        ("params", "a"),
        ("report", "ncc"),
        ("score store", "scores"),
    ], ids=lambda v: v.replace(" ", "-"))
    def test_an_integer_no_float_can_hold_is_data_error(self, tmp_path, capsys, kind, key):
        def write_huge(path, obj):
            # the string "X" of obj as 1 followed by 400 zeros
            path.write_text(json.dumps(obj).replace('"X"', "1" + "0" * 400))
            return path

        m = self_manifest(tmp_path / "d")
        scores = tmp_path / "scores.csv"
        base = ["--manifest", str(m), "--cache-dir", str(tmp_path / "cache")]
        sim_argv = base + ["--level", "input", "sim", "--scores", str(scores)]
        if kind == "manifest":
            path = write_huge(m, [{**json.loads(m.read_text())[0], key: "X"}])
            argv = base + ["featurize"]
        elif kind == "config":
            path = write_huge(tmp_path / "cfg.json", {"feat": {key: "X"}})
            argv = base + ["--config", str(path), "featurize"]
        elif kind == "params":
            path = write_huge(tmp_path / "params.json", {"a": "X", "b": 0})
            argv = base + ["eval", "--scores", str(scores), "--params", str(path),
                           "--out-dir", str(tmp_path / "out")]
        elif kind == "report":
            path = write_huge(tmp_path / "report.json",
                              {"level": "enc", "trial": {"rmse": 0.1, key: "X", "kt": 0.5}})
            argv = ["report", "--report", str(path)]
        else:
            assert cli.main(base + ["featurize"]) == cli.main(sim_argv) == cli.EXIT_OK
            [path] = (tmp_path / "cache").glob("*.sim.json")
            store = json.loads(path.read_text())
            store[key][0][0] = "X"
            write_huge(path, store)
            argv = sim_argv
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {kind} {path} holds an integer beyond float range\n")

    # three dev trials, then three eval trials; 1.75, since 2e308 is not a float
    MAGNITUDE_RAW = (1.0, -1.0, 1.5, 0.5, -0.5, 1.75)
    MAGNITUDE_WCS = (0.1, 0.5, 0.9, 0.3, 0.6, 0.8)

    def fit_and_eval(self, tmp_path, scale, params_json=None):
        """`fit` then `eval`, warnings as errors, on trials whose raw scores
        are `scale` times MAGNITUDE_RAW, `params_json` (if given) being the params
        file before `fit`; returns both exit codes and the strict JSON of the
        params and the report, or None for a file not written."""
        m = self_manifest(tmp_path / "d", n=1)
        (entry,) = json.loads(m.read_text())
        m.write_text(json.dumps([
            dict(entry, signal_id=f"s{i}", correctness=wcs, split="dev" if i < 3 else "eval")
            for i, wcs in enumerate(self.MAGNITUDE_WCS)]))
        scores = write_scores(tmp_path / "s.csv", [(f"s{i}", "L0", repr(scale * x))
                                                   for i, x in enumerate(self.MAGNITUDE_RAW)])
        params, out = tmp_path / "p.json", tmp_path / "out"
        if params_json is not None:
            params.write_text(json.dumps(params_json))
        base = ["--manifest", str(m)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            codes = (cli.main(base + ["fit", "--scores", str(scores), "--params", str(params)]),
                     cli.main(base + ["eval", "--scores", str(scores), "--params", str(params),
                                      "--out-dir", str(out)]))

        def strict(path):
            def reject(name):
                raise ValueError(f"{path}: {name} is not JSON")
            return json.loads(path.read_text(), parse_constant=reject) if path.is_file() else None
        return codes, strict(params), strict(out / "report.json")

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e308])
    def test_fit_on_huge_raw_scores(self, tmp_path, capsys, scale):
        # fit and eval take the scores at a power of two that brings them
        # within 2^64, so the slope is the unscaled one divided by `scale`
        codes, params, report = self.fit_and_eval(tmp_path, scale)
        assert codes == (cli.EXIT_OK, cli.EXIT_OK), capsys.readouterr().err
        assert math.isclose(params["a"] * scale, -8.78889544126910, rel_tol=1e-9)
        assert math.isclose(params["b"], 10.9861192219181, rel_tol=1e-9)
        assert math.isclose(params["fit_rmse"], 0.5 / math.sqrt(3.0), rel_tol=1e-6)
        ev = list(zip(self.MAGNITUDE_RAW, self.MAGNITUDE_WCS))[3:]
        rmse = math.sqrt(sum((x - wcs / scale) ** 2 for x, wcs in ev) / 3)
        assert math.isclose(report["trial_raw"]["rmse"] / scale, rmse, rel_tol=1e-12)
        assert math.isclose(report["trial_raw"]["ncc"], 0.45529195897068, rel_tol=1e-12)

    def test_fit_on_tiny_raw_scores(self, tmp_path, capsys):
        # scores below 2^-64 are fitted at a power of two that brings them above it
        codes, params, report = self.fit_and_eval(tmp_path / "tiny", 1e-200)
        assert codes == (cli.EXIT_OK, cli.EXIT_OK), capsys.readouterr().err
        _, unscaled, want = self.fit_and_eval(tmp_path / "unscaled", 1.0)
        assert math.isclose(params["a"] * 1e-200, unscaled["a"], rel_tol=1e-12)
        assert math.isclose(params["b"], unscaled["b"], rel_tol=1e-12)
        assert math.isclose(report["trial_raw"]["ncc"], want["trial_raw"]["ncc"], rel_tol=1e-12)
        assert math.isclose(report["trial"]["rmse"], want["trial"]["rmse"], rel_tol=1e-12)

    def test_fit_refuses_a_slope_beyond_float_range(self, tmp_path, capsys):
        # the slope that scores of about 1e-310 need is about 1e310
        codes, params, _ = self.fit_and_eval(tmp_path, 1e-310)
        assert (codes[0], params) == (cli.EXIT_DATA, None)
        assert capsys.readouterr().err.startswith(
            f"data error: {tmp_path / 's.csv'}: the logistic slope is beyond float range\n")

    def test_fit_and_eval_name_the_scores_of_equal_raw_scores(self, tmp_path, capsys):
        # six equal raw scores: no slope to fit, and no correlation to take
        codes, params, report = self.fit_and_eval(tmp_path, 0.0, {"a": 1.0, "b": 0.0})
        assert (codes, params["a"], report) == ((cli.EXIT_DATA, cli.EXIT_DATA), 1.0, None)
        scores = tmp_path / "s.csv"
        assert capsys.readouterr().err == (
            f"data error: {scores}: raw scores are all identical; fit is degenerate\n"
            f"data error: {scores}: zero variance in pred or truth\n")

    def test_eval_prints_four_significant_digits(self, tmp_path, capsys):
        # the raw-score RMSE of scores near 1e308 is near 1e308 itself
        codes, _, report = self.fit_and_eval(tmp_path, 1e308)
        assert codes == (cli.EXIT_OK, cli.EXIT_OK), capsys.readouterr().err
        out = capsys.readouterr().out
        shown = re.findall(r"(?:RMSE|NCC|KT) (\S+)", out)
        assert len(shown) == 12 and max(map(len, shown)) <= 12, out
        assert f"RMSE {report['trial_raw']['rmse']:#.4g}" in out
        assert 1e307 < report["trial_raw"]["rmse"] < 1e309

    def test_config_value_types(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        for bad, cause in [({"lenient": 1}, "'lenient' must be bool"),
                           ({"feat": {"fmax_hz": "8k"}}, "'fmax_hz' must be float | None"),
                           ({"asr": {"prenet_channels": [4, 8.0]}},
                            "'prenet_channels' must be tuple[int, ...]")]:
            cfg_path.write_text(json.dumps(bad))
            with pytest.raises(ValueError, match=re.escape(cause)):
                pipeline.load_config(cfg_path)
        cfg_path.write_text(json.dumps({"feat": {"window_ms": 25, "fmax_hz": None},
                                        "asr": {"prenet_channels": [2, 4]}}))
        cfg = pipeline.load_config(cfg_path)
        assert cfg.feat.window_ms == 25 and cfg.feat.fmax_hz is None
        assert cfg.asr.prenet_channels == (2, 4)

    @pytest.mark.parametrize("kind", ["config", "params", "report", "manifest"])
    def test_non_json_input_file_names_itself(self, tmp_path, capsys, kind):
        bad = tmp_path / f"{kind}.json"
        bad.write_text("not json")
        manifest = str(bad if kind == "manifest" else self_manifest(tmp_path))
        argv = {"config": ["--config", str(bad), "--manifest", manifest, "featurize"],
                "params": ["--manifest", manifest, "eval", "--params", str(bad)],
                "report": ["report", "--report", str(bad)],
                "manifest": ["--manifest", manifest, "featurize"]}[kind]
        assert cli.main(argv) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {kind} {bad} is not JSON: Expecting value: line 1 column 1 (char 0)\n")

    def test_importing_the_package_loads_no_scipy(self):
        code = ("import sys, hirsim, hirsim.pipeline, hirsim.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(pipeline.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out == "[]\n"

    def test_smoke_script_runs_every_stage_without_scipy(self):
        # tests/cli_smoke.py is the numpy-only CI job's end-to-end check
        code = ("import runpy, sys\n"
                "class NoScipy:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        if name.split('.')[0] == 'scipy':\n"
                "            raise ImportError(f'no module named {name!r}')\n"
                "sys.meta_path.insert(0, NoScipy())\n"
                "runpy.run_path(sys.argv[1], run_name='__main__')\n")
        src, script = str(Path(pipeline.__file__).parents[1]), Path(__file__).with_name("cli_smoke.py")
        run = subprocess.run([sys.executable, "-c", code, str(script)], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        assert run.stdout.count("level: dec") == 2

    def test_flags_override_the_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dtw_radius": 5, "lenient": False,
                                        "fit_split": "train_all"}))

        def config(*flags):
            args = cli.build_parser().parse_args(["--config", str(cfg_path), *flags, "featurize"])
            cfg = cli._make_config(args)
            return cfg.dtw_radius, cfg.lenient, cfg.fit_split, cfg.wcs_percent

        # a radius of 0 is falsy, and still a given flag
        assert config("--dtw-radius", "0", "--lenient") == (0, True, "train_all", False)
        assert config() == (5, False, "train_all", False)
        # an absent store_true flag leaves a true config value alone
        cfg_path.write_text(json.dumps({"lenient": True, "wcs_percent": True}))
        assert config() == (sim.DEFAULT_RADIUS, True, "dev", True)

    def test_config_file_loading(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "feat": {"n_mels": 40}, "asr": {"seed_tag": 3, "d_model": 32},
            "level": "enc", "dtw_radius": 5,
        }))
        cfg = pipeline.load_config(cfg_path)
        assert cfg.feat.n_mels == 40
        assert cfg.asr.seed_tag == 3
        assert cfg.level == "enc"
        assert cfg.dtw_radius == 5

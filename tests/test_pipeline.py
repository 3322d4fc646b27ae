import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hirsim import calib, cli, pipeline, reps, sim
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

    def test_level_filter(self, dataset, tmp_path):
        root, manifest = dataset
        cfg = PipelineConfig()
        cache = tmp_path / "cache"
        pipeline.run_featurize(manifest, cache, cfg)
        pipeline.run_forward(manifest, cache, cfg, levels=("enc",))
        assert len(list(cache.glob("*.enc.hrep"))) == 12
        assert not list(cache.glob("*.pre.hrep"))
        assert not list(cache.glob("*.dec.hrep"))

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


class TestSimFitEval:
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
        rep = calib.trial_report(truth, truth)
        assert rep.rmse == 0.0
        assert abs(rep.ncc - 1.0) < 1e-12
        assert rep.kt == 1.0


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["sim", "--level", "bogus"])
        assert e.value.code == cli.EXIT_USAGE

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
        assert err.startswith("  FAILED lost: missing enc representation of ")
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

import json
from pathlib import Path

import numpy as np
import pytest

from hirsim import calib, cli, pipeline, reps
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
        assert params["n_dev"] == 3
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
        assert set(params) == {"a", "b", "fit_rmse", "n_dev"}
        assert np.isfinite(params["a"]) and np.isfinite(params["b"])

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

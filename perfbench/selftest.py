"""Self-tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

They check the generator, the span arithmetic, the output checks, the metric
names against BENCHMARK.json, and make one short run of each workload on a
reduced dataset (about a minute in all).
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import re
import sys
import tempfile
import types
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class GeneratorTest(unittest.TestCase):
    def build(self, w, seed):
        d = Path(tempfile.mkdtemp(dir=self.tmp))
        workloads.build_dataset(d, w, seed)
        return _files(d)

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def test_same_seed_same_inputs_other_seed_other_audio(self):
        small = {"shared": workloads.AudioWorkload(scenes=2, listeners_per_signal=2, clip_s=0.5),
                 "calib": workloads.CalibWorkload(scenes=2, systems=3, listeners=4,
                                                  listeners_per_signal=2)}
        for label, w in small.items():
            with self.subTest(label):
                a, b, c = self.build(w, 5), self.build(w, 5), self.build(w, 6)
                self.assertEqual(a, b)
                self.assertEqual(a.keys(), c.keys())
                changed = [k for k in a if a[k] != c[k]]
                self.assertTrue(changed)
                if label == "shared":
                    self.assertTrue(any(k.startswith("audio/proc") for k in changed))

    def test_corpus_seeds(self):
        self.assertEqual(workloads.corpus_seed(0, 0), 0)
        n = workloads.CORPORA_PER_SEED
        seeds = {workloads.corpus_seed(s, c) for s in range(4) for c in range(n)}
        self.assertEqual(len(seeds), 4 * n)
        with self.assertRaises(ValueError):
            workloads.corpus_seed(1, n)

    def test_trial_counts(self):
        self.assertEqual(workloads.WORKLOADS["shared_short"].n_trials, 120)
        self.assertEqual(workloads.WORKLOADS["unique_long"].n_trials, 24)
        self.assertEqual(workloads.WORKLOADS["calib_large"].n_trials, 10_000)
        self.assertEqual(workloads.WORKLOADS["unique_long"].frames_per_channel, 398)
        for name, w in workloads.WORKLOADS.items():
            with self.subTest(name):
                d = Path(tempfile.mkdtemp(dir=self.tmp))
                entries = json.loads(workloads.build_dataset(d, w, 1).read_text())
                self.assertEqual(len(entries), w.n_trials)
                self.assertEqual(len({(e["signal_id"], e["listener_id"]) for e in entries}),
                                 w.n_trials)

    def test_seed0_matches_smoke_dataset_of_the_test_suite(self):
        conftest = HERE.parent / "tests" / "conftest.py"
        if not conftest.is_file() or importlib.util.find_spec("pytest") is None:
            self.skipTest("tests/conftest.py or pytest not available")
        spec = importlib.util.spec_from_file_location("_smoke_conftest", conftest)
        module = importlib.util.module_from_spec(spec)
        with mock.patch.object(sys, "path", [str(HERE.parent / "src"), *sys.path]):
            spec.loader.exec_module(module)
        smoke = Path(self.tmp) / "smoke"
        module.build_smoke_dataset(smoke, n_signals=10)
        ours = Path(self.tmp) / "ours"
        w = workloads.AudioWorkload(scenes=10, listeners_per_signal=1, clip_s=0.5)
        workloads.build_dataset(ours, w, 0)
        self.assertEqual(_files(smoke / "audio"), _files(ours / "audio"))
        self.assertEqual(json.loads((smoke / "manifest.json").read_text()),
                         json.loads((ours / "manifest.json").read_text()))


class SpanTest(unittest.TestCase):
    def test_self_time_of_a_hand_built_tree(self):
        S = tracing.Span
        spans = [S("root", 0.0, 10.0, None), S("a", 1.0, 4.0, 0), S("a1", 1.5, 2.5, 1),
                 S("b", 5.0, 9.0, 0), S("b1", 5.0, 6.0, 3), S("b2", 7.0, 8.5, 3)]
        got = tracing.self_times(spans)
        want = [10 - 3 - 4, 3 - 1, 1, 4 - 1 - 1.5, 1, 1.5]
        for g, w in zip(got, want):
            self.assertAlmostEqual(g, w)

    def test_tracer_records_nesting_counts_and_absent_targets(self):
        mod = types.ModuleType("pbfake")
        exec("def inner(x):\n    return x + 1\n"
             "def outer(x):\n    return inner(x) * 2\n", mod.__dict__)
        ticks = iter(range(100))
        probes = {"pbfake.outer": None,
                  "pbfake.inner": lambda t, a, ret: t.count("inner.x", a["x"]),
                  "pbfake.gone": None, "pbfake.outer.attr": None}
        with mock.patch.dict(sys.modules, {"pbfake": mod}):
            t = tracing.Tracer(clock=lambda: float(next(ticks)))
            t.install(probes)
            self.assertEqual(mod.outer(3), 8)
            t.uninstall()
            self.assertEqual(mod.outer(3), 8)
        self.assertEqual(t.absent, ["pbfake.gone", "pbfake.outer.attr"])
        self.assertEqual([(s.name, s.start, s.end, s.parent) for s in t.spans],
                         [("outer", 0.0, 3.0, None), ("inner", 1.0, 2.0, 0)])
        m = t.metrics()
        self.assertEqual((m["outer.s"], m["outer.self_s"], m["inner.s"]), (3.0, 2.0, 1.0))
        self.assertEqual((m["outer.calls"], m["inner.x"]), (1, 3))

    def test_probe_names(self):
        self.assertEqual(tracing.span_name("hirsim.asr.ToyAsr.__init__"), "asr.ToyAsr.init")


class CheckTest(unittest.TestCase):
    def test_checks_flag_bad_scores_and_non_finite_outputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            data, out = Path(tmp) / "data", Path(tmp) / "out"
            trials = {("s1", "L1"), ("s2", "L1"), ("s3", "L1")}
            for lv in run.LEVELS:
                rows = {"input": ["s1,L1,x,input,0.5,0", "s2,L1,x,input,1.5,0",
                                  "s3,L1,x,input,0.2,0"]}.get(lv, [
                    f"s{i},L1,x,{lv},0.5,0" for i in (1, 2, 3)])
                if lv == "pre":
                    rows = rows[:2]
                data.mkdir(exist_ok=True)
                (data / f"scores_{lv}.csv").write_text(
                    "# generated now\n" + workloads.SCORES_HEADER + "\n".join(rows) + "\n")
                (out / f"out_{lv}").mkdir(parents=True)
                a = "NaN" if lv == "enc" else "1.0"
                (out / f"params_{lv}.json").write_text(f'{{"a": {a}, "b": 0, "fit_rmse": 0.1}}')
                (out / f"out_{lv}" / "report.json").write_text(
                    '{"trial": {"rmse": 0.1, "ncc": 0.9, "kt": 0.5}}')
            bad, problems = run.check_pass("calib", data, out, trials)
            # s2 out of range at input, s3 missing at pre, NaN params at enc
            self.assertEqual(bad, {("s2", "L1"), ("s3", "L1")})
            self.assertEqual(problems, ["enc/params_enc.json: non-finite a, b, fit_rmse"])
            (out / "out_dec" / "report.json").unlink()
            self.assertEqual(len(run.check_pass("calib", data, out, trials)[1]), 2)


class SpeedFactorTest(unittest.TestCase):
    def test_factor_scales_to_reference_speed(self):
        ref = run.REF_PROBE_S
        flat = [(float(t), ref) for t in range(20)]
        self.assertAlmostEqual(run.speed_factor(flat, 3.0, 9.0), 1.0)
        slow = [(float(t), 2 * ref if 5 <= t <= 14 else ref) for t in range(20)]
        # enough samples inside the interval: only they count
        self.assertAlmostEqual(run.speed_factor(slow, 5.0, 14.0), 2.0 ** -run.SPEED_EXPONENT)
        # too few inside: the nearest samples count, here 4 slow and 4 fast
        self.assertAlmostEqual(run.speed_factor(slow, 14.0, 15.0, at_least=8),
                               1.5 ** -run.SPEED_EXPONENT)
        r = {"calls": [("a", 9.0, 5.0), ("b", 1.0, 16.0)]}  # name, seconds, start
        self.assertAlmostEqual(run.scaled_total(slow + flat[15:], r),
                               9.0 * 2.0 ** -run.SPEED_EXPONENT + 1.0)


class MetricNamesTest(unittest.TestCase):
    def test_names_are_valid_and_unique(self):
        names = [n for n, _, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(NAME.fullmatch(n), n)
        self.assertEqual(len(run.END_TO_END), 11)
        self.assertLessEqual(len(run.PER_LAYER), 128)

    def test_benchmark_json_agrees(self):
        path = HERE.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(path.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         [tuple(m) for m in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [tuple(m) for m in run.PER_LAYER])
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


SMALL = {
    # two eval scenes, so listener means differ
    "shared_short": workloads.AudioWorkload(scenes=4, listeners_per_signal=2, clip_s=0.5),
    "unique_long": workloads.AudioWorkload(scenes=8, listeners_per_signal=1, clip_s=1.0,
                                           unique=True),
    "calib_large": workloads.CalibWorkload(scenes=4, systems=5, listeners=10,
                                           listeners_per_signal=2),
}


def _run(argv) -> tuple[int, dict]:
    buf = io.StringIO()
    with mock.patch.dict(workloads.WORKLOADS, SMALL), contextlib.redirect_stdout(buf):
        code = run.main(argv)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


class SmokeRunTest(unittest.TestCase):
    def test_each_workload_untraced(self):
        for name in SMALL:
            with self.subTest(name):
                code, result = _run(["--workload", name, "--seed", "3", "--seconds", "0"])
                self.assertEqual(code, 0, result)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["metrics"]), [n for n, _, _ in run.END_TO_END])
                for m in result["metrics"].values():
                    self.assertTrue(math.isfinite(m["value"]) and m["value"] != 0)

    def test_traced_run_reports_every_layer_metric(self):
        code, result = _run(["--workload", "shared_short", "--seed", "3", "--seconds", "0",
                             "--trace", "1"])
        self.assertEqual(code, 0, result)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(list(m), [n for n, _, _ in run.PER_LAYER])
        self.assertEqual(m["cold.feats.logmel.useful_ratio"], 0.5)
        self.assertEqual(m["cold.sim.binaural_similarity.useful_ratio"], 0.5)
        self.assertEqual(m["cold.feats.logmel.calls"], 4 * 6 * 2 * 2)
        self.assertEqual(m["warm.feats.logmel.calls"], 0)
        self.assertEqual(m["warm.pipeline.run_forward.skipped"], m["cold.pipeline.run_forward.written"])


if __name__ == "__main__":
    unittest.main()

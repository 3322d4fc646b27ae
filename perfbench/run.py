#!/usr/bin/env python3
"""hirsim benchmark: cold and warm pipeline passes on seeded synthetic data.

    python3 perfbench/run.py --workload shared_short --seed 0 --seconds 40 --trace 0

Run from the root of a hirsim checkout. The benchmark writes its datasets,
caches and outputs under ``.perfbench_work/<workload>/`` and starts one fresh
Python process per pass (see ``passrun.py``), one after another: a closed loop
with one client. A cycle is a cold pass on an empty cache and a warm pass that
reuses it, on a corpus of its own generated from the seed; cycles repeat while
the next is expected to end within ``--seconds``. Times are scaled to a
reference host speed, sampled beside the passes by ``speedprobe.py``;
``setup_s`` and ``cold_s`` are medians over the run, ``warm_s`` is a mean over
its corpora.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs an untraced
cold pass, then a traced cold and a traced warm pass, and prints the
per-layer metrics of the traced passes.
Every pass's outputs are checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the
exit code is 1 when any check failed. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
LEVELS = ("input", "pre", "enc", "dec")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# a run makes at least this many cycles, and its quality metrics are the mean
# over their corpora: an audio corpus has only 12 to 60 eval trials, so the
# metrics of one move by up to 20% from seed to seed
QUALITY_CORPORA = {"audio": 3, "calib": 1}
# host speed correction: times are scaled to a CPU on which speedprobe.probe()
# takes REF_PROBE_S, judged from at least PROBE_SAMPLES probe samples. Pass
# times vary as the probe time to the power SPEED_EXPONENT (the slope of log
# pass time against log probe time, measured over many passes; see README.md)
REF_PROBE_S = 1.5e-3
PROBE_SAMPLES = 8
SPEED_EXPONENT = 1.2

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cold_s", "s", "lower"),
    ("warm_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
    *[(f"ncc.{lv}", "corr", "higher") for lv in LEVELS],
    ("kt.dec", "corr", "higher"),
    ("rmse.dec", "wcs", "lower"),
]

LAYER = [
    ("feats.read_wav.calls", "count", "lower"),
    ("feats.read_wav.s", "s", "lower"),
    ("feats.logmel.calls", "count", "lower"),
    ("feats.logmel.s", "s", "lower"),
    ("feats.logmel.frames", "count", "lower"),
    ("feats.logmel.useful_ratio", "ratio", "higher"),
    ("feats.mel_filterbank.calls", "count", "lower"),
    ("feats.mel_filterbank.s", "s", "lower"),
    ("asr.toy_forward.calls", "count", "lower"),
    ("asr.toy_forward.s", "s", "lower"),
    ("asr.toy_forward.useful_ratio", "ratio", "higher"),
    ("asr.ToyAsr.init.calls", "count", "lower"),
    ("asr.ToyAsr.init.s", "s", "lower"),
    ("asr.ToyAsr.prenet.s", "s", "lower"),
    ("asr.ToyAsr.encode.s", "s", "lower"),
    ("asr.ToyAsr.decode_greedy.s", "s", "lower"),
    ("asr.decode.steps", "count", "lower"),
    ("asr.encoder_block_forward.calls", "count", "lower"),
    ("asr.encoder_block_forward.s", "s", "lower"),
    ("asr.decoder_block_forward.calls", "count", "lower"),
    ("asr.decoder_block_forward.s", "s", "lower"),
    ("asr.decoder_block_forward.rows", "count", "lower"),
    ("reps.load_manifest.calls", "count", "lower"),
    ("reps.load_manifest.s", "s", "lower"),
    ("reps.read_reps.calls", "count", "lower"),
    ("reps.read_reps.s", "s", "lower"),
    ("reps.read_reps.bytes", "B", "lower"),
    ("reps.write_reps.calls", "count", "lower"),
    ("reps.write_reps.s", "s", "lower"),
    ("reps.write_reps.bytes", "B", "lower"),
    ("sim.binaural_similarity.calls", "count", "lower"),
    ("sim.binaural_similarity.s", "s", "lower"),
    ("sim.binaural_similarity.useful_ratio", "ratio", "higher"),
    ("sim.framewise_binaural_sim.s", "s", "lower"),
    ("sim.binaural_warped_sim.s", "s", "lower"),
    ("sim.dtw_path_fast.calls", "count", "lower"),
    ("sim.dtw_path_fast.s", "s", "lower"),
    ("sim.dtw.cells", "count", "lower"),
    ("calib.fit_logistic.calls", "count", "lower"),
    ("calib.fit_logistic.s", "s", "lower"),
    ("calib.kendall_tau.calls", "count", "lower"),
    ("calib.kendall_tau.s", "s", "lower"),
    ("calib.kendall_tau.max_n", "count", "lower"),
    ("calib.group_aggregate.s", "s", "lower"),
    *[(f"pipeline.{stage}.{m}", unit, "lower")
      for stage in ("run_featurize", "run_forward", "run_sim", "run_fit", "run_eval")
      for m, unit in (("s", "s"), ("self_s", "s"))],
    ("pipeline.run_featurize.written", "count", "lower"),
    ("pipeline.run_featurize.skipped", "count", "higher"),
    ("pipeline.run_forward.written", "count", "lower"),
    ("pipeline.run_forward.skipped", "count", "higher"),
    ("pipeline.cache.files", "count", "lower"),
    ("pipeline.cache.bytes", "B", "lower"),
]

PER_LAYER = [(f"{p}.{name}", unit, better) for p in ("cold", "warm") for name, unit, better in LAYER]
PER_LAYER.append(("trace.overhead_s", "s", "lower"))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_info() -> dict | None:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def steal_s() -> float | None:
    """CPU time taken from this machine's virtual CPUs by the hypervisor so far,
    summed over CPUs; None where the kernel does not report it."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def bench_cpu() -> int:
    """The CPU that passes and the speed probe are pinned to."""
    return max(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # a pass is pinned to one CPU, so BLAS gets one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def pinned(cpu: int):
    """preexec_fn that pins a child process to ``cpu`` before it starts."""
    return lambda: os.sched_setaffinity(0, {cpu})


class SpeedProbe:
    """The ``speedprobe.py`` process, pinned to the passes' CPU while they run;
    ``stop()`` ends it and returns its samples."""

    def __init__(self, cpu: int, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "speedprobe.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     preexec_fn=pinned(cpu))

    def stop(self) -> list[tuple[float, float]]:
        try:
            out, _ = self.proc.communicate(timeout=10)
            return [tuple(x) for x in json.loads(out)] if self.proc.returncode == 0 else []
        except (subprocess.TimeoutExpired, ValueError):
            return []
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def speed_factor(samples: list[tuple[float, float]], a: float, b: float,
                 at_least: int = PROBE_SAMPLES) -> float:
    """(REF_PROBE_S / mean probe time) ** SPEED_EXPONENT over the probe
    samples in [a, b], or over the ``at_least`` samples nearest to it when
    fewer fall inside. Multiplying a time measured in [a, b] by it gives the
    time on a CPU of reference speed."""
    near = sorted(samples, key=lambda s: max(a - s[0], s[0] - b, 0.0))
    inside = [v for t, v in near if a <= t <= b]
    used = inside if len(inside) >= at_least else [v for _, v in near[:at_least]]
    return (REF_PROBE_S / statistics.fmean(used)) ** SPEED_EXPONENT


def read_outputs(out: Path) -> dict[str, str]:
    """Every output file of a pass, without the run-dependent timestamp line."""
    files = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "spans.json":
            lines = p.read_text().splitlines(keepends=True)
            files[str(p.relative_to(out))] = "".join(
                ln for ln in lines if not ln.startswith("# generated"))
    return files


def _finite(d: dict, keys) -> bool:
    return all(isinstance(d.get(k), (int, float)) and math.isfinite(d[k]) for k in keys)


def check_pass(kind: str, data: Path, out: Path, trials: set) -> tuple[set, list[str]]:
    """(failed trials, failed file checks) of one pass's outputs. A trial fails
    when a level's scores file lacks it or gives it a raw score that is not
    finite or lies outside [-1, 1]; a params or report file fails when it is
    missing or holds non-finite trial metrics."""
    bad: set = set()
    problems: list[str] = []
    for lv in LEVELS:
        scores = (out if kind == "audio" else data) / f"scores_{lv}.csv"
        params, report = out / f"params_{lv}.json", out / f"out_{lv}" / "report.json"
        try:
            with scores.open(newline="") as f:
                rows = list(csv.DictReader(ln for ln in f if not ln.startswith("#")))
            seen = set()
            for row in rows:
                key = (row["signal_id"], row["listener_id"])
                seen.add(key)
                raw = float(row["raw_score"])
                if not (math.isfinite(raw) and -1.0 <= raw <= 1.0):
                    bad.add(key)
            bad |= trials - seen
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"{scores.name}: {type(e).__name__}: {e}")
            bad |= trials
        for path, section, keys in ((params, None, ("a", "b", "fit_rmse")),
                                    (report, "trial", ("rmse", "ncc", "kt"))):
            try:
                d = json.loads(path.read_text())
                if not _finite(d[section] if section else d, keys):
                    problems.append(f"{lv}/{path.name}: non-finite {', '.join(keys)}")
            except (OSError, ValueError, KeyError) as e:
                problems.append(f"{lv}/{path.name}: {type(e).__name__}: {e}")
    return bad, problems


def manifest_trials(data: Path) -> set:
    return {(e["signal_id"], e["listener_id"])
            for e in json.loads((data / "manifest.json").read_text())}


def dataset_record(w, gen_s: float) -> dict:
    rec = {"kind": type(w).__name__, **vars(w),
           "n_trials": w.n_trials, "gen_s": gen_s}
    if hasattr(w, "frames_per_channel"):
        rec["frames_per_channel"] = w.frames_per_channel
    return rec


class Corpus:
    """One generated dataset of the run's workload, with the outputs of the
    first pass on it, which every later pass on it must reproduce."""

    def __init__(self, data: Path):
        self.data = data
        self.trials = manifest_trials(data)
        self.reference: dict | None = None


class Run:
    """One benchmark run: generates corpora of one workload, starts pass
    processes one at a time against them, checks their outputs and counts
    failures."""

    def __init__(self, w, seed: int, work: Path, deadline: float):
        self.w, self.seed, self.work, self.deadline = w, seed, work, deadline
        self.kind = "audio" if isinstance(w, workloads.AudioWorkload) else "calib"
        self.env = child_env()
        self.cpu = bench_cpu()
        self.corpora: list[Corpus] = []
        self.gen_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def corpus(self, c: int) -> Corpus:
        """Corpus ``c`` of the run, generated on first use."""
        while len(self.corpora) <= c:
            t = time.monotonic()
            n = len(self.corpora)
            data = self.work / f"data{n}"
            workloads.build_dataset(data, self.w, workloads.corpus_seed(self.seed, n))
            self.corpora.append(Corpus(data))
            self.gen_s += time.monotonic() - t
        return self.corpora[c]

    def spawn(self, corpus: Corpus, cache: Path, out: Path, trace: bool) -> dict:
        """Start one pass process and wait for its result."""
        result = out.parent / f"{out.name}.json"
        cmd = [sys.executable, str(HERE / "passrun.py"), str(result), self.kind,
               str(corpus.data), str(cache), str(out), "1" if trace else "0"]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  preexec_fn=pinned(self.cpu),
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return {"error": "pass did not finish before the run's deadline"}
        if not result.is_file():
            return {"error": f"pass exited {proc.returncode}: {proc.stderr[-2000:]}"}
        r = json.loads(result.read_text())
        if not Path(r["hirsim_file"]).resolve().is_relative_to(SRC.resolve()):
            r["error"] = f"imported hirsim from {r['hirsim_file']}, not from {SRC}"
        return r

    def one(self, label: str, corpus: Corpus, cache: Path, out: Path,
            trace: bool = False) -> dict:
        r = self.spawn(corpus, cache, out, trace)
        self.attempted += len(corpus.trials)
        if "error" in r:
            self.failed += len(corpus.trials)
            self.problems.append(f"{label}: {r['error']}")
            return r
        bad, problems = check_pass(self.kind, corpus.data, out, corpus.trials)
        outputs = read_outputs(out)
        if corpus.reference is None:
            corpus.reference = outputs
        problems += [f"{name} differs from the first pass on this corpus"
                     for name in sorted(set(corpus.reference) | set(outputs))
                     if corpus.reference.get(name) != outputs.get(name)]
        self.failed += len(bad) + len(problems) + r["stage_failures"]
        if bad:
            problems.append(f"{len(bad)} trials unscored or scored outside [-1, 1]")
        if r["stage_failures"]:
            problems.append(f"{r['stage_failures']} stage failures")
        self.problems += [f"{label}: {p}" for p in problems]
        return r

    def quality(self) -> dict:
        """Trial-level metrics of the first pass on each of the first
        QUALITY_CORPORA corpora, averaged; {} when one left no usable report."""
        per_corpus = []
        try:
            for c in range(QUALITY_CORPORA[self.kind]):
                reference = self.corpora[c].reference
                out = {}
                for lv in LEVELS:
                    trial = json.loads(reference[f"out_{lv}/report.json"])["trial"]
                    out[f"ncc.{lv}"] = trial["ncc"]
                out["kt.dec"], out["rmse.dec"] = trial["kt"], trial["rmse"]
                per_corpus.append(out)
        except (IndexError, KeyError, TypeError, ValueError):
            return {}
        return {name: statistics.fmean(q[name] for q in per_corpus) for name in per_corpus[0]}


def scaled_setup(speed: list, r: dict) -> float:
    """Import time of pass ``r`` at reference host speed."""
    return r["import_s"] * speed_factor(speed, *r["import_at"])


def scaled_total(speed: list, r: dict) -> float:
    """Stage time of pass ``r`` at reference host speed, scaled call by call."""
    return sum(t * speed_factor(speed, start, start + t) for _, t, start in r["calls"])


def measure(run: Run, seconds: float, deadline: float) -> tuple[dict, dict]:
    """Cycles of one cold and one warm pass, each cycle on the next corpus:
    QUALITY_CORPORA of them, then more while the next cycle is expected to
    end within ``seconds``."""
    cycles: list[dict[str, dict]] = []
    cycle_s = 0.0  # duration of the last cycle
    t0 = time.monotonic()
    with SpeedProbe(run.cpu, run.env) as probe:
        for k in range(workloads.CORPORA_PER_SEED):
            now = time.monotonic()
            if (run.failed or now + 2 * cycle_s > deadline
                    or len(cycles) >= QUALITY_CORPORA[run.kind] and now - t0 + cycle_s > seconds):
                break
            corpus = run.corpus(k)
            d = run.work / f"cycle{k}"
            passes = {}
            for kind in ("cold", "warm"):
                r = run.one(f"cycle{k}.{kind}", corpus, d / "cache", d / kind)
                if "error" in r:
                    break
                passes[kind] = r
            shutil.rmtree(d / "cache", ignore_errors=True)
            cycle_s = time.monotonic() - now
            if len(passes) < 2:
                break
            cycles.append(passes)
        speed = probe.stop()
    (run.work / "speed.json").write_text(json.dumps(speed))
    every = [r for c in cycles for r in c.values()]
    samples = {
        kind: {
            "total_s": [c[kind]["total_s"] for c in cycles],
            "cpu_s": [c[kind]["cpu_s"] for c in cycles],
            "import_s": [c[kind]["import_s"] for c in cycles],
            # what the host speed correction needs, to recompute it later
            "import_at": [c[kind]["import_at"] for c in cycles],
            "calls": [[call[1:] for call in c[kind]["calls"]] for c in cycles],
        } for kind in ("cold", "warm")}
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in every]
    samples["probe"] = {"n": len(speed),
                        "ms": [1e3 * min((v for _, v in speed), default=0.0),
                               1e3 * max((v for _, v in speed), default=0.0)]}
    metrics = {}
    quality = run.quality()
    if cycles and quality and len(speed) >= PROBE_SAMPLES:
        scaled = {"setup_s": [scaled_setup(speed, r) for r in every],
                  **{f"{kind}_s": [scaled_total(speed, c[kind]) for c in cycles]
                     for kind in ("cold", "warm")}}
        samples["scaled"] = scaled
        metrics = {
            "setup_s": statistics.median(scaled["setup_s"]),
            "cold_s": statistics.median(scaled["cold_s"]),
            # a mean over corpora: how many iterations the fit's Nelder-Mead
            # search takes changes from corpus to corpus, and the warm pass is
            # about half fit, so a median would jump between two values
            "warm_s": statistics.fmean(scaled["warm_s"]),
            "peak_rss_mb": max(samples["peak_rss_mb"]),
            "ok_frac": max(0.0, 1.0 - run.failed / run.attempted),
            **quality,
        }
    return metrics, samples


def measure_traced(run: Run) -> tuple[dict, dict]:
    """An untraced cold pass, then a traced cold and a traced warm pass on a
    fresh cache, all on corpus 0."""
    corpus = run.corpus(0)
    d = run.work / "traced"
    base_cold = run.one("untraced.cold", corpus, d / "untraced_cache", d / "untraced")
    shutil.rmtree(d / "untraced_cache", ignore_errors=True)
    traced = [run.one(f"traced.{kind}", corpus, d / "cache", d / kind, trace=True)
              for kind in ("cold", "warm")]
    shutil.rmtree(d / "cache", ignore_errors=True)
    if any("error" in r for r in (base_cold, *traced)):
        return {}, {}
    metrics, extra = {}, {"absent": [], "count_errors": []}
    for label, r in zip(("cold", "warm"), traced):
        layer = r["trace"]["metrics"]
        for name, _, _ in LAYER:
            metrics[f"{label}.{name}"] = layer.get(name, 0.0)
        extra["absent"] = r["trace"]["absent"]
        extra["count_errors"] += r["trace"]["count_errors"]
        extra[f"{label}_spans"] = r["trace"]["spans"]
    metrics["trace.overhead_s"] = traced[0]["total_s"] - base_cold["total_s"]
    extra["untraced_cold_s"] = base_cold["total_s"]
    extra["traced_s"] = [r["total_s"] for r in traced]
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hirsim" / "pipeline.py").is_file():
        print(f"error: {SRC / 'hirsim'} not found; run from the root of a hirsim checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    start = time.monotonic()
    steal0 = steal_s()
    deadline = start + RUN_LIMIT_S
    w = workloads.WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    run = Run(w, args.seed, work, deadline)

    if args.trace:
        metrics, extra = measure_traced(run)
        table = PER_LAYER
    else:
        metrics, extra = measure(run, args.seconds, deadline)
        table = END_TO_END
    if not metrics:
        run.failed = max(run.failed, 1)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(ROOT),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(), "blas_threads": 1,
        "nproc": nproc(), "pass_cpu": run.cpu, "dataset": dataset_record(w, run.gen_s),
        "corpora": len(run.corpora),
        "wall_s": time.monotonic() - start, "samples": extra,
        # stolen CPU time inflates wall-clock samples; it is recorded, not subtracted
        "host_steal_s": None if steal0 is None else steal_s() - steal0,
        "problems": run.problems[:50],
    }
    (work / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"run_record": record}))
    for p in run.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in table if name in metrics},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

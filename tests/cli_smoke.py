"""Every CLI stage on a few small stereo WAVs, with numpy as the only dependency.

    PYTHONPATH=src python -W error::RuntimeWarning tests/cli_smoke.py    # from a checkout
    python -W error::RuntimeWarning tests/cli_smoke.py                   # installed

Writes 16-bit stereo WAVs with the stdlib `wave` module and a manifest of dev
and eval trials into a temporary directory, then runs featurize, forward and,
at every level, sim, fit, eval and report. The 24 distinct inputs have 10
encoder frames each, so forward encodes them in chunks of 10, 10 and 4 and
decodes them in stacks of 8 that span those chunks; every pre, enc and dec
.hrep it writes must equal, byte for byte, `asr.toy_forward` on its input
alone, and a second forward on the filled cache must write nothing and
report all 72 files up to date. Every trial's raw_score and zero_norm_frames,
at every level, must equal those of the reference formulas below: the
framewise cosines over all frames at once, and the max over the channel
pairings of `sim.warped_sim` on `sim.dtw_path_fast`'s path. Then a dec-level
sim and fit read a config file whose settings `--dtw-radius 0 --lenient` and
`--fit-split train_all` override. Exact and fast DTW agree on these short
sequences, and the manifest has no train trials, so their outputs must equal
the dec level's.
Then sim reruns at every level on the filled cache, with `reps.read_reps`
counted: each rerun must read no representation and write the same scores
bytes as the first run, from the scores that run stored in the cache.
Then eval reads a params file whose `a` is a string, fit a scores file
with a field over the csv module's size limit, and featurize a manifest with
a correctness of 1 followed by 400 zeros, an integer no float can hold; each
must exit 2, a data error, not 3. Then fit and eval run, with RuntimeWarnings
as errors, on three dev and three eval trials whose raw scores are 1, 1e-200,
1e160 and 1e308 times fixed ones; each must exit 0, and each fit's slope
times the scale and its offset must equal those of the scores at scale 1 to
12 digits. Last, featurize and forward run on a
second manifest whose clips alternate between 10 and 11 encoder frames, so
forward flushes its chunk and decode stack when the length changes; every
pre, enc and dec .hrep it writes must again equal `asr.toy_forward` on its
input alone. Exits non-zero unless each command exits as stated, those
outputs are equal, no `*.tmp` file is left anywhere under the directory,
every JSON file, the score stores in the cache included, is strict JSON, and
no scipy module was imported.
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
import warnings
import wave
from pathlib import Path

import numpy as np

from hirsim import asr, cli, pipeline, reps, sim

SR = 16000
SNRS = (None, 10.0, 0.0)  # None: the clean reference itself


def write_wav(path: Path, x: np.ndarray) -> None:
    frames = np.round(np.clip(np.column_stack([x, 0.8 * x]), -1, 1) * 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(SR)
        w.writeframes(frames.tobytes())


def build(root: Path) -> Path:
    """4 signals x 3 noise levels; signals 0-1 are dev trials, 2-3 eval."""
    rng = np.random.default_rng(0)
    t = np.arange(6400) / SR
    entries = []
    for i in range(4):
        phase = 2 * np.pi * (120.0 + 20.0 * i) * t
        clean = 0.3 * (np.sin(phase) + 0.5 * np.sin(2 * phase)) * (0.6 + 0.4 * np.sin(6 * t + i))
        write_wav(root / f"ref{i}.wav", clean)
        for j, snr in enumerate(SNRS):
            noise = 0.0 if snr is None else rng.standard_normal(t.size) * np.sqrt(
                np.mean(clean ** 2) / 10 ** (snr / 10))
            write_wav(root / f"proc{i}{j}.wav", clean + noise)
            entries.append({
                "signal_id": f"s{i}{j}", "listener_id": f"L{i % 2}", "system_id": f"S{j}",
                "correctness": 0.85 - 0.3 * j + 0.03 * i, "split": "dev" if i < 2 else "eval",
                "ref_left": f"ref{i}.wav", "ref_right": f"ref{i}.wav",
                "proc_left": f"proc{i}{j}.wav", "proc_right": f"proc{i}{j}.wav",
            })
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return manifest


def build_interleaved(root: Path) -> Path:
    """6 trials whose clips alternate between 6400 and 7040 samples (10 and 11
    encoder frames), each with four distinct inputs."""
    root.mkdir()
    entries = []
    for i in range(6):
        t = np.arange((6400, 7040)[i % 2]) / SR
        for side, f0 in (("ref", 120.0), ("proc", 150.0)):
            write_wav(root / f"{side}{i}.wav", 0.3 * np.sin(2 * np.pi * (f0 + 20.0 * i) * t))
        entries.append({
            "signal_id": f"m{i}", "listener_id": "L0", "system_id": "S0", "correctness": 0.5,
            "split": "eval", "ref_left": f"ref{i}.wav", "ref_right": f"ref{i}.wav",
            "proc_left": f"proc{i}.wav", "proc_right": f"proc{i}.wav",
        })
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return manifest


def strict_json(path: Path) -> None:
    def reject(name):
        raise ValueError(f"{path}: {name} is not JSON")
    json.loads(path.read_text(), parse_constant=reject)


def forward_differs(cache: Path) -> list[str]:
    """The model-level .hrep files of `cache`, by the name they should have,
    that are missing or differ from `asr.toy_forward` on their input alone."""
    cfg = pipeline.PipelineConfig()
    alone = cache.parent / "alone.hrep"
    bad = []
    for src in sorted(cache.glob("*.input.hrep")):
        key = src.name.split(".")[0]
        model_key = pipeline._hash(key.encode(), repr(cfg.asr).encode())
        for level, rep in asr.toy_forward(reps.read_reps(src), cfg.asr).items():
            path = cache / f"{model_key}.{level}.hrep"
            reps.write_reps(rep, alone)
            if not (path.is_file() and path.read_bytes() == alone.read_bytes()):
                bad.append(path.name)
    return bad


def reference_score(chans: list, level: str, radius: int) -> tuple[str, int]:
    """A trial's (raw_score as written, zero_norm_frames) from its ref-left,
    ref-right, proc-left and proc-right representations."""
    ref, proc = chans[:2], chans[2:]
    if level == "dec":
        pairs = [sim.warped_sim(a, b, sim.dtw_path_fast(a, b, radius)) for a in ref for b in proc]
        return f"{max(v for v, _ in pairs):.12g}", sum(z for _, z in pairs)
    T = min(ref[0].n_frames, proc[0].n_frames)
    A, B = (np.stack([c.data[:T] for c in side]).astype(np.float64) for side in (ref, proc))
    A, B = A[:, None], B[None]  # (ref channel, proc channel, frame, dim)
    na, nb = np.linalg.norm(A, axis=-1), np.linalg.norm(B, axis=-1)
    zero = (na < sim.ZERO_NORM_EPS) | (nb < sim.ZERO_NORM_EPS)
    vals = np.where(zero, 0.0, np.einsum("...d,...d->...", A, B) / np.where(zero, 1.0, na * nb))
    return f"{vals.max(axis=(0, 1)).mean():.12g}", int(zero.sum())


def scores_differ(manifest: Path, cache: Path, scores: Path, level: str) -> list[str]:
    """The (signal_id, listener_id) of each trial whose `scores` row is
    missing or differs from reference_score."""
    cfg = pipeline.PipelineConfig(level=level)
    records = reps.load_manifest(manifest)
    sources, slots = pipeline._sources(records, manifest, cfg)
    want = {}
    for rec, slot in zip(records, slots):
        chans = [reps.read_reps(pipeline._cached(cache, sources[i], level)) for i in slot]
        want[rec.signal_id, rec.listener_id] = reference_score(chans, level, cfg.dtw_radius)
    with scores.open(newline="") as f:
        got = {(row["signal_id"], row["listener_id"]): (row["raw_score"], int(row["zero_norm_frames"]))
               for row in csv.DictReader(f)}
    return [key for key in want if got.get(key) != want[key]]


def magnitude_fits(root: Path) -> str | None:
    """fit and eval on raw scores at four scales; what went wrong, or None."""
    root.mkdir()
    entry = {"listener_id": "L0", "system_id": "S0", "ref_left": "r.wav", "ref_right": "r.wav",
             "proc_left": "p.wav", "proc_right": "p.wav"}
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps([
        {**entry, "signal_id": f"m{i}", "correctness": wcs, "split": "dev" if i < 3 else "eval"}
        for i, wcs in enumerate((0.1, 0.5, 0.9, 0.3, 0.6, 0.8))]))
    fits = {}
    for scale in (1.0, 1e-200, 1e160, 1e308):
        scores, params = root / f"scores_{scale}.csv", root / f"params_{scale}.json"
        with scores.open("w", newline="") as f:
            csv.writer(f).writerows([pipeline.SCORE_FIELDS] + [
                (f"m{i}", "L0", "S0", "enc", repr(scale * x), 0)
                for i, x in enumerate((1.0, -1.0, 1.5, 0.5, -0.5, 1.75))])
        for argv in (["fit", "--scores", str(scores), "--params", str(params)],
                     ["eval", "--scores", str(scores), "--params", str(params),
                      "--out-dir", str(root / f"out_{scale}")]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rc = cli.main(["--manifest", str(manifest)] + argv)
            if rc != cli.EXIT_OK:
                return f"hirsim {argv[0]} on raw scores times {scale} exited {rc}"
        fit = json.loads(params.read_text())
        fits[scale] = (fit["a"] * scale, fit["b"])
    for scale, fit in fits.items():
        if not all(math.isclose(v, w, rel_tol=1e-12) for v, w in zip(fit, fits[1.0])):
            return f"fit on raw scores times {scale}: {fit} is not {fits[1.0]}"
    return None


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        base = ["--manifest", str(build(root)), "--cache-dir", str(root / "cache")]
        commands = [["featurize"], ["forward"]]
        for level in ("input", "pre", "enc", "dec"):
            scores, params, out = (str(root / name.format(level))
                                   for name in ("scores_{}.csv", "params_{}.json", "out_{}"))
            commands += [["--level", level, "sim", "--scores", scores],
                         ["--level", level, "fit", "--scores", scores, "--params", params],
                         ["--level", level, "eval", "--scores", scores, "--params", params,
                          "--out-dir", out],
                         ["report", "--report", f"{out}/report.json"]]
        config = root / "config.json"
        config.write_text(json.dumps({"level": "dec", "dtw_radius": 5, "lenient": False,
                                      "fit_split": "dev"}))
        flagged = ["--config", str(config)]
        commands += [flagged + ["--dtw-radius", "0", "--lenient", "sim",
                                "--scores", str(root / "scores_flags.csv")],
                     flagged + ["--fit-split", "train_all", "fit", "--scores",
                                str(root / "scores_flags.csv"),
                                "--params", str(root / "params_flags.json")]]
        for argv in commands:
            rc = cli.main(base + argv)
            if rc != cli.EXIT_OK:
                print(f"hirsim {' '.join(argv)} exited {rc}", file=sys.stderr)
                return 1
            if argv[2:3] == ["sim"]:
                bad = scores_differ(Path(base[1]), root / "cache", Path(argv[-1]), argv[1])
                if bad:
                    print(f"{argv[1]} scores of {bad[:3]} differ from the reference formulas",
                          file=sys.stderr)
                    return 1
            if argv == ["forward"]:
                n_inputs = len(list((root / "cache").glob("*.input.hrep")))
                bad = forward_differs(root / "cache")
                if n_inputs != 24 or bad:
                    print(f"forward of {n_inputs} inputs: {len(bad)} .hrep files differ from "
                          f"one input at a time: {bad[:3]}", file=sys.stderr)
                    return 1
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(base + argv)
                sys.stdout.write(out.getvalue())
                if (rc, out.getvalue()) != (cli.EXIT_OK,
                                            "forward: 0 written, 72 up to date, 0 failed\n"):
                    print(f"forward on a filled cache exited {rc} and printed "
                          f"{out.getvalue()!r}", file=sys.stderr)
                    return 1
        read_reps, reads = reps.read_reps, []
        reps.read_reps = lambda path: reads.append(path) or read_reps(path)
        try:
            for level in ("input", "pre", "enc", "dec"):
                first, rerun = root / f"scores_{level}.csv", root / f"scores_{level}_rerun.csv"
                rc = cli.main(base + ["--level", level, "sim", "--scores", str(rerun)])
                same = rerun.is_file() and rerun.read_bytes() == first.read_bytes()
                if (rc, len(reads), same) != (cli.EXIT_OK, 0, True):
                    print(f"{level} sim on a filled cache exited {rc} and read {len(reads)} "
                          f"representations; same scores bytes: {same}", file=sys.stderr)
                    return 1
        finally:
            reps.read_reps = read_reps
        bad_params, bad_scores = root / "params_bad.json", root / "scores_bad.csv"
        bad_params.write_text(json.dumps({"a": "1", "b": 1}))
        header = (root / "scores_dec.csv").read_text().splitlines()[0]
        bad_scores.write_text(f"{header}\n{'x' * (csv.field_size_limit() + 1)}\n")
        huge = root / "manifest_huge.json"
        entry = {**json.loads(Path(base[1]).read_text())[0], "correctness": "X"}
        huge.write_text(json.dumps([entry]).replace('"X"', "1" + "0" * 400))
        for argv in (base + ["eval", "--scores", str(root / "scores_dec.csv"), "--params",
                             str(bad_params), "--out-dir", str(root / "out_bad")],
                     base + ["fit", "--scores", str(bad_scores), "--params",
                             str(root / "params_out.json")],
                     ["--manifest", str(huge), "--cache-dir", base[3], "featurize"]):
            rc = cli.main(argv)
            if rc != cli.EXIT_DATA:
                print(f"hirsim {' '.join(argv)} exited {rc}, not {cli.EXIT_DATA}", file=sys.stderr)
                return 1
        problem = magnitude_fits(root / "magnitude")
        if problem:
            print(problem, file=sys.stderr)
            return 1
        cache = root / "cache_interleaved"
        mixed = ["--manifest", str(build_interleaved(root / "interleaved")),
                 "--cache-dir", str(cache)]
        for argv in (["featurize"], ["forward"]):
            rc = cli.main(mixed + argv)
            if rc != cli.EXIT_OK:
                print(f"hirsim {' '.join(argv)} on interleaved lengths exited {rc}",
                      file=sys.stderr)
                return 1
        n_inputs, bad = len(list(cache.glob("*.input.hrep"))), forward_differs(cache)
        if n_inputs != 24 or bad:
            print(f"forward of {n_inputs} interleaved-length inputs: {len(bad)} .hrep files "
                  f"differ from one input at a time: {bad[:3]}", file=sys.stderr)
            return 1
        leftover = sorted(p.name for p in root.rglob("*.tmp"))
        if leftover:
            print(f"temporary files left behind: {leftover[:3]}", file=sys.stderr)
            return 1
        for name in ("scores_{}.csv", "params_{}.json"):
            if (root / name.format("flags")).read_bytes() != (root / name.format("dec")).read_bytes():
                print(f"{name.format('flags')} differs from {name.format('dec')}", file=sys.stderr)
                return 1
        for path in sorted(root.rglob("*.json")):
            strict_json(path)
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    if loaded:
        print(f"scipy imported: {loaded}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

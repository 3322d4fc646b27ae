"""The CLI contract on one hostile manifest: clean, noisy, silent, mono,
48 kHz, silent-right-channel and too-short clips, a trial of unknown
correctness and a trial naming a missing file. Every stage at every level,
strict and lenient, exits 0 or 2, never 3; an exit 2 names the stage and
trial, or the file; and every JSON file written is strict JSON and every
number in it and in the CSV files is finite."""

import csv
import json
import math
import re
import warnings
import wave

import numpy as np
import pytest

from hirsim import cli, reps
from conftest import add_noise_at_snr, synth_speechlike, write_stereo_wav

SR = 16000
N = 4000  # 0.25 s: 23 frames of 25 ms every 10 ms
HOP = SR // 100


def write_mono_wav(path, x):
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SR)
        w.writeframes((np.clip(x, -1, 1) * 32767).astype("<i2").tobytes())


def hostile_manifest(root, omit=()):
    """Trials of one clean reference, but those in `omit`; the processed
    clip, split and correctness vary. Returns the manifest path and the
    signal ids."""
    audio = root / "audio"
    audio.mkdir(parents=True)
    clean = synth_speechlike(0, n_samples=N)
    noisy = add_noise_at_snr(clean, 0.0, seed=1)
    silent = np.zeros(N)
    write_stereo_wav(audio / "ref.wav", clean, 0.9 * clean)
    write_stereo_wav(audio / "noisy.wav", noisy, 0.9 * noisy)
    write_stereo_wav(audio / "noisy10.wav", *[add_noise_at_snr(clean, 10.0, seed=2)] * 2)
    write_stereo_wav(audio / "silent.wav", silent, silent)
    write_mono_wav(audio / "mono.wav", add_noise_at_snr(clean, 5.0, seed=3))
    x48 = synth_speechlike(0, n_samples=3 * N, sr=3 * SR)
    write_stereo_wav(audio / "48k.wav", x48, x48, sr=3 * SR)
    write_stereo_wav(audio / "right_silent.wav", noisy, silent)
    # five frames short of the reference, beyond the two-frame tolerance
    write_stereo_wav(audio / "short.wav", clean[:N - 5 * HOP], clean[:N - 5 * HOP])
    trials = [  # (signal_id, processed file, split, correctness)
        ("clean", "ref.wav", "dev", 0.95), ("noisy", "noisy.wav", "dev", 0.3),
        ("noisy10", "noisy10.wav", "dev", 0.7), ("silent", "silent.wav", "dev", 0.0),
        ("short", "short.wav", "dev", 0.5), ("missing", "missing.wav", "dev", 0.4),
        ("mono", "mono.wav", "eval", 0.6), ("48k", "48k.wav", "eval", 0.9),
        ("right_silent", "right_silent.wav", "eval", 0.2),
        ("unknown", "noisy10.wav", "eval", None),
    ]
    entries = [{"signal_id": sid, "listener_id": f"L{i % 3}", "system_id": f"sys{i % 2}",
                "correctness": wcs, "ref_left": "audio/ref.wav", "ref_right": "audio/ref.wav",
                "proc_left": f"audio/{proc}", "proc_right": f"audio/{proc}", "split": split}
               for i, (sid, proc, split, wcs) in enumerate(trials) if sid not in omit]
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return manifest, {e["signal_id"] for e in entries}


def finite_numbers(value, where):
    """Assert every number in a parsed JSON value is finite."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            finite_numbers(v, where)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        assert math.isfinite(value), where


def strict_json(path):
    def reject(name):
        raise ValueError(f"{path}: {name} is not strict JSON")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("lenient, omit", [(False, ()), (True, ()), (False, ("missing",))],
                         ids=["strict", "lenient", "strict-all-files-present"])
def test_every_stage_exits_0_or_2_and_writes_finite_artifacts(tmp_path, capsys, lenient, omit):
    manifest, ids = hostile_manifest(tmp_path / "data", omit)
    out = tmp_path / "run"
    base = ["--manifest", str(manifest), "--cache-dir", str(out / "cache")]
    base += ["--lenient"] * lenient
    runs = [("featurize", base + ["featurize"]), ("forward", base + ["forward"])]
    for level in reps.LEVELS:
        files = ["--scores", str(out / f"scores_{level}.csv")]
        params = ["--params", str(out / f"params_{level}.json")]
        at = base + ["--level", level]
        runs += [("sim", at + ["sim", *files]), ("fit", at + ["fit", *files, *params]),
                 ("eval", at + ["eval", *files, *params, "--out-dir", str(out / level)])]

    codes = []
    for stage, argv in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv)
        err = capsys.readouterr().err
        codes.append(code)
        assert code in (cli.EXIT_OK, cli.EXIT_DATA), (argv, err)
        if code == cli.EXIT_DATA:
            named = re.findall(rf"(?:{stage} failed for|FAILED) (.+?): ", err)
            assert (named and set(named) <= ids) or str(tmp_path) in err, (argv, err)
    # a strict run stops at the missing file; the others fit and evaluate
    assert (cli.EXIT_OK in codes) == (lenient or "missing" in omit)

    for path in (p for p in out.rglob("*") if p.suffix in (".json", ".csv")):
        if path.suffix == ".json":
            finite_numbers(strict_json(path), path)
            continue
        with path.open(newline="") as f:
            header, *rows = csv.reader(f)
        # scores.csv: the score columns; report_<by>.csv: all but the group id
        cols = ([header.index("raw_score"), header.index("zero_norm_frames")]
                if path.name.startswith("scores") else range(1, len(header)))
        for row in rows:
            assert all(math.isfinite(float(row[c])) for c in cols), (path, row)

"""End-to-end pipeline stages: featurize -> forward -> sim -> fit -> eval.

Representations are cached as <cache>/<key>.<level>.hrep, keyed by a content
hash of the source bytes, channel and config: reruns are idempotent, config
changes invalidate downstream files, and a source shared by many trials is
computed once. All stages are deterministic, down to the output bytes.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import math
import types
import typing
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import asr, calib, feats, reps, sim


class PipelineError(Exception):
    pass


# what bad input raises: recorded per trial under --lenient; the CLI exits 2 on it
DATA_ERRORS = (PipelineError, reps.FormatError, feats.AudioError, sim.SimilarityError,
               calib.MetricError, asr.AsrError, OSError, ValueError)


@dataclass(frozen=True)
class PipelineConfig:
    feat: feats.FeatConfig = field(default_factory=feats.FeatConfig)
    asr: asr.ToyAsrConfig = field(default_factory=asr.ToyAsrConfig)
    level: str = "dec"
    dtw_radius: int = sim.DEFAULT_RADIUS
    fit_split: str = "dev"
    wcs_percent: bool = False
    lenient: bool = False

    def __post_init__(self):
        if self.level not in reps.LEVELS:
            raise ValueError(f"unknown level {self.level!r}")
        if self.fit_split not in ("dev", "train_all"):
            raise ValueError(f"unknown fit_split {self.fit_split!r}")
        if self.dtw_radius < 0:
            raise ValueError("dtw_radius must be >= 0")


def _matches(value, hint) -> bool:
    """Whether JSON `value` is of type `hint`: an int is a float, a bool is
    not a number, and a tuple comes as an array."""
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        return isinstance(value, list) and all(_matches(v, typing.get_args(hint)[0])
                                               for v in value)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_matches(value, h) for h in typing.get_args(hint))
    return isinstance(value, hint)


def _from_json(raw, cls, where: str):
    """A `cls` from a JSON object of its fields, each holding a value of the
    field's type; a dataclass field from a nested object."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ValueError(f"{where} has unknown key {unknown[0]!r}")
    kwargs = {}
    for key, value in raw.items():
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            value = _from_json(value, hint, f"{where}: {key!r}")
        elif not _matches(value, hint):
            name = hint if typing.get_args(hint) else hint.__name__
            raise ValueError(f"{where}: {key!r} must be {name}")
        kwargs[key] = value
    return cls(**kwargs)


def load_config(path) -> PipelineConfig:
    return _from_json(reps.read_json(path, "config"), PipelineConfig, f"config {path}")


def _hash(*parts: bytes) -> str:
    return hashlib.sha256(b"".join(parts)).hexdigest()


@dataclass
class StageResult:
    written: int = 0
    skipped: int = 0
    failures: list = field(default_factory=list)  # (signal_id, message)


@contextlib.contextmanager
def _trial(result: StageResult, cfg: PipelineConfig, stage: str, signal_id: str):
    """Record a data error of one trial's work; re-raise it unless lenient."""
    try:
        yield
    except DATA_ERRORS as e:
        result.failures.append((signal_id, str(e)))
        if not cfg.lenient:
            raise PipelineError(f"{stage} failed for {signal_id}: {e}") from e


def _input_keys(records: list[reps.TrialRecord], manifest_path, cfg: PipelineConfig) -> list:
    """Each trial's (input key, source path, channel) for its ref-left,
    ref-right, proc-left and proc-right sources. The key is
    sha256(sha256(file bytes) || repr(cfg.feat) || channel), or None if the
    file cannot be read; each distinct resolved file is hashed once."""
    feat = repr(cfg.feat).encode()

    @functools.cache
    def digest(path: Path) -> bytes | None:
        try:
            return hashlib.sha256(path.read_bytes()).digest()
        except OSError:
            return None

    @functools.cache
    def slot(ref: str, channel: str) -> tuple:
        path = reps.resolve_path(manifest_path, ref)
        return ((d := digest(path)) and _hash(d, feat, channel.encode()), path, channel)

    return [[slot(ref, channel) for ref, channel in
             zip((r.ref_left, r.ref_right, r.proc_left, r.proc_right), reps.CHANNELS * 2)]
            for r in records]


def _distinct(records: list[reps.TrialRecord], manifest_path, cfg: PipelineConfig):
    """(first trial's signal_id, key, path, channel) once per distinct input
    key, and once per unreadable source file."""
    first: dict = {}
    for rec, slots in zip(records, _input_keys(records, manifest_path, cfg)):
        for key, path, channel in slots:
            first.setdefault(key or path, (rec.signal_id, key, path, channel))
    return first.values()


@functools.lru_cache(maxsize=4096)
def _rep_path(cache: Path, input_key: str, level: str, asr_cfg: asr.ToyAsrConfig) -> Path:
    """<cache>/<key>.<level>.hrep; the model levels key on input key + repr(asr_cfg)."""
    key = input_key if level == "input" else _hash(input_key.encode(), repr(asr_cfg).encode())
    return cache / f"{key}.{level}.hrep"


def run_featurize(manifest_path, cache_dir, cfg: PipelineConfig) -> StageResult:
    """Compute the input-level .hrep of every distinct (source bytes, channel)."""
    records = reps.load_manifest(manifest_path, wcs_percent=cfg.wcs_percent,
                                 lenient=cfg.lenient)
    cache = Path(cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    result = StageResult()
    by_path: dict[Path, list] = {}
    for signal_id, key, path, channel in _distinct(records, manifest_path, cfg):
        by_path.setdefault(path, []).append((signal_id, key, channel))

    for path, uses in by_path.items():
        signal_id = uses[0][0]
        # an unreadable source has no key; reading it below raises the cause
        todo = [(key, channel) for _, key, channel in uses
                if not (key and _rep_path(cache, key, "input", cfg.asr).exists())]
        result.skipped += len(uses) - len(todo)
        if not todo:
            continue
        with _trial(result, cfg, "featurize", signal_id):
            # one read per file: a stereo WAV supplies both channels
            source = reps.read_reps(path) if path.suffix == ".hrep" else feats.read_wav(path)
            for key, channel in todo:
                data = (source.data if isinstance(source, reps.RepSequence) else
                        feats.logmel(source.channel(channel), cfg.feat, source.sample_rate_hz).data)
                reps.write_reps(reps.RepSequence(data, "input", channel, signal_id=""),
                                _rep_path(cache, key, "input", cfg.asr))
                result.written += 1
    return result


def run_forward(manifest_path, cache_dir, cfg: PipelineConfig,
                levels=("pre", "enc", "dec")) -> StageResult:
    """Run the toy model on every distinct input-level .hrep, writing the
    requested hidden-representation levels."""
    records = reps.load_manifest(manifest_path, wcs_percent=cfg.wcs_percent,
                                 lenient=True)
    cache = Path(cache_dir)
    result = StageResult()
    levels = tuple(levels)
    for lv in levels:
        if lv not in ("pre", "enc", "dec"):
            raise PipelineError(f"forward cannot produce level {lv!r}")

    for signal_id, key, path, channel in _distinct(records, manifest_path, cfg):
        with _trial(result, cfg, "forward", signal_id):
            src = key and _rep_path(cache, key, "input", cfg.asr)
            if not (src and src.exists()):
                raise PipelineError(f"missing input representation of {path} ({channel})")
            todo = [lv for lv in levels if not _rep_path(cache, key, lv, cfg.asr).exists()]
            result.skipped += len(levels) - len(todo)
            if todo:
                hidden = asr.toy_forward(reps.read_reps(src), cfg.asr)
                for lv in todo:
                    reps.write_reps(hidden[lv], _rep_path(cache, key, lv, cfg.asr))
                result.written += len(todo)
    return result


SCORE_FIELDS = ("signal_id", "listener_id", "system_id", "level",
                "raw_score", "zero_norm_frames")


class _UntilLastUse:
    """Values computed on first use and dropped after their last counted use."""

    def __init__(self, keys):
        self.left = Counter(keys)
        self.held: dict = {}

    def get(self, key, compute):
        value = self.held.pop(key) if key in self.held else compute()
        self.left[key] -= 1
        if self.left[key] > 0:
            self.held[key] = value
        return value


def run_sim(manifest_path, cache_dir, scores_path, cfg: PipelineConfig) -> StageResult:
    """Score every trial at the configured level and write scores.csv.

    Each distinct .hrep is read once and each distinct (ref, proc) tuple of
    four input keys is scored once; both are held only until their last use.
    """
    records = reps.load_manifest(manifest_path, wcs_percent=cfg.wcs_percent,
                                 lenient=True)
    cache = Path(cache_dir)
    result = StageResult()
    rows = []
    trials = sorted(zip(records, _input_keys(records, manifest_path, cfg)),
                    key=lambda t: (t[0].signal_id, t[0].listener_id))
    # a source is known by its input key; an unreadable one, which has none, by its slot
    ids = [tuple(slot[0] or slot for slot in slots) for _, slots in trials]
    scores = _UntilLastUse(ids)
    loaded = _UntilLastUse(i for pairing in set(ids) for i in pairing)

    def load(slot):
        key, path, channel = slot
        p = key and _rep_path(cache, key, cfg.level, cfg.asr)
        if not (p and p.exists()):
            raise PipelineError(f"missing {cfg.level} representation of {path} ({channel})")
        return reps.read_reps(p)

    def score(slots):
        chans = [loaded.get(slot[0] or slot, functools.partial(load, slot)) for slot in slots]
        return sim.binaural_similarity(reps.BinauralRep(*chans[:2]),
                                       reps.BinauralRep(*chans[2:]), cfg.dtw_radius)

    for (rec, slots), pairing in zip(trials, ids):
        with _trial(result, cfg, "sim", rec.signal_id):
            value = scores.get(pairing, functools.partial(score, slots))
            rows.append({
                "signal_id": rec.signal_id, "listener_id": rec.listener_id,
                "system_id": rec.system_id, "level": cfg.level,
                "raw_score": f"{value.value:.12g}",
                "zero_norm_frames": value.zero_norm_frames,
            })

    scores_path = Path(scores_path)
    scores_path.parent.mkdir(parents=True, exist_ok=True)
    with scores_path.open("w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=SCORE_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    result.written = len(rows)
    return result


def read_scores(scores_path) -> list[dict]:
    with Path(scores_path).open(newline="") as f:
        reader = csv.DictReader(ln for ln in f if not ln.startswith("#"))
        missing = [k for k in SCORE_FIELDS if k not in (reader.fieldnames or ())]
        if missing:
            raise reps.FormatError(f"{scores_path}: no {missing[0]!r} column")
        rows = list(reader)
    for i, row in enumerate(rows):
        try:
            row["raw_score"] = float(row["raw_score"])
            row["zero_norm_frames"] = int(row["zero_norm_frames"])
        except (TypeError, ValueError) as e:
            raise reps.FormatError(f"{scores_path}: score row {i}: {e}") from e
    return rows


def _labelled(scores_path, manifest_path, cfg: PipelineConfig, splits) -> tuple:
    """The manifest records and raw scores of the score rows in `splits`
    whose correctness is known, and the number of rows in `splits` whose
    correctness is not (NaN), which carry nothing to fit or score against."""
    records = reps.load_manifest(manifest_path, wcs_percent=cfg.wcs_percent, lenient=True)
    by_key = {(r.signal_id, r.listener_id): r for r in records}
    labelled, raw, n_rows = [], [], 0
    for row in read_scores(scores_path):
        rec = by_key.get((row["signal_id"], row["listener_id"]))
        if rec is None:
            raise PipelineError(
                f"score row ({row['signal_id']}, {row['listener_id']}) not in manifest")
        if rec.split in splits:
            n_rows += 1
            if math.isfinite(rec.correctness):
                labelled.append(rec)
                raw.append(row["raw_score"])
    return labelled, np.array(raw), n_rows - len(labelled)


def run_fit(scores_path, manifest_path, params_path, cfg: PipelineConfig) -> calib.LogisticParams:
    """Fit the logistic mapping on the configured split; never reads eval WCS."""
    splits = ("dev",) if cfg.fit_split == "dev" else ("train", "dev")
    recs, raw, n_dropped = _labelled(scores_path, manifest_path, cfg, splits)
    if not (recs or n_dropped):
        raise PipelineError(f"no trials in split(s) {splits} to fit on")
    truth = np.array([r.correctness for r in recs])
    params = calib.fit_logistic(zip(raw, truth))
    fit_rmse = calib.rmse(calib.logistic(raw, params), truth)
    out = Path(params_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"a": params.a, "b": params.b, "fit_rmse": fit_rmse, "n_dev": len(recs),
         "n_dropped": n_dropped},
        indent=2, allow_nan=False) + "\n")
    return params


def run_eval(scores_path, manifest_path, params_path, out_dir,
             cfg: PipelineConfig) -> dict:
    """Evaluate on the eval split; writes report.json and the listener-wise
    and system-wise CSVs."""
    params_raw = reps.require_keys(reps.read_json(params_path, "params"), ("a", "b"),
                                   str(params_path))
    params = calib.LogisticParams(a=params_raw["a"], b=params_raw["b"])
    rows, raw, n_dropped = _labelled(scores_path, manifest_path, cfg, ("eval",))
    if not (rows or n_dropped):
        raise PipelineError("eval split is empty")
    if not rows:
        raise PipelineError(f"none of the {n_dropped} eval trials is labelled")

    truth = np.array([r.correctness for r in rows])
    mapped = calib.logistic(raw, params)
    trial = calib.trial_report(mapped, truth, kt_scores=raw)
    listener = calib.group_aggregate(
        [(r.listener_id, m, r.correctness) for r, m in zip(rows, mapped)], "listener")
    system = calib.group_aggregate(
        [(r.system_id, m, r.correctness) for r, m in zip(rows, mapped)], "system")

    report = {
        "level": cfg.level,
        "params": {"a": params.a, "b": params.b},
        "trial": trial.to_dict(),
        # raw-score metrics labelled separately: no logistic mapping applied
        "trial_raw": {"rmse": calib.rmse(raw, truth), "ncc": calib.ncc(raw, truth),
                      "kt": calib.kendall_tau(raw, truth)},
        "listener": listener.to_dict(),
        "system": system.to_dict(),
        "n_dropped": n_dropped,
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    for name, rep in (("listener", listener), ("system", system)):
        with (out / f"report_{name}.csv").open("w", newline="") as f:
            w = csv.writer(f)
            w.writerow([name, "pred_mean", "truth_mean", "pred_stderr", "truth_stderr"])
            for gid, pm, tm, ps, ts in zip(rep.group_ids, rep.group_pred_means,
                                           rep.group_truth_means, rep.group_pred_stderr,
                                           rep.group_truth_stderr):
                w.writerow([gid, f"{pm:.12g}", f"{tm:.12g}", f"{ps:.12g}", f"{ts:.12g}"])
    return report

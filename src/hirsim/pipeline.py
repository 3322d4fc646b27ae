"""End-to-end pipeline stages: featurize -> forward -> sim -> fit -> eval.

Representations are cached as <cache>/<key>.<level>.hrep, keyed by a content
hash of the source bytes, channel and config: reruns are idempotent, config
changes invalidate downstream files, and a source shared by many trials is
computed once. All stages are deterministic, down to the output bytes.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import asr, calib, feats, reps, sim


class PipelineError(Exception):
    pass


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


def load_config(path) -> PipelineConfig:
    raw = json.loads(Path(path).read_text())
    kwargs = {}
    if "feat" in raw:
        kwargs["feat"] = feats.FeatConfig(**raw["feat"])
    if "asr" in raw:
        kwargs["asr"] = asr.ToyAsrConfig(**raw["asr"])
    for key in ("level", "dtw_radius", "fit_split", "wcs_percent", "lenient"):
        if key in raw:
            kwargs[key] = raw[key]
    return PipelineConfig(**kwargs)


def _hash(*parts: bytes) -> str:
    return hashlib.sha256(b"".join(parts)).hexdigest()


@dataclass
class StageResult:
    written: int = 0
    skipped: int = 0
    failures: list = field(default_factory=list)  # (signal_id, message)


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
        try:
            # one read per file: a stereo WAV supplies both channels
            source = reps.read_reps(path) if path.suffix == ".hrep" else feats.read_wav(path)
            for key, channel in todo:
                data = (source.data if isinstance(source, reps.RepSequence) else
                        feats.logmel(source.channel(channel), cfg.feat, source.sample_rate_hz).data)
                reps.write_reps(reps.RepSequence(data, "input", channel, signal_id=""),
                                _rep_path(cache, key, "input", cfg.asr))
                result.written += 1
        except (OSError, feats.AudioError, reps.FormatError, ValueError) as e:
            result.failures.append((signal_id, str(e)))
            if not cfg.lenient:
                raise PipelineError(f"featurize failed for {signal_id}: {e}") from e
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
        src = key and _rep_path(cache, key, "input", cfg.asr)
        if not (src and src.exists()):
            msg = f"missing input representation of {path} ({channel})"
            result.failures.append((signal_id, msg))
            if not cfg.lenient:
                raise PipelineError(msg)
            continue
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
        try:
            value = scores.get(pairing, functools.partial(score, slots))
            rows.append({
                "signal_id": rec.signal_id, "listener_id": rec.listener_id,
                "system_id": rec.system_id, "level": cfg.level,
                "raw_score": f"{value.value:.12g}",
                "zero_norm_frames": value.zero_norm_frames,
            })
        except (PipelineError, reps.FormatError, sim.SimilarityError) as e:
            result.failures.append((rec.signal_id, str(e)))
            if not cfg.lenient:
                raise PipelineError(f"sim failed for trial {rec.signal_id}: {e}") from e

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
        lines = [ln for ln in f if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    for row in rows:
        row["raw_score"] = float(row["raw_score"])
        row["zero_norm_frames"] = int(row["zero_norm_frames"])
    return rows


def _join_scores(scores: list[dict], records: list[reps.TrialRecord]) -> list[dict]:
    by_key = {(r.signal_id, r.listener_id): r for r in records}
    joined = []
    for row in scores:
        rec = by_key.get((row["signal_id"], row["listener_id"]))
        if rec is None:
            raise PipelineError(
                f"score row ({row['signal_id']}, {row['listener_id']}) not in manifest")
        joined.append({**row, "correctness": rec.correctness, "split": rec.split})
    return joined


def run_fit(scores_path, manifest_path, params_path, cfg: PipelineConfig) -> calib.LogisticParams:
    """Fit the logistic mapping on the configured split; never reads eval WCS."""
    records = reps.load_manifest(manifest_path, wcs_percent=cfg.wcs_percent, lenient=True)
    splits = ("dev",) if cfg.fit_split == "dev" else ("train", "dev")
    rows = [r for r in _join_scores(read_scores(scores_path), records)
            if r["split"] in splits]
    if not rows:
        raise PipelineError(f"no trials in split(s) {splits} to fit on")
    # unlabelled (NaN) rows carry no information about the mapping
    pairs = [(r["raw_score"], r["correctness"]) for r in rows if np.isfinite(r["correctness"])]
    params = calib.fit_logistic(pairs)
    mapped = calib.logistic(np.array([p[0] for p in pairs]), params)
    fit_rmse = calib.rmse(mapped, [p[1] for p in pairs])
    out = Path(params_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"a": params.a, "b": params.b, "fit_rmse": fit_rmse, "n_dev": len(pairs),
         "n_dropped": len(rows) - len(pairs)},
        indent=2, allow_nan=False) + "\n")
    return params


def run_eval(scores_path, manifest_path, params_path, out_dir,
             cfg: PipelineConfig) -> dict:
    """Evaluate on the eval split; writes report.json and the listener-wise
    and system-wise CSVs."""
    records = reps.load_manifest(manifest_path, wcs_percent=cfg.wcs_percent, lenient=True)
    params_raw = json.loads(Path(params_path).read_text())
    params = calib.LogisticParams(a=params_raw["a"], b=params_raw["b"])
    rows = [r for r in _join_scores(read_scores(scores_path), records)
            if r["split"] == "eval"]
    if not rows:
        raise PipelineError("eval split is empty")
    # unlabelled (NaN) trials have nothing to be scored against
    labelled = [r for r in rows if np.isfinite(r["correctness"])]
    if not labelled:
        raise PipelineError(f"none of the {len(rows)} eval trials is labelled")
    n_dropped, rows = len(rows) - len(labelled), labelled

    raw = np.array([r["raw_score"] for r in rows])
    truth = np.array([r["correctness"] for r in rows])
    mapped = calib.logistic(raw, params)
    trial = calib.trial_report(mapped, truth, kt_scores=raw)
    listener = calib.group_aggregate(
        [(r["listener_id"], m, r["correctness"]) for r, m in zip(rows, mapped)], "listener")
    system = calib.group_aggregate(
        [(r["system_id"], m, r["correctness"]) for r, m in zip(rows, mapped)], "system")

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

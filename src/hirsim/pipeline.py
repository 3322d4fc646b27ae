"""End-to-end pipeline stages: featurize -> forward -> sim -> fit -> eval.

Representations are cached as <cache>/<key>.<level>.hrep, keyed by a content
hash of the cache version, source bytes, channel and config, and the scores of
a sim pass as JSON in <cache>/<key>.<level>.sim.json, keyed by those of its
sources: reruns are idempotent, config changes invalidate downstream files,
and a source shared by many trials is computed once. All stages are
deterministic, down to the output bytes.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import itertools
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import asr, calib, feats, reps, sim


class PipelineError(ValueError):
    pass


# what bad input raises: every error class hirsim defines is a ValueError
DATA_ERRORS = (OSError, ValueError)


# the levels the toy model writes, from the input level's features
MODEL_LEVELS = reps.LEVELS[1:]
# fit_split name -> the manifest splits the logistic mapping is fitted on
FIT_SPLITS = {"dev": ("dev",), "train_all": ("train", "dev")}


@dataclass(frozen=True)
class PipelineConfig:
    feat: feats.FeatConfig = field(default_factory=feats.FeatConfig)
    asr: asr.ToyAsrConfig = field(default_factory=asr.ToyAsrConfig)
    level: str = "dec"
    fit_split: str = "dev"
    wcs_percent: bool = False
    lenient: bool = False

    def __post_init__(self):
        if self.level not in reps.LEVELS:
            raise ValueError(f"unknown level {self.level!r}")
        if self.fit_split not in FIT_SPLITS:
            raise ValueError(f"unknown fit_split {self.fit_split!r}")


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
        elif not reps.matches(value, hint):
            name = hint if typing.get_args(hint) else hint.__name__
            raise ValueError(f"{where}: {key!r} must be {name}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from e


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


# the version of everything the cache holds, hashed into every input key and
# so into every key derived from it. A change that alters the bytes of any
# cached file bumps it, so files of another version are never read.
CACHE_VERSION = b"1"


def _sources(records: list[reps.TrialRecord], manifest_path, cfg: PipelineConfig):
    """The distinct inputs of `records`, and each trial's place among them.

    `sources` lists (first trial's signal_id, keys, path, channel) once per
    distinct (file digest, channel), and once per unreadable source file,
    whose keys are the OSError that reading it raised. The keys map each level
    to its key: at input sha256(CACHE_VERSION || sha256(file bytes) ||
    repr(cfg.feat) || channel), and at every model level sha256(input key ||
    repr(cfg.asr)).
    Each manifest name is resolved and its file hashed once, so a file named
    two ways (`a.wav` and `./a.wav`) is read twice. `slots[i]` holds trial
    i's ref-left, ref-right, proc-left and proc-right sources as indices into
    `sources`."""
    feat, model = repr(cfg.feat).encode(), repr(cfg.asr).encode()
    files: dict[str, tuple] = {}  # name in the manifest -> (resolved path, digest or OSError)
    index: dict = {}  # (digest, channel), or an unreadable file's path -> index
    sources, slots = [], []
    for rec in records:
        slot = []
        for ref, channel in zip((rec.ref_left, rec.ref_right, rec.proc_left, rec.proc_right),
                                reps.CHANNELS * 2):
            if ref not in files:
                path = reps.resolve_path(manifest_path, ref)
                try:
                    files[ref] = path, hashlib.sha256(path.read_bytes()).digest()
                except OSError as e:
                    files[ref] = path, e
            path, d = files[ref]
            at = path if isinstance(d, OSError) else (d, channel)  # one error per file
            if at not in index:
                index[at] = len(sources)
                key = (d if isinstance(d, OSError) else
                       _hash(CACHE_VERSION, d, feat, channel.encode()))
                keys = key if isinstance(key, OSError) else {
                    "input": key, **dict.fromkeys(MODEL_LEVELS, _hash(key.encode(), model))}
                sources.append((rec.signal_id, keys, path, channel))
            slot.append(index[at])
        slots.append(tuple(slot))
    return sources, slots


def _rep_path(cache: Path, keys: dict[str, str], level: str) -> Path:
    """<cache>/<key>.<level>.hrep, for a source's keys by level."""
    return cache / f"{keys[level]}.{level}.hrep"


def _cached(cache: Path, source: tuple, level: str) -> Path:
    """`source`'s .hrep file of `level`, for an entry of `_sources`; raises the
    OSError of an unreadable source file, or PipelineError if never computed."""
    _, keys, path, channel = source
    if isinstance(keys, OSError):
        # the one stored error, raised for every trial that names the file:
        # without a fresh traceback each raise would add its frames to it
        raise keys.with_traceback(None)
    rep = _rep_path(cache, keys, level)
    if not rep.exists():
        raise PipelineError(f"missing {level} representation of {path} ({channel})")
    return rep


def run_featurize(manifest_path, cache_dir, cfg: PipelineConfig) -> StageResult:
    """Compute the input-level .hrep of every distinct (source bytes, channel)."""
    records = reps.load_manifest(manifest_path, wcs_percent=cfg.wcs_percent)
    cache = Path(cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    result = StageResult()
    by_path: dict[Path, list] = {}
    for signal_id, keys, path, channel in _sources(records, manifest_path, cfg)[0]:
        by_path.setdefault(path, []).append((signal_id, keys, channel))

    for path, uses in by_path.items():
        signal_id, keys = uses[0][:2]
        # an unreadable source's keys are the error reading it raised
        todo = [(keys, channel) for _, keys, channel in uses
                if isinstance(keys, OSError) or not _rep_path(cache, keys, "input").exists()]
        result.skipped += len(uses) - len(todo)
        if not todo:
            continue
        with _trial(result, cfg, "featurize", signal_id):
            if isinstance(keys, OSError):
                raise keys
            # one read per file: a stereo WAV supplies both channels
            source = reps.read_reps(path) if path.suffix == ".hrep" else feats.read_wav(path)
            for keys, channel in todo:
                rep = (reps.RepSequence(source.data, "input", channel, signal_id="")
                       if isinstance(source, reps.RepSequence) else
                       feats.logmel(source.channel(channel), cfg.feat, source.sample_rate_hz,
                                    channel=channel))
                reps.write_reps(rep, _rep_path(cache, keys, "input"))
                result.written += 1
    return result


# encoder frames one forward chunk may hold. The (N, heads, T', T') attention
# scores of a chunk grow with N, so this bounds peak memory: 8 of
# `shared_short`'s 12-frame inputs, one of `unique_long`'s 100-frame inputs.
FORWARD_BUDGET = 100
# encoder outputs of one shape that one decode stack holds, gathered across
# the forward chunks of that shape. The decoder's cross-attention scores are
# only (N, heads, step, T'), so 8 of `unique_long`'s 100-frame outputs decode
# together. A count, not a budget of keys: a stack runs until its longest
# decode ends, and larger stacks save little time for more memory.
DECODE_STACK = 8


def run_forward(manifest_path, cache_dir, cfg: PipelineConfig,
                levels=MODEL_LEVELS) -> StageResult:
    """Run the toy model on every distinct input-level .hrep, writing the
    requested hidden-representation levels.

    Every input is first checked in manifest order: its levels in the cache
    and, if one is missing, the (T, d) in its .hrep header; so a check error
    comes before any compute error. The inputs to compute then run in (d, T,
    manifest) order, each PreNet shape one contiguous run, through one chunk
    of at most FORWARD_BUDGET encoder frames (or one input) and one decode
    stack. Before an input that would overfill the chunk, the chunk is
    flushed: it goes through the encoder as one stack, its pre and enc levels
    are written, and the encoder outputs of its shape, gathered across
    chunks, decode DECODE_STACK at a time. Before an input of another shape,
    and at the end, the flush decodes down to the last, smaller stack. A
    chunk or stack that fails runs each of its inputs alone, so the failure
    names its trial. The outputs equal those of one input at a time.
    """
    records = reps.load_manifest(manifest_path, wcs_percent=cfg.wcs_percent)
    cache = Path(cache_dir)
    result = StageResult()
    levels = tuple(dict.fromkeys(levels))  # a level named twice is one level
    for lv in levels:
        if lv not in MODEL_LEVELS:
            raise PipelineError(f"forward cannot produce level {lv!r}")
    if not levels:
        raise PipelineError(f"forward needs at least one level of {', '.join(MODEL_LEVELS)}")
    # an input is (signal_id, keys, channel, levels to write)
    pending = []  # (d, T, input, input-level .hrep) of each input to compute
    chunk = []  # (input, PreNet output) of one forward chunk
    stack = []  # (input, encoder output) awaiting a decode stack
    shape = None  # (model, PreNet frames) of the chunk and the stack

    def stacked(step, items, then):
        """then(input, array, output) for each (input, array) of `items`, the
        output being step's for that array in one call on all of them; if that
        call raises a data error, each array goes through step alone."""
        out = None
        if len(items) > 1:
            with contextlib.suppress(*DATA_ERRORS):
                out = step(np.stack([x for _, x in items]))
        for i, (item, x) in enumerate(items):
            with _trial(result, cfg, "forward", item[0]):
                then(item, x, out[i] if out is not None else step(x[None])[0])

    def write(item, lv, data):
        _, keys, channel, todo = item
        if lv in todo:
            reps.write_reps(reps.RepSequence(data, lv, channel, signal_id=""),
                            _rep_path(cache, keys, lv))
            result.written += 1

    def encoded(item, pre, enc):
        write(item, "pre", pre)
        write(item, "enc", enc)
        if "dec" in item[-1]:
            stack.append((item, enc))

    def flush(least):
        """Encode the chunk, then decode stacks of DECODE_STACK encoder
        outputs while at least `least` wait."""
        if shape:
            stacked(shape[0].encode, chunk, encoded)
            chunk.clear()
            while len(stack) >= least:
                stacked(shape[0].decode_greedy, stack[:DECODE_STACK],
                        lambda item, enc, dec: write(item, "dec", dec[0]))
                del stack[:DECODE_STACK]

    for source in _sources(records, manifest_path, cfg)[0]:
        signal_id, keys, _, channel = source
        with _trial(result, cfg, "forward", signal_id):
            src = _cached(cache, source, "input")
            todo = [lv for lv in levels if not _rep_path(cache, keys, lv).exists()]
            result.skipped += len(levels) - len(todo)
            if todo:
                t, d = reps.read_shape(src)
                pending.append((d, t, (signal_id, keys, channel, todo), src))
    for _, _, item, src in sorted(pending, key=lambda p: p[:2]):
        pre = None
        with _trial(result, cfg, "forward", item[0]):
            features = reps.read_reps(src)
            model = asr.shared_model(cfg.asr, features.dim)
            pre = model.prenet(features.data.astype(np.float64))
        if pre is None:
            continue
        # flushed only now, so the chunk is freed below this input's arrays:
        # freed before them, glibc trims the heap and refaults it per input
        if shape != (model, len(pre)):
            flush(1)
        elif (len(chunk) + 1) * len(pre) > FORWARD_BUDGET:
            flush(DECODE_STACK)
        shape = (model, len(pre))
        chunk.append((item, pre))
    flush(1)
    return result


SCORE_FIELDS = ("signal_id", "listener_id", "system_id", "level",
                "raw_score", "zero_norm_frames")


def _score_store(cache: Path, sources: list, tuples: list, level: str):
    """<cache>/<key>.<level>.sim.json, the stored scores of `tuples`, the distinct
    tuples of four sources in the order the trials meet them, or None if a
    source cannot be read. The key is sha256 over each tuple's level keys
    (fixed-width hex) and the level."""
    if any(isinstance(keys, OSError) for _, keys, _, _ in sources):
        return None
    key = _hash(*(sources[i][1][level].encode() for t in tuples for i in t), level.encode())
    return cache / f"{key}.{level}.sim.json"


def _stored(path: Path, level: str, n: int) -> list[sim.SimilarityScore]:
    """The n scores of `level` in score store `path`, a JSON object
    {"level": level, "scores": [[raw score, zero_norm_frames], ...]};
    anything else, or a score that SimilarityScore rejects, is a
    FormatError naming the file."""
    store = reps.require_keys(reps.read_json(path, "score store"), ("level", "scores"), str(path))
    if store["level"] != level:
        raise reps.FormatError(f"{path}: level {store['level']!r} is not {level!r}")
    pairs = store["scores"]
    if not isinstance(pairs, list) or len(pairs) != n:
        raise reps.FormatError(f"{path}: 'scores' must be an array of {n} pairs")
    scores = []
    for i, pair in enumerate(pairs):
        v, z = pair if isinstance(pair, list) and len(pair) == 2 else (None, None)
        if not (reps.matches(v, float) and reps.matches(z, int)):
            raise reps.FormatError(f"{path}: score {i} {pair!r} is not a [number, integer] pair")
        try:
            scores.append(sim.SimilarityScore(float(v), level, z))
        except ValueError as e:
            raise reps.FormatError(f"{path}: {e}") from e
    return scores


def run_sim(manifest_path, cache_dir, scores_path, cfg: PipelineConfig) -> StageResult:
    """Score every trial at the configured level and write scores.csv.

    If every source is readable and the score store of its tuples exists, every
    score comes from it, no representation is read and `skipped` counts every
    trial. Otherwise each distinct .hrep is read once and each distinct tuple
    of four sources is scored once; a representation is dropped after the
    last trial that names it, and a pass in which every trial scored stores
    its scores in that store.
    """
    records = sorted(reps.load_manifest(manifest_path, wcs_percent=cfg.wcs_percent),
                     key=lambda r: (r.signal_id, r.listener_id))
    sources, slots = _sources(records, manifest_path, cfg)
    cache = Path(cache_dir)
    result = StageResult()
    rows = []
    last = {i: n for n, slot in enumerate(slots) for i in slot}  # last trial naming each source
    held: dict[int, reps.RepSequence] = {}
    scored: dict[tuple, sim.SimilarityScore] = {}
    tuples = list(dict.fromkeys(slots))  # distinct, in the order the trials meet them
    store = _score_store(cache, sources, tuples, cfg.level)
    if store is not None and store.exists():
        scored = dict(zip(tuples, _stored(store, cfg.level, len(tuples))))
        result.skipped = len(records)

    def load(i):
        if i not in held:
            held[i] = reps.read_reps(_cached(cache, sources[i], cfg.level))
        return held[i]

    def score(slot):
        chans = [load(i) for i in slot]
        return sim.binaural_similarity(reps.BinauralRep(*chans[:2]), reps.BinauralRep(*chans[2:]))

    for n, (rec, slot) in enumerate(zip(records, slots)):
        with _trial(result, cfg, "sim", rec.signal_id):
            if slot not in scored:
                scored[slot] = score(slot)
            value = scored[slot]
            rows.append((rec.signal_id, rec.listener_id, rec.system_id, cfg.level,
                         f"{value.value:.12g}", value.zero_norm_frames))
        for i in slot:
            if last[i] == n:
                held.pop(i, None)

    if store is not None and tuples and not (result.skipped or result.failures):
        reps.write_json(store, {"level": cfg.level, "scores": [
            (s.value, s.zero_norm_frames) for s in scored.values()]})
    reps.write_csv(scores_path, [SCORE_FIELDS, *rows])
    result.written = len(rows)
    return result


def read_scores(scores_path) -> list[dict]:
    try:
        with Path(scores_path).open(newline="") as f:
            # the benchmark's generated scores files open with a `# generated` line
            reader = csv.DictReader(itertools.dropwhile(lambda ln: ln.startswith("#"), f))
            missing = [k for k in SCORE_FIELDS if k not in (reader.fieldnames or ())]
            if missing:
                raise reps.FormatError(f"{scores_path}: no {missing[0]!r} column")
            rows = list(reader)
    except csv.Error as e:  # e.g. a field over csv.field_size_limit()
        raise reps.FormatError(f"{scores_path}: {e}") from e
    for i, row in enumerate(rows):
        try:
            row["raw_score"] = float(row["raw_score"])
            row["zero_norm_frames"] = int(row["zero_norm_frames"])
        except (TypeError, ValueError) as e:
            raise reps.FormatError(f"{scores_path}: score row {i}: {e}") from e
        if not math.isfinite(row["raw_score"]):
            raise reps.FormatError(
                f"{scores_path}: score row {i}: raw_score {row['raw_score']} is not finite")
    return rows


def _labelled(scores_path, manifest_path, cfg: PipelineConfig, splits) -> tuple:
    """The manifest records, raw scores and correctness of the score rows in
    `splits` whose correctness is known, the number of rows in `splits` whose
    correctness is not (NaN), which carry nothing to fit or score against,
    and the level of the scores (None if there are no rows). A scores file
    holds one row per (signal_id, listener_id) and one level."""
    records = reps.load_manifest(manifest_path, wcs_percent=cfg.wcs_percent)
    by_key = {(r.signal_id, r.listener_id): r for r in records}
    rows = read_scores(scores_path)
    levels = {row["level"] for row in rows}
    if len(levels) > 1 or not levels <= set(reps.LEVELS):
        raise reps.FormatError(f"{scores_path}: score rows must share one level of "
                               f"{', '.join(reps.LEVELS)}; found {', '.join(sorted(levels))}")
    labelled, raw, truth, n_rows = [], [], [], 0
    for row in rows:
        key = (row["signal_id"], row["listener_id"])
        # each record joins one score row, so a repeated row finds its record gone
        rec = by_key.pop(key, None)
        if rec is None:
            if key in {(r.signal_id, r.listener_id) for r in records}:
                raise reps.FormatError(
                    f"{scores_path}: duplicate score row for (signal_id, listener_id) {key}")
            raise PipelineError(
                f"score row ({row['signal_id']}, {row['listener_id']}) not in manifest")
        if rec.split in splits:
            n_rows += 1
            if math.isfinite(rec.correctness):
                labelled.append(rec)
                raw.append(row["raw_score"])
                truth.append(rec.correctness)
    return (labelled, np.array(raw), np.array(truth), n_rows - len(labelled),
            next(iter(levels), None))


@contextlib.contextmanager
def _naming(scores_path):
    """Prefix the path of the scores a metric error came from."""
    try:
        yield
    except calib.MetricError as e:
        raise calib.MetricError(f"{scores_path}: {e}") from e


def run_fit(scores_path, manifest_path, params_path, cfg: PipelineConfig) -> calib.LogisticParams:
    """Fit the logistic mapping on the configured split; never reads eval WCS."""
    splits = FIT_SPLITS[cfg.fit_split]
    recs, raw, truth, n_dropped, _ = _labelled(scores_path, manifest_path, cfg, splits)
    if not (recs or n_dropped):
        raise PipelineError(f"no trials in split(s) {splits} to fit on")
    with _naming(scores_path):
        params = calib.fit_logistic(zip(raw, truth))
        fit_rmse = calib.rmse(calib.logistic(raw, params), truth)
    reps.write_json(params_path, {"a": params.a, "b": params.b, "fit_rmse": fit_rmse,
                                  "n_dev": len(recs), "n_dropped": n_dropped})
    return params


GROUPINGS = ("listener", "system")
GROUP_STATS = ("pred_mean", "truth_mean", "pred_stderr", "truth_stderr")


def run_eval(scores_path, manifest_path, params_path, out_dir,
             cfg: PipelineConfig) -> dict:
    """Evaluate on the eval split; writes report.json and the listener-wise
    and system-wise CSVs."""
    params_raw = reps.require_keys(reps.read_json(params_path, "params"), ("a", "b"),
                                   str(params_path))
    for key in ("a", "b"):
        value = params_raw[key]
        if not reps.matches(value, float):
            raise reps.FormatError(f"{params_path}: {key!r} must be a number")
        if not math.isfinite(value):
            raise reps.FormatError(f"{params_path}: {key!r} {value} is not finite")
    params = calib.LogisticParams(a=params_raw["a"], b=params_raw["b"])
    rows, raw, truth, n_dropped, level = _labelled(scores_path, manifest_path, cfg, ("eval",))
    if not (rows or n_dropped):
        raise PipelineError("eval split is empty")
    if not rows:
        raise PipelineError(f"none of the {n_dropped} eval trials is labelled")

    with _naming(scores_path):
        mapped = calib.logistic(raw, params)
        trial = {"rmse": calib.rmse(mapped, truth), "ncc": calib.ncc(mapped, truth)}
        # raw-score metrics labelled separately: no logistic mapping applied
        trial_raw = calib.metrics(raw, truth)
        report = {
            "level": level,
            "params": {"a": params.a, "b": params.b},
            # the monotone logistic map keeps every rank: tau is the raw scores' tau
            "trial": {**trial, "kt": trial_raw["kt"], "n_trials": len(rows), "grouping": "trial"},
            "trial_raw": trial_raw,
            "n_dropped": n_dropped,
        }
        for by in GROUPINGS:
            ids = [getattr(r, f"{by}_id") for r in rows]
            report[by] = {**calib.group_aggregate(ids, mapped, truth), "grouping": by}
    out = Path(out_dir)
    reps.write_json(out / "report.json", report)
    for by in GROUPINGS:
        reps.write_csv(out / f"report_{by}.csv", [(by, *GROUP_STATS)] + [
            (g["id"], *(f"{g[k]:.12g}" for k in GROUP_STATS)) for g in report[by]["groups"]])
    return report

"""On-disk representation format (.hrep) and trial manifests.

A .hrep file stores one T x d float32 matrix of hidden representations for
one channel of one signal, tagged with the level it was taken from.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"HREP"
VERSION = 1

LEVELS = ("input", "pre", "enc", "dec")
CHANNELS = ("left", "right")
SPLITS = ("train", "dev", "eval")

_LEVEL_CODE = {name: i for i, name in enumerate(LEVELS)}
_CHANNEL_CODE = {name: i for i, name in enumerate(CHANNELS)}


class FormatError(Exception):
    """Malformed .hrep file or manifest."""


@dataclass(frozen=True)
class RepSequence:
    data: np.ndarray  # T x d, float32
    level: str
    channel: str
    signal_id: str

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"representation must be a nonempty T x d matrix, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("representation contains non-finite values")
        if self.level not in LEVELS:
            raise ValueError(f"unknown level {self.level!r}")
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        object.__setattr__(self, "data", arr)

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class BinauralRep:
    left: RepSequence
    right: RepSequence

    def __post_init__(self):
        if self.left.level != self.right.level:
            raise ValueError("binaural channels must share a level")
        if self.left.signal_id != self.right.signal_id:
            raise ValueError("binaural channels must share a signal_id")
        if self.left.dim != self.right.dim:
            raise ValueError("binaural channels must share a dimension")
        # decoder sequences come from free-running decoding and may differ in length
        if self.left.level != "dec" and self.left.n_frames != self.right.n_frames:
            raise ValueError(
                f"channel lengths differ at level {self.left.level}: "
                f"{self.left.n_frames} vs {self.right.n_frames}"
            )

    @property
    def level(self) -> str:
        return self.left.level

    @property
    def signal_id(self) -> str:
        return self.left.signal_id


def write_reps(rep: RepSequence, path) -> None:
    t, d = rep.data.shape
    sid = rep.signal_id.encode("utf-8")
    if len(sid) > 0xFFFF:
        raise ValueError("signal_id too long")
    header = MAGIC + struct.pack(
        "<BBBBIIH", VERSION, _LEVEL_CODE[rep.level], _CHANNEL_CODE[rep.channel],
        0, t, d, len(sid),
    )
    payload = np.ascontiguousarray(rep.data, dtype="<f4").tobytes()
    # renamed into place, so a crash or concurrent writer never leaves a torn `path`
    tmp = Path(f"{path}.{os.urandom(8).hex()}.tmp")
    try:
        tmp.write_bytes(header + sid + payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_reps(path) -> RepSequence:
    raw = Path(path).read_bytes()
    if len(raw) < 18:
        raise FormatError(f"{path}: truncated header")
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic")
    version, level_c, channel_c, _reserved, t, d, sid_len = struct.unpack("<BBBBIIH", raw[4:18])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if level_c >= len(LEVELS) or channel_c >= len(CHANNELS):
        raise FormatError(f"{path}: invalid level/channel code")
    off = 18
    if len(raw) < off + sid_len:
        raise FormatError(f"{path}: truncated signal_id")
    sid = raw[off:off + sid_len].decode("utf-8")
    off += sid_len
    expected = t * d * 4
    if len(raw) - off != expected:
        raise FormatError(
            f"{path}: payload has {len(raw) - off} bytes, header declares {expected}"
        )
    data = np.frombuffer(raw[off:], dtype="<f4").reshape(t, d)
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: non-finite values in payload")
    return RepSequence(data=data, level=LEVELS[level_c], channel=CHANNELS[channel_c], signal_id=sid)


@dataclass(frozen=True)
class TrialRecord:
    signal_id: str
    listener_id: str
    system_id: str
    correctness: float  # word correctness in [0, 1]
    ref_left: str
    ref_right: str
    proc_left: str
    proc_right: str
    split: str

    def __post_init__(self):
        if not self.signal_id or not self.listener_id or not self.system_id:
            raise ValueError("signal_id, listener_id, and system_id must be nonempty")
        # NaN marks unknown ground truth (e.g. undisclosed eval labels); any
        # known score must be a fraction in [0, 1]
        if not math.isnan(self.correctness) and not (0.0 <= self.correctness <= 1.0):
            raise ValueError(f"correctness {self.correctness} outside [0, 1]")
        if self.split not in SPLITS:
            raise ValueError(f"unknown split {self.split!r}")


def read_json(path, what: str):
    """The JSON value in file `path`. A file that is not JSON is a
    FormatError naming it as `what`; an OSError names the path itself."""
    try:
        return json.loads(Path(path).read_bytes())
    except ValueError as e:
        raise FormatError(f"{what} {path} is not JSON: {e}") from e


def require_keys(obj, keys, where: str) -> dict:
    """`obj` if it is a JSON object holding every one of `keys`."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where} is not a JSON object")
    for key in keys:
        if key not in obj:
            raise FormatError(f"{where}: missing key {key!r}")
    return obj


_REQUIRED_KEYS = (
    "signal_id", "listener_id", "system_id", "correctness",
    "ref_left", "ref_right", "proc_left", "proc_right", "split",
)


def load_manifest(path, wcs_percent: bool = False, lenient: bool = False) -> list[TrialRecord]:
    """Load and validate a JSON trial manifest.

    With wcs_percent, correctness values on a 0-100 scale are divided by 100.
    Strict mode checks that each distinct referenced path exists, once, and
    raises on the first missing one; lenient mode does not check (the stages
    report unreadable files when they read them).
    """
    entries = read_json(path, "manifest")
    if not isinstance(entries, list):
        raise FormatError(f"{path}: manifest must be a JSON array")

    records = []
    seen = set()
    for i, entry in enumerate(entries):
        require_keys(entry, _REQUIRED_KEYS, f"{path}: entry {i}")
        wcs = entry["correctness"]
        if wcs is not None and (isinstance(wcs, bool) or not isinstance(wcs, (int, float))):
            raise FormatError(f"{path}: entry {i}: correctness {wcs!r} is not a number")
        wcs = math.nan if wcs is None else float(wcs)  # strict JSON has no NaN: null is unknown
        if wcs_percent:
            wcs /= 100.0
        try:
            rec = TrialRecord(
                signal_id=str(entry["signal_id"]),
                listener_id=str(entry["listener_id"]),
                system_id=str(entry["system_id"]),
                correctness=wcs,
                ref_left=str(entry["ref_left"]),
                ref_right=str(entry["ref_right"]),
                proc_left=str(entry["proc_left"]),
                proc_right=str(entry["proc_right"]),
                split=str(entry["split"]),
            )
        except ValueError as e:
            raise FormatError(f"{path}: entry {i}: {e}") from e
        key = (rec.signal_id, rec.listener_id)
        if key in seen:
            raise FormatError(f"{path}: duplicate (signal_id, listener_id) pair {key}")
        seen.add(key)
        records.append(rec)

    if not lenient:
        exists: dict[str, bool] = {}
        for rec in records:
            for p in (rec.ref_left, rec.ref_right, rec.proc_left, rec.proc_right):
                if p not in exists:
                    exists[p] = _locate(path, p) is not None
                if not exists[p]:
                    raise FormatError(f"{path}: trial {rec.signal_id} references missing file {p}")
    return records


def _locate(manifest_path, ref: str) -> Path | None:
    """The first of <manifest dir>/ref and ref that exists, or None."""
    return next((p for p in (Path(manifest_path).parent / ref, Path(ref)) if p.exists()), None)


def resolve_path(manifest_path, ref: str) -> Path:
    """Resolve a manifest-relative path, falling back to the raw path."""
    return _locate(manifest_path, ref) or Path(ref)

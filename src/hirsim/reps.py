"""On-disk formats of the cache (.hrep) and trial manifests.

A .hrep file stores one T x d float32 matrix of hidden representations for
one channel of one signal, tagged with the level it was taken from. Every
file hirsim writes goes through `replacing`; a JSON or CSV file, such as the
score store of a `sim` pass, through `write_json` or `write_csv`.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import struct
import types
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

MAGIC = b"HREP"
VERSION = 1

LEVELS = ("input", "pre", "enc", "dec")
CHANNELS = ("left", "right")
SPLITS = ("train", "dev", "eval")

_LEVEL_CODE = {name: i for i, name in enumerate(LEVELS)}
_CHANNEL_CODE = {name: i for i, name in enumerate(CHANNELS)}


class FormatError(ValueError):
    """Malformed .hrep file or manifest."""


# eq=False: equality and hashing by identity, since the generated ones would
# compare and hash the ndarray field, which raises
@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@contextlib.contextmanager
def replacing(path, mode: str = "wb", **kwargs):
    """A file opened on the temporary name `<path>.<16 hex digits>.tmp` and
    renamed to `path` when the block ends, so a crash or a concurrent writer
    never leaves a torn `path`: it holds the old bytes or the new. If the
    block or the rename raises, the temporary file is removed. Only a killed
    process leaves one; nothing reads it."""
    tmp = Path(f"{path}.{os.urandom(8).hex()}.tmp")
    try:
        with tmp.open(mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """Write `obj` to `path` as strict JSON, indented by 2, keys sorted."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with replacing(path, "w") as f:
        f.write(text)


def write_csv(path, rows) -> None:
    """Write `rows` to `path` in the csv module's default dialect."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with replacing(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def write_reps(rep: RepSequence, path) -> None:
    t, d = rep.data.shape
    sid = rep.signal_id.encode("utf-8")
    if len(sid) > 0xFFFF:
        raise ValueError("signal_id too long")
    header = MAGIC + struct.pack(
        "<BBBBIIH", VERSION, _LEVEL_CODE[rep.level], _CHANNEL_CODE[rep.channel],
        0, t, d, len(sid),
    )
    payload = np.ascontiguousarray(rep.data, dtype="<f4")
    with replacing(path) as f:
        f.write(header)
        f.write(sid)
        f.write(payload)


def _read_header(f, path) -> tuple[str, str, str, int, int]:
    """The level, channel, signal_id, T and d in the header of .hrep file
    `path`, open as `f`, which is left at the payload."""
    head = f.read(18)
    if len(head) < 18:
        raise FormatError(f"{path}: truncated header")
    if head[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic")
    version, level_c, channel_c, _reserved, t, d, sid_len = struct.unpack("<BBBBIIH", head[4:])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if level_c >= len(LEVELS) or channel_c >= len(CHANNELS):
        raise FormatError(f"{path}: invalid level/channel code")
    sid = f.read(sid_len)
    if len(sid) < sid_len:
        raise FormatError(f"{path}: truncated signal_id")
    try:
        return LEVELS[level_c], CHANNELS[channel_c], sid.decode("utf-8"), t, d
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: signal_id is not UTF-8: {e}") from None


def read_shape(path) -> tuple[int, int]:
    """The (T, d) in the header of .hrep file `path`; the payload is not read."""
    with open(path, "rb") as f:
        return _read_header(f, path)[3:]


def read_reps(path) -> RepSequence:
    """The representation in .hrep file `path`. The payload size the header
    declares is checked against the file's before anything is allocated, and
    the payload is read straight into the returned array."""
    with open(path, "rb") as f:
        level, channel, sid, t, d = _read_header(f, path)
        expected = t * d * 4
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size == expected:
            data = np.empty((t, d), dtype="<f4")
            size = f.readinto(data)  # short if the file shrank since fstat
        if size != expected:
            raise FormatError(f"{path}: payload has {size} bytes, header declares {expected}")
    try:
        return RepSequence(data=data, level=level, channel=channel, signal_id=sid)
    except ValueError as e:  # an empty matrix, or non-finite values
        cause = e if np.isfinite(data).all() else "non-finite values in payload"
        raise FormatError(f"{path}: {cause}") from None


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


def _json_int(text: str) -> int:
    value = int(text)
    float(value)  # OverflowError if no float can hold it
    return value


def read_json(path, what: str):
    """The JSON value in file `path`. A file that is not JSON, or that holds
    an integer no float can hold, is a FormatError naming it as `what`; an
    OSError names the path itself."""
    try:
        return json.loads(Path(path).read_bytes(), parse_int=_json_int)
    except ValueError as e:
        raise FormatError(f"{what} {path} is not JSON: {e}") from e
    except OverflowError:
        raise FormatError(f"{what} {path} holds an integer beyond float range") from None


def matches(value, hint) -> bool:
    """Whether JSON `value` is of type `hint`: an int is a float, a bool is
    not a number, and a tuple comes as an array."""
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        return isinstance(value, list) and all(matches(v, typing.get_args(hint)[0])
                                               for v in value)
    if isinstance(hint, types.UnionType):  # X | Y
        return any(matches(value, h) for h in typing.get_args(hint))
    return isinstance(value, hint)


def require_keys(obj, keys, where: str) -> dict:
    """`obj` if it is a JSON object holding every one of `keys`."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where} is not a JSON object")
    for key in keys:
        if key not in obj:
            raise FormatError(f"{where}: missing key {key!r}")
    return obj


def _text(value, path, i: int, key: str) -> str:
    """A text field of manifest entry `i` that is not a JSON string: a number,
    as its string; anything else is a FormatError."""
    if not matches(value, float):
        raise FormatError(f"{path}: entry {i}: {key} {value!r} is not a string or number")
    return str(value)


def load_manifest(path, wcs_percent: bool = False) -> list[TrialRecord]:
    """Load and validate a JSON trial manifest.

    With wcs_percent, correctness values on a 0-100 scale are divided by 100.
    The other fields are text: a JSON number is taken as its string, and null,
    a boolean, an array or an object is a FormatError.
    Source files are not looked at here: the stage that reads one reports it
    if it is missing or unreadable.
    """
    entries = read_json(path, "manifest")
    if not isinstance(entries, list):
        raise FormatError(f"{path}: manifest must be a JSON array")

    names = [f.name for f in fields(TrialRecord)]
    required = set(names)
    records = []
    seen = set()
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and entry.keys() >= required):
            require_keys(entry, names, f"{path}: entry {i}")  # names the first missing field
        wcs = entry["correctness"]
        # a float, nearly every entry, is let through without a call
        if type(wcs) is not float and wcs is not None and not matches(wcs, float):
            raise FormatError(f"{path}: entry {i}: correctness {wcs!r} is not a number")
        wcs = math.nan if wcs is None else float(wcs)  # strict JSON has no NaN: null is unknown
        if wcs_percent:
            wcs /= 100.0
        values = [wcs if k == "correctness" else
                  v if type(v := entry[k]) is str else _text(v, path, i, k) for k in names]
        try:  # TrialRecord's checks only: _text's FormatError is a ValueError too
            rec = TrialRecord(*values)
        except ValueError as e:
            raise FormatError(f"{path}: entry {i}: {e}") from e
        key = (rec.signal_id, rec.listener_id)
        if key in seen:
            raise FormatError(f"{path}: duplicate (signal_id, listener_id) pair {key}")
        seen.add(key)
        records.append(rec)
    return records


def resolve_path(manifest_path, ref: str) -> Path:
    """<manifest dir>/ref if it exists, else ref as given."""
    local = Path(manifest_path).parent / ref
    return local if local.exists() else Path(ref)

"""Span tracing of hirsim's public functions, from outside the program.

``Tracer.install`` replaces each probed function, looked up by its module
attribute path at run time, with a wrapper that records a span (name, start,
end, parent) and derives work counts from the call's arguments and return
value. A probe whose target no longer exists is reported as absent, so the
benchmark keeps running when a later change fuses or renames a function.

Spans stay in memory; ``metrics`` folds them into per-layer totals and
``self_times`` subtracts each span's children from its duration.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list; None for a root span

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Calls are single-threaded, so children of one span never overlap and
    their summed durations are the part of the parent's interval they cover.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _data(x):
    return getattr(x, "data", x)


# Count extractors: (tracer, bound arguments, return value) -> None.
def _logmel(t, a, ret):
    t.count("feats.logmel.frames", _data(ret).shape[0])
    t.distinct("feats.logmel", (_digest(a["signal_channel"]), a["channel"]))


def _toy_forward(t, a, ret):
    f = a["features"]
    t.distinct("asr.toy_forward", (_digest(f.data), f.channel))


def _decode_greedy(t, a, ret):
    _, emitted = ret
    # one step per emitted token plus the step that emitted the end symbol
    t.count("asr.decode.steps", min(len(emitted) + 1, a["self"].cfg.max_decode_len))


def _decoder_block(t, a, ret):
    t.count("asr.decoder_block_forward.rows", a["Y"].shape[0])


def _read_reps(t, a, ret):
    t.count("reps.read_reps.bytes", os.path.getsize(a["path"]))


def _write_reps(t, a, ret):
    t.count("reps.write_reps.bytes", os.path.getsize(a["path"]))


def _binaural_similarity(t, a, ret):
    ref, proc = a["ref"], a["proc"]
    t.distinct("sim.binaural_similarity",
               (_digest(ref.left.data, ref.right.data, proc.left.data, proc.right.data),
                ref.level))


def _dtw(t, a, ret):
    t.count("sim.dtw.cells", _data(a["H"]).shape[0] * _data(a["H_hat"]).shape[0])


def _kendall(t, a, ret):
    t.maximum("calib.kendall_tau.max_n", len(a["pred"]))


def _stage_counts(name):
    def counts(t, a, ret):
        t.count(f"{name}.written", ret.written)
        t.count(f"{name}.skipped", ret.skipped)
    return counts


# Probed functions, by the attribute path they are looked up under at call time.
PROBES = {
    "hirsim.feats.read_wav": None,
    "hirsim.feats.logmel": _logmel,
    "hirsim.feats.mel_filterbank": None,
    "hirsim.asr.toy_forward": _toy_forward,
    "hirsim.asr.ToyAsr.__init__": None,
    "hirsim.asr.ToyAsr.prenet": None,
    "hirsim.asr.ToyAsr.encode": None,
    "hirsim.asr.ToyAsr.decode_greedy": _decode_greedy,
    "hirsim.asr.encoder_block_forward": None,
    "hirsim.asr.decoder_block_forward": _decoder_block,
    "hirsim.reps.load_manifest": None,
    "hirsim.reps.read_reps": _read_reps,
    "hirsim.reps.write_reps": _write_reps,
    "hirsim.sim.binaural_similarity": _binaural_similarity,
    "hirsim.sim.framewise_binaural_sim": None,
    "hirsim.sim.binaural_warped_sim": None,
    "hirsim.sim.dtw_path_fast": _dtw,
    "hirsim.calib.fit_logistic": None,
    "hirsim.calib.kendall_tau": _kendall,
    "hirsim.calib.group_aggregate": None,
    "hirsim.pipeline.run_featurize": _stage_counts("pipeline.run_featurize"),
    "hirsim.pipeline.run_forward": _stage_counts("pipeline.run_forward"),
    "hirsim.pipeline.run_sim": None,
    "hirsim.pipeline.run_fit": None,
    "hirsim.pipeline.run_eval": None,
}


def span_name(target: str) -> str:
    """'hirsim.asr.ToyAsr.__init__' -> 'asr.ToyAsr.init'."""
    return target.split(".", 1)[1].replace("__init__", "init")


def _resolve(target: str):
    """(owner, attribute) for a dotted path whose prefix is an importable module."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if hasattr(owner, parts[-1]):
            return owner, parts[-1]
        return None
    return None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.absent: list[str] = []
        self.count_errors: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def count(self, name: str, n) -> None:
        self.counts[name] += n

    def maximum(self, name: str, n) -> None:
        self.counts[name] = max(self.counts[name], n)

    def distinct(self, prefix: str, key) -> None:
        self.keys[prefix].add(key)

    def install(self, probes=PROBES) -> None:
        for target, counts in probes.items():
            found = _resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attr = found
            orig = getattr(owner, attr)
            self._installed.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(span_name(target), orig, counts))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    def _wrap(self, name: str, fn, counts):
        sig = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = self.clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if counts is not None:
                # a counter that no longer fits the function's signature must
                # not break the traced program; it is reported instead
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts(self, bound.arguments, ret)
                except Exception as e:  # noqa: BLE001
                    self.count_errors.append(f"{name}: {type(e).__name__}: {e}")
            return ret
        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-name calls, inclusive seconds and self seconds, plus counts and
        useful ratios (distinct inputs / calls; 0 when there were no calls)."""
        out: dict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self_times(self.spans)):
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.s"] += span.duration
            out[f"{span.name}.self_s"] += self_s
        out.update(self.counts)
        for prefix in ("feats.logmel", "asr.toy_forward", "sim.binaural_similarity"):
            calls = out[f"{prefix}.calls"]
            out[f"{prefix}.useful_ratio"] = len(self.keys[prefix]) / calls if calls else 0.0
        return dict(out)

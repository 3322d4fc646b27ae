"""Host speed probe: samples how fast one CPU runs a fixed piece of work.

    python3 perfbench/speedprobe.py

``run.py`` starts it pinned to the CPU that the pass processes run on. Every
``INTERVAL_S`` it runs ``probe()`` and times it by its own CPU time, so time
spent waiting while a pass runs does not count; what is left varies only with
how fast the CPU is at that moment. When its standard input closes it prints
the samples as one JSON list of ``[monotonic time at the end, CPU seconds]``.
"""

import json
import select
import sys
import time

import numpy as np

INTERVAL_S = 0.04

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((48, 64))
_W = _rng.standard_normal((64, 64))
_F = _rng.standard_normal((8, 400))


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _affine(p: _Point, k: float) -> float:
    return p.a * k + p.b


def probe() -> None:
    """A fixed mix of the work a pass does: mostly interpreter work (objects,
    calls, dicts, strings), then small matrix products and an FFT. It never
    changes, so its time measures the host, not the program under test."""
    acc = 0.0
    d = {}
    for i in range(600):
        p = _Point(i, 1.5)
        acc += _affine(p, 2.0)
        d[str(i)] = [p.a, p.b]
    acc += sum(len(v) for v in d.values())
    "".join(f"{k}:{v[0]}," for k, v in d.items())
    for _ in range(10):
        y = np.maximum(_X @ _W, 0.0)
        y -= y.mean(axis=1, keepdims=True)
    np.abs(np.fft.rfft(_F, axis=1))


def main() -> int:
    samples = []
    while True:
        c = time.thread_time()
        probe()
        samples.append((time.monotonic(), time.thread_time() - c))
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            if not sys.stdin.buffer.read1(4096):
                break
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

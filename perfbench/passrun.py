"""One benchmark pass in a fresh process: import hirsim, run the stages, report.

    python3 perfbench/passrun.py RESULT.json KIND DATA CACHE OUT TRACE

KIND is ``audio`` (featurize, forward, then sim, fit and eval at each level,
in the CLI's stage order) or ``calib`` (fit and eval of the workload's scores
file at each level). The import of ``hirsim.pipeline`` is timed before any
other work, so its time is the set-up a user pays in every new process.
Times are read from the monotonic clock, which all processes share, so that
the parent can match them with the speed probe's samples.
"""

import time

_t0 = time.monotonic()
from hirsim import pipeline  # noqa: E402
_t1 = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

LEVELS = ("input", "pre", "enc", "dec")


def _stages(kind: str, data: Path, cache: Path, out: Path) -> list[tuple[str, tuple]]:
    """(pipeline function name, arguments) in execution order."""
    manifest = data / "manifest.json"
    calls = []
    if kind == "audio":
        cfg = pipeline.PipelineConfig()
        calls += [("run_featurize", (manifest, cache, cfg)), ("run_forward", (manifest, cache, cfg))]
    for lv in LEVELS:
        cfg = pipeline.PipelineConfig(level=lv)
        scores = (out if kind == "audio" else data) / f"scores_{lv}.csv"
        params = out / f"params_{lv}.json"
        if kind == "audio":
            calls.append(("run_sim", (manifest, cache, scores, cfg)))
        calls += [("run_fit", (scores, manifest, params, cfg)),
                  ("run_eval", (scores, manifest, params, out / f"out_{lv}", cfg))]
    return calls


def _dir_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_pass(kind: str, data: Path, cache: Path, out: Path, trace: bool) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        from tracing import Tracer  # noqa: PLC0415 - only traced passes pay for it
        tracer = Tracer()
        tracer.install()
    calls: list[tuple[str, float, float]] = []  # name, seconds, start
    failures = 0
    cpu0 = time.process_time()
    for name, args in _stages(kind, data, cache, out):
        t = time.monotonic()
        # looked up at call time, so that traced wrappers are the ones called
        ret = getattr(pipeline, name)(*args)
        calls.append((name, time.monotonic() - t, t))
        failures += len(getattr(ret, "failures", ()))
    result = {"calls": calls, "total_s": sum(c[1] for c in calls),
              "cpu_s": time.process_time() - cpu0, "stage_failures": failures}
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics()
        if cache.exists():
            metrics["pipeline.cache.files"], metrics["pipeline.cache.bytes"] = _dir_size(cache)
        result["trace"] = {"metrics": metrics, "absent": tracer.absent,
                           "count_errors": tracer.count_errors[:20],
                           "spans": len(tracer.spans)}
        (out / "spans.json").write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent] for s in tracer.spans]))
    return result


def main(argv: list[str]) -> int:
    result_path = Path(argv[0])
    result = {"import_s": _t1 - _t0, "import_at": [_t0, _t1], "hirsim_file": pipeline.__file__}
    code = 0
    kind, data, cache, out, trace = argv[1:6]
    try:
        result.update(run_pass(kind, Path(data), Path(cache), Path(out), trace == "1"))
    except Exception:  # noqa: BLE001 - the parent counts a crashed pass as failed
        result["error"] = traceback.format_exc()
        code = 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

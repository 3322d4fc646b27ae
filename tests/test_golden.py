"""Golden outputs: every stage on `build_smoke_dataset(n_signals=4)`, against
the values committed in `golden.json`.

    PYTHONPATH=src python tests/test_golden.py   # rewrite golden.json from this checkout

At each level: the sum and L2 norm of the level's .hrep payloads and their
sum weighted by a ramp from -1 to 1 over each payload's flattened values,
every raw score as `scores.csv` holds it, the `params.json` of a fit on the
dev split, and the RMSE, NCC and Kendall's tau of each `report.json`
section. Where frames are layer-normalised (enc, dec) the sum cancels to
about 0 and the L2 norm is sqrt(frames * d) for any weights, so there the
ramp is what sees the payloads: negating them, for one, negates it. A number matches within the relative tolerance RTOL of its kind; a
payload sum or ramp also within that of its level's L2 norm; `null`, an
undefined correlation, matches only `null`. Rewrite the file only for a
deliberate numeric change, and list the values that moved.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np

from hirsim import pipeline, reps
from conftest import build_smoke_dataset

GOLDEN = Path(__file__).with_name("golden.json")
# Representations and scores come out bit-identical across OpenBLAS core
# types and numpy's SIMD dispatch; 1e-7 is about float32's precision. The fit
# starts from a LAPACK least-squares solve, and its steep dev fits move params
# and report values by up to 4e-7 between BLAS kernels.
RTOL = {"hrep": 1e-7, "scores": 1e-7, "params": 1e-5, "report": 1e-5}


def golden_values(root: Path) -> dict:
    manifest = build_smoke_dataset(root / "data", n_signals=4)
    cache = root / "cache"
    pipeline.run_featurize(manifest, cache, pipeline.PipelineConfig())
    pipeline.run_forward(manifest, cache, pipeline.PipelineConfig())
    values = {}
    for level in reps.LEVELS:
        cfg = pipeline.PipelineConfig(level=level)
        scores, params = root / f"scores_{level}.csv", root / f"params_{level}.json"
        pipeline.run_sim(manifest, cache, scores, cfg)
        pipeline.run_fit(scores, manifest, params, cfg)
        report = pipeline.run_eval(scores, manifest, params, root / f"out_{level}", cfg)
        payloads = [reps.read_reps(p).data.astype(np.float64)
                    for p in sorted(cache.glob(f"*.{level}.hrep"))]
        values[level] = {
            "hrep": {"sum": math.fsum(float(d.sum()) for d in payloads),
                     "l2": math.sqrt(math.fsum(float((d * d).sum()) for d in payloads)),
                     "ramp": math.fsum(float(np.linspace(-1.0, 1.0, d.size) @ d.ravel())
                                       for d in payloads)},
            "scores": {f"{row['signal_id']}/{row['listener_id']}": row["raw_score"]
                       for row in pipeline.read_scores(scores)},
            "params": reps.read_json(params, "params"),
            "report": {section: {k: report[section][k] for k in ("rmse", "ncc", "kt")}
                       for section in ("trial", "trial_raw", *pipeline.GROUPINGS)},
        }
    return values


def flatten(tree, prefix=""):
    """(path, value) of each leaf of nested dicts, the path joined by '/'."""
    if not isinstance(tree, dict):
        yield prefix, tree
        return
    for key, value in tree.items():
        yield from flatten(value, f"{prefix}/{key}" if prefix else key)


def test_outputs_match_the_golden_values(tmp_path):
    want = dict(flatten(json.loads(GOLDEN.read_text())))
    got = dict(flatten(golden_values(tmp_path)))
    assert sorted(got) == sorted(want)

    def close(path):
        if got[path] is None or want[path] is None:
            return got[path] is want[path]
        level, kind, key = path.split("/")[:3]
        rtol = RTOL[kind]
        scale = want[f"{level}/hrep/l2"] if kind == "hrep" and key != "l2" else 0.0
        return math.isclose(got[path], want[path], rel_tol=rtol, abs_tol=rtol * scale)

    off = [(path, got[path], want[path]) for path in want if not close(path)]
    assert not off, f"{len(off)} values differ from {GOLDEN.name} (path, got, golden): {off[:5]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        reps.write_json(GOLDEN, golden_values(Path(tmp)))

"""Command-line interface.

Subcommands: featurize, forward, sim, fit, eval, report.
Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import pipeline, reps

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hirsim",
                description="Intelligibility prediction from hidden-representation similarity")
    p.add_argument("--manifest", help="trial manifest JSON")
    p.add_argument("--cache-dir", default="cache", help="representation cache directory")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--level", choices=list(reps.LEVELS), help="representation level")
    p.add_argument("--fit-split", choices=list(pipeline.FIT_SPLITS),
                   help="split the logistic mapping is fitted on")
    p.add_argument("--wcs-percent", action="store_true", default=None,
                   help="manifest correctness is on a 0-100 scale")
    p.add_argument("--lenient", action="store_true", default=None,
                   help="report per-trial failures instead of aborting")

    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("featurize", help="compute input-level log-mel representations")
    sp = sub.add_parser("forward", help="run the toy ASR over cached input representations")
    sp.add_argument("--levels", default=",".join(pipeline.MODEL_LEVELS),
                    help="comma-separated levels to write (subset of %(default)s)")
    sp = sub.add_parser("sim", help="score every trial at the chosen level")
    sp.add_argument("--scores", default="scores.csv", help="output CSV path")
    sp = sub.add_parser("fit", help="fit the logistic calibration mapping")
    sp.add_argument("--scores", default="scores.csv")
    sp.add_argument("--params", default="params.json", help="output params JSON path")
    sp = sub.add_parser("eval", help="evaluate predictions on the eval split")
    sp.add_argument("--scores", default="scores.csv")
    sp.add_argument("--params", default="params.json")
    sp.add_argument("--out-dir", default=".", help="directory for report files")
    sp = sub.add_parser("report", help="print a summary of an existing report.json")
    sp.add_argument("--report", default="report.json")
    return p


# PipelineConfig fields a global flag of the same name overrides when given
_CONFIG_FLAGS = ("level", "fit_split", "wcs_percent", "lenient")


def _make_config(args) -> pipeline.PipelineConfig:
    cfg = pipeline.load_config(args.config) if args.config else pipeline.PipelineConfig()
    overrides = {k: getattr(args, k) for k in _CONFIG_FLAGS if getattr(args, k) is not None}
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _require_manifest(args) -> str:
    if not args.manifest:
        print("error: --manifest is required for this command", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    return args.manifest


def _report_stage(name: str, result: pipeline.StageResult, summary: str | None = None) -> int:
    print(summary or f"{name}: {result.written} written, {result.skipped} up to date, "
          f"{len(result.failures)} failed")
    for sid, msg in result.failures:
        print(f"  FAILED {sid}: {msg}", file=sys.stderr)
    return EXIT_DATA if result.failures else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _make_config(args)
        if args.command == "featurize":
            res = pipeline.run_featurize(_require_manifest(args), args.cache_dir, cfg)
            return _report_stage("featurize", res)
        if args.command == "forward":
            levels = tuple(s.strip() for s in args.levels.split(",") if s.strip())
            res = pipeline.run_forward(_require_manifest(args), args.cache_dir, cfg,
                                       levels=levels)
            return _report_stage("forward", res)
        if args.command == "sim":
            res = pipeline.run_sim(_require_manifest(args), args.cache_dir,
                                   args.scores, cfg)
            return _report_stage("sim", res, f"sim: {res.written} trials scored -> {args.scores}")
        if args.command == "fit":
            params = pipeline.run_fit(args.scores, _require_manifest(args),
                                      args.params, cfg)
            print(f"fit: a={params.a:.6g} b={params.b:.6g} -> {args.params}")
            return EXIT_OK
        if args.command == "eval":
            report = pipeline.run_eval(args.scores, _require_manifest(args),
                                       args.params, args.out_dir, cfg)
            _print_report(report, Path(args.out_dir) / "report.json")
            return EXIT_OK
        # report, the one command left: the parser exits 1 on an unknown one
        _print_report(reps.read_json(args.report, "report"), args.report)
        return EXIT_OK
    except pipeline.DATA_ERRORS as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # noqa: BLE001 - stable exit-code contract
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def _print_report(report: dict, source) -> None:
    print(f"level: {reps.require_keys(report, (), str(source)).get('level', '?')}")
    for section in ("trial", "trial_raw", "listener", "system"):
        if section not in report:
            continue
        where = f"{source}: {section!r}"
        m, shown = reps.require_keys(report[section], ("rmse", "ncc", "kt"), where), []
        for k in ("rmse", "ncc", "kt"):
            if not reps.matches(m[k], float | None):
                raise reps.FormatError(f"{where}: {k!r} must be a number or null")
            shown.append(f"{k.upper()} {float('nan') if m[k] is None else m[k]:#.4g}")
        print(f"{section:>10}: " + "  ".join(shown))


if __name__ == "__main__":
    sys.exit(main())

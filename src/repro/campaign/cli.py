"""The ``qdd-tool campaign`` sub-commands (run / resume / report / diff).

Kept out of :mod:`repro.tool.cli` so the top-level CLI stays a thin
dispatcher; that module registers :func:`add_campaign_parser` and routes
``campaign`` to :func:`cmd_campaign`.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict

from repro.errors import CampaignError

__all__ = ["add_campaign_parser", "cmd_campaign"]

DEFAULT_OUT_ROOT = os.path.join("benchmarks", "results", "campaigns")


def add_campaign_parser(commands) -> None:
    """Register the ``campaign`` subcommand tree on the CLI parser."""
    campaign = commands.add_parser(
        "campaign",
        help="run declarative experiment campaigns (sweeps with resume "
             "and regression gating; see docs/campaigns.md)",
    )
    actions = campaign.add_subparsers(dest="campaign_command", required=True)

    run = actions.add_parser(
        "run", help="run a campaign spec (resumes automatically if the "
                    "output directory already journals this spec)"
    )
    run.add_argument("spec", help="path to a .json campaign spec")
    _add_run_arguments(run)
    run.add_argument("--fresh", action="store_true",
                     help="discard any existing manifest instead of resuming")

    resume = actions.add_parser(
        "resume", help="resume an interrupted campaign from its output "
                       "directory (uses the spec copy journaled there)"
    )
    resume.add_argument("out", help="campaign output directory")
    resume.add_argument("--baseline", metavar="ARTIFACT", default=None,
                        help="gate the finished aggregate against this "
                             "baseline artifact")
    resume.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")

    report = actions.add_parser(
        "report", help="re-aggregate a campaign directory's manifest and "
                       "print the markdown report"
    )
    report.add_argument("out", help="campaign output directory")
    report.add_argument("--json", action="store_true",
                        help="print the aggregate artifact as JSON instead")

    diff = actions.add_parser(
        "diff", help="gate a campaign artifact against a baseline artifact "
                     "(exit 1 on regression)"
    )
    diff.add_argument("current", help="new artifact (file or campaign dir)")
    diff.add_argument("baseline", help="baseline artifact (file or dir)")
    diff.add_argument("--json", action="store_true",
                      help="emit the diff report as JSON")


def _add_run_arguments(parser) -> None:
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default: "
                             f"{DEFAULT_OUT_ROOT}/<campaign-name>)")
    parser.add_argument("--seed-offset", type=int, default=0,
                        help="shift every seed in the spec (CI seed rotation)")
    parser.add_argument("--baseline", metavar="ARTIFACT", default=None,
                        help="gate the finished aggregate against this "
                             "baseline artifact (exit 1 on regression)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")


def cmd_campaign(args) -> int:
    handlers = {
        "run": _cmd_run,
        "resume": _cmd_resume,
        "report": _cmd_report,
        "diff": _cmd_diff,
    }
    return handlers[args.campaign_command](args)


def _progress(quiet: bool):
    if quiet:
        return lambda message: None
    return lambda message: print(message, file=sys.stderr)


def _finish(artifact: Dict[str, Any], out_dir: str, baseline_path) -> int:
    from repro.campaign.report import ARTIFACT_NAME, REPORT_NAME, TIMELINE_NAME

    summary = artifact["summary"]
    print(
        f"campaign {artifact['campaign']}: {summary['ok']}/{summary['cells_total']} "
        f"cells ok in {summary['wall_seconds_total']:.2f}s "
        f"({', '.join(f'{k}={v}' for k, v in summary['statuses'].items())})"
    )
    for name in (ARTIFACT_NAME, REPORT_NAME, TIMELINE_NAME):
        print(f"wrote {os.path.join(out_dir, name)}")
    exit_code = 0 if summary["ok"] == summary["cells_total"] else 1
    if baseline_path:
        exit_code = max(exit_code, _gate(artifact, baseline_path))
    return exit_code


def _gate(artifact: Dict[str, Any], baseline_path: str) -> int:
    from repro.campaign.gating import diff_artifacts
    from repro.campaign.report import load_artifact

    baseline = load_artifact(baseline_path)
    report = diff_artifacts(artifact, baseline)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_run(args) -> int:
    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import load_spec

    spec = load_spec(args.spec)
    out_dir = args.out or os.path.join(DEFAULT_OUT_ROOT, spec.name)
    artifact = run_campaign(
        spec,
        out_dir,
        seed_offset=args.seed_offset,
        progress=_progress(args.quiet),
        fresh=args.fresh,
    )
    return _finish(artifact, out_dir, args.baseline)


def _cmd_resume(args) -> int:
    from repro.campaign.executor import SPEC_COPY_NAME, run_campaign
    from repro.campaign.spec import parse_spec

    spec_path = os.path.join(args.out, SPEC_COPY_NAME)
    if not os.path.exists(spec_path):
        raise CampaignError(
            f"{args.out} has no {SPEC_COPY_NAME} — was a campaign started "
            "there? (use `campaign run <spec> --out` for a first run)"
        )
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = parse_spec(json.load(handle))
    artifact = run_campaign(spec, args.out, progress=_progress(args.quiet))
    return _finish(artifact, args.out, args.baseline)


def _cmd_report(args) -> int:
    from repro.campaign.executor import MANIFEST_NAME, Manifest, SPEC_COPY_NAME
    from repro.campaign.planner import expand_plan
    from repro.campaign.report import aggregate, markdown_report, write_outputs
    from repro.campaign.spec import parse_spec

    spec_path = os.path.join(args.out, SPEC_COPY_NAME)
    manifest = Manifest(os.path.join(args.out, MANIFEST_NAME))
    if not os.path.exists(spec_path) or not manifest.exists():
        raise CampaignError(
            f"{args.out} is not a campaign directory "
            f"(missing {SPEC_COPY_NAME} or {MANIFEST_NAME})"
        )
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = parse_spec(json.load(handle))
    _, records = manifest.load()
    artifact = aggregate(spec, records, planned=expand_plan(spec))
    write_outputs(args.out, artifact)
    if args.json:
        print(json.dumps(artifact, indent=2, sort_keys=True))
    else:
        print(markdown_report(artifact))
    return 0


def _cmd_diff(args) -> int:
    from repro.campaign.gating import diff_artifacts
    from repro.campaign.report import load_artifact

    current = load_artifact(args.current)
    baseline = load_artifact(args.baseline)
    report = diff_artifacts(current, baseline)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1

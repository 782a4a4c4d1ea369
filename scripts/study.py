#!/usr/bin/env python3
"""Studies as case lists of plate-decay commands: decay, certificate, lens.

Each case runs one ``plate-decay`` command in-process on a config that it
writes to ``<out>/<case>/config.json``, beside the command's artifacts;
``<out>/study.json`` tables every case's exit code and JSON artifacts.
"""

import argparse
import copy
import json
import math
import sys
from pathlib import Path

from platedecay import cli
from platedecay.geometry import lens_domain

SQUARE = Path(__file__).resolve().parents[1] / "configs" / "square.json"


def square_at(square, h, **sim):
    """A copy of ``configs/square.json`` (never edited) at mesh size h."""
    config = copy.deepcopy(square)
    config["mesh"]["h"] = h
    config["sim"].update(sim)
    return config


def decay_cases(args, square):
    damped = square_at(square, args.h, dt=args.dt, T=args.T)
    control = square_at(square, args.h, dt=args.dt, T=min(args.T, 2.0))
    control["material"].update(d1=0.0, d2=0.0)
    control["gains"] = [0, 0, 0, 0]
    return [("damped", "simulate", damped), ("control", "simulate", control)]


def certificate_cases(args, square):
    # fit_summary.json carries the spectrum summary beside theta_hat and
    # the branch slope, so one dense eigensolve per level suffices
    return [(f"resolvent-h{h:.4g}", "resolvent", square_at(square, h))
            for h in args.levels]


def lens_config(deg, h):
    dom = lens_domain(math.radians(deg))
    edges = [{"type": "arc", "label": e.label, "center": e.center,
              "radius": e.radius, "ccw": e.ccw} for e in dom.edges]
    return {"domain": {"vertices": dom.vertices, "edges": edges},
            "gains": dom.corner_gains, "mesh": {"h": h}}


def lens_cases(args, square):
    return [(f"{command}-{deg:g}deg", command, lens_config(deg, args.h))
            for deg in args.angles_deg for command in ("check", "mesh")]


STUDIES = {"decay": decay_cases, "certificate": certificate_cases,
           "lens": lens_cases}


def run_case(out, case, command, config):
    """Run one case; its row holds the JSON artifacts only if it exits 0."""
    case_dir = out / case
    case_dir.mkdir(parents=True, exist_ok=True)
    config_path = case_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    status = cli.main([command, "--config", str(config_path),
                       "--out", str(case_dir)])
    artifacts = {path.stem: json.loads(path.read_text())
                 for path in sorted(case_dir.glob("*.json"))
                 if status == 0 and path != config_path}
    return {"case": case, "command": command, "exit": status,
            "artifacts": artifacts}


def build_parser():
    """One sub-command per study, each with only the options it reads.
    Options are not abbreviated, so ``--h`` is never ``--help``."""
    ap = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    sub = ap.add_subparsers(dest="study", required=True)
    decay = sub.add_parser("decay", allow_abbrev=False,
                           help="damped run and undamped control")
    decay.add_argument("--h", type=float, default=1 / 12)
    decay.add_argument("--dt", type=float, default=1e-3)
    decay.add_argument("--T", type=float, default=10.0)
    certificate = sub.add_parser("certificate", allow_abbrev=False,
                                 help="resolvent fits over mesh levels")
    certificate.add_argument("--levels", type=float, nargs="+",
                             default=[0.25, 0.125, 1 / 12])
    lens = sub.add_parser("lens", allow_abbrev=False,
                          help="lens geometry checks and meshes")
    lens.add_argument("--h", type=float, default=0.1)
    lens.add_argument("--angles-deg", type=float, nargs="+",
                      default=[20, 30, 45, 60, 90])
    for study in (decay, certificate, lens):
        study.add_argument("--out", help="default out/<study>")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = Path(args.out or Path("out") / args.study)
    square = json.loads(SQUARE.read_text())

    rows = [run_case(out, *case) for case in STUDIES[args.study](args, square)]
    table = {"study": args.study, "cases": rows}
    (out / "study.json").write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n")
    failed = [row["case"] for row in rows if row["exit"] != 0]
    print(f"{args.study}: {len(failed)} of {len(rows)} cases failed", *failed)
    return 1 if failed else 0  # after the table is written


if __name__ == "__main__":
    sys.exit(main())

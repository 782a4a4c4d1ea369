#!/usr/bin/env python3
"""plate-decay benchmark: time to a certified result per CLI command.

Run from the repository root:

    python3 perfbench/run.py --workload certificate --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # each workload, own process

A workload is a list of ``plate-decay <command>`` calls made in-process
through ``platedecay.cli.main``, closed loop: one process, one command after
another.  Its timed commands run in whole passes until ``--seconds`` have
gone by (so at least one pass); each command that a known defect makes fail
runs once per run.  Every command's artifacts are checked against the acceptance
suite's pinned tolerances (``gates.py``); a non-zero exit or a failed gate
is a failed operation, named by its gate.  Timings come from successful
commands only.

Before the measured passes, and again after them, the workload's systems are
set up (config parse, mesh, validation, dof map, assembly) at least
``SETUP_REPS`` times and for at least ``SETUP_SECONDS``; ``setup_s`` is the
sum over the systems of the fastest set-up of each.  ``--trace 1`` wraps the
modules' public functions in spans (see ``spans.py``) and reports per-layer
metrics instead of end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (environment,
per-command gates, artifact fingerprints, spans) is written under
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from gates import check_artifacts  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPS = 2        # set-ups before the passes, and again after them,
SETUP_SECONDS = 1.5   # and at least this long each time
CONTROL_STEPS = 10_000


@dataclass(frozen=True)
class Op:
    """One command of a workload.

    ``seed_defect`` names the gates that a known defect of the program fails
    at the seed.  The operation still runs and counts as failed; failing only
    those gates leaves ``correct`` alone (failing any other does not), and
    the operation stays out of ``pass_s`` and ``unit_ms``, so a later fix is
    not scored as a slowdown."""

    command: str
    config: str
    seed_defect: frozenset = frozenset()
    conserve_steps: int = None

    @property
    def tag(self):
        return f"{self.command}:{self.config}"


# Why each workload exists, and the operations whose unit of work (step,
# sweep point) gives ``unit_ms``.  Each run of a workload is one process.
WORKLOADS = {
    # Every time-domain and geometry command.  Its pass is dominated by 10^4
    # midpoint steps at h = 1/12, so energy-evaluation and refinement changes
    # show here; the lens commands are the only load on geometry (LP over
    # arcs), plate_forms (verify) and curved variant-1 meshing/assembly; the
    # h = 1/24 square gives assembly and step cost at 4x the dofs and the
    # sparse shift-invert eigensolve.  The dense spectrum and sweep do nothing.
    "decay-lens-fine": (
        [Op("simulate", "square"), Op("check", "lens"), Op("verify", "lens"),
         Op("mesh", "lens"), Op("simulate", "square-h24"),
         Op("simulate", "control", seed_defect=frozenset({"drift"}),
            conserve_steps=CONTROL_STEPS),
         Op("simulate", "lens", seed_defect=frozenset({"exit-3"})),
         # all-zero eigenvalues: min|lambda| = 0 and abscissa = 0
         Op("spectrum", "square-h24", seed_defect=frozenset(
             {"eigenvalues-nonzero", "abscissa-negative"}))],
        ("simulate:square",)),
    # Dense spectrum and resolvent sweep: dense-SVD points at h = 1/8,
    # Schur inverse iteration at h = 1/12.  Dynamics does no work here.
    "certificate": ([Op("spectrum", "square-h8"), Op("resolvent", "square-h8"),
                     Op("spectrum", "square"), Op("resolvent", "square")],
                    ("resolvent:square-h8", "resolvent:square")),
}

# Per-command end-to-end metrics, reported per operation of a workload.
COMMAND_METRICS = [("simulate_s", "simulate", "s"), ("step_ms", "simulate", "ms"),
                   ("spectrum_s", "spectrum", "s"),
                   ("resolvent_s", "resolvent", "s"),
                   ("sweep_point_ms", "resolvent", "ms"),
                   ("check_s", "check", "s"), ("verify_s", "verify", "s")]

# Per-layer span sums in ms per pass: metric -> [(span name, info filter)].
LAYER_TIMES = {
    "cli.parse_ms": [("cli.from_dict", None)],
    "geometry.condition_g_ms": [("geometry.check_condition_g", None)],
    "geometry.observer_lp_ms": [("geometry.find_observer_point", None)],
    "geometry.condition_h_ms": [("geometry.check_condition_h", None)],
    "meshing.triangulate_ms": [("meshing.triangulate", None),
                               ("meshing.refine", None)],
    "meshing.validate_ms": [("meshing.validate_mesh", None)],
    "assembly.dof_map_ms": [("assembly.build_dof_map", None)],
    "assembly.assemble_ms": [("assembly.assemble", None)],
    "dynamics.initial_data_ms": [("dynamics.boundary_bump_data", None),
                                 ("dynamics.eigenpacket_data", None)],
    "dynamics.simulate_ms": [("dynamics.simulate", None)],
    "dynamics.decay_fit_ms": [("dynamics.decay_fit", None)],
    "plate_forms.greens_ms": [("plate_forms.greens_identity_residual", None),
                              ("plate_forms.greens_identity_terms", None)],
    "plate_forms.multiplier_ms": [
        ("plate_forms.multiplier_identity_residual", None)],
    "spectral.eig_ms": [("spectral.pencil_eigenvalues", ("dense", True))],
    "spectral.eigs_ms": [("spectral.pencil_eigenvalues", ("dense", False))],
    "spectral.sweep_ms": [("spectral.resolvent_sweep", None)],
    "spectral.fit_ms": [("spectral.resolved_band", None),
                        ("spectral.suggest_sweep_omegas", None),
                        ("spectral.growth_fit", None),
                        ("spectral.damping_branch_fit", None)],
}
# Per-layer counts per pass: metric -> (span name, info key, reduction).
LAYER_COUNTS = {
    "meshing.n_nodes": ("meshing.", "n_nodes", max),
    "meshing.n_triangles": ("meshing.", "n_triangles", max),
    "assembly.n_free": ("assembly.assemble", "n_free", max),
    "assembly.nnz_K": ("assembly.assemble", "nnz_K", max),
    "assembly.nnz_M": ("assembly.assemble", "nnz_M", max),
    "assembly.nnz_D": ("assembly.assemble", "nnz_D", max),
    "dynamics.steps": ("dynamics.simulate", "steps", sum),
    "plate_forms.instances": ("plate_forms.greens_identity_residual",
                              "calls", sum),
    "spectral.first_order_dofs": ("spectral.pencil_eigenvalues",
                                  "first_order_dofs", max),
    "spectral.sweep_points": ("spectral.resolvent_sweep", "points", sum),
    "spectral.sweep_nonfinite": ("spectral.resolvent_sweep", "nonfinite", sum),
}
# Certified scalars per pass, read from the artifacts: metric -> scalar key.
LAYER_SCALARS = {
    "dynamics.balance_residual": "balance_residual",
    "dynamics.energy_drift": "energy_drift",
    "plate_forms.max_residual": "max_identity_residual",
    "spectral.theta_hat": "theta_hat",
    "spectral.branch_slope": "branch_slope",
}
LAYERS = ("cli", "geometry", "meshing", "plate_forms", "assembly", "dynamics",
          "spectral")


def unit_of(metric):
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric == "cli.artifact_bytes":
        return "bytes"
    if metric in LAYER_SCALARS:
        return "1"
    return "ratio" if metric.endswith("_frac") else "count"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _variant(base, seed, **changes):
    data = copy.deepcopy(base)
    for key, val in changes.items():
        if isinstance(val, dict):
            data.setdefault(key, {}).update(val)
        else:
            data[key] = val
    data["seed"] = seed  # the only input the seed changes: verify's instances
    return data


def make_configs(seed):
    with open(ROOT / "configs" / "square.json") as f:
        square = json.load(f)
    with open(ROOT / "configs" / "lens.json") as f:
        lens = json.load(f)
    # configs/square.json writes h as 0.0833333333333333, which meshes a
    # 13 x 13 grid; the acceptance criteria and this benchmark use h = 1/12.
    square = _variant(square, seed, mesh={"h": 1.0 / 12.0})
    return {
        "square": square,
        "control": _variant(square, seed, material={"d1": 0.0, "d2": 0.0},
                            gains=[0.0, 0.0, 0.0, 0.0]),
        "square-h8": _variant(square, seed, mesh={"h": 0.125}),
        "square-h24": _variant(square, seed, mesh={"h": 1.0 / 24.0},
                               sim={"T": 0.5}, spectral={"count": 40}),
        "lens": _variant(lens, seed),
    }


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "platedecay").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "PLATE_DECAY_THREADS": os.environ.get("PLATE_DECAY_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(), "source_sha256": src.hexdigest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _sizes(args, kwargs, result):
    return {"n_nodes": result.n_nodes, "n_triangles": result.n_triangles}


def _system_sizes(args, kwargs, result):
    return {"n_free": result.n_free, "nnz_K": result.K.nnz,
            "nnz_M": result.M.nnz, "nnz_D": result.D.nnz}


def _eig_info(args, kwargs, result):
    count = kwargs.get("count", args[1] if len(args) > 1 else "all")
    return {"dense": count == "all", "first_order_dofs": 2 * args[0].n_free}


def _sweep_info(args, kwargs, result):
    return {"points": len(result),
            "nonfinite": int(np.count_nonzero(~np.isfinite(result[:, 1])))}


def _calls(args, kwargs, result):
    return {"calls": 1}


def _steps(args, kwargs, result):
    return {"steps": len(result) - 1}


def install_spans(tracer, traced):
    """Wrap the public functions each command calls.  Untraced runs wrap only
    ``simulate`` and ``resolvent_sweep``, for ms per step and per point."""
    import platedecay.cli as cli
    import platedecay.geometry as geometry
    import platedecay.plate_forms as plate_forms

    tracer.wrap(cli, "simulate", "dynamics", _steps)
    tracer.wrap(cli, "resolvent_sweep", "spectral", _sweep_info)
    if not traced:
        return
    tracer.wrap(cli.RunConfig, "from_dict", "cli")
    for name in ("check_condition_g", "find_observer_point",
                 "check_condition_h"):
        tracer.wrap(cli, name, "geometry")
    for name in ("polygon_domain", "unit_square_domain"):
        tracer.wrap(geometry, name, "geometry")  # imported by verify per call
    tracer.wrap(cli, "triangulate", "meshing", _sizes)
    tracer.wrap(cli, "refine", "meshing", _sizes)
    for name in ("validate_mesh", "write_mesh"):
        tracer.wrap(cli, name, "meshing")
    tracer.wrap(cli, "build_dof_map", "assembly")
    tracer.wrap(cli, "assemble", "assembly", _system_sizes)
    tracer.wrap(cli, "dump_coo", "assembly")
    for name in ("boundary_bump_data", "eigenpacket_data", "decay_fit"):
        tracer.wrap(cli, name, "dynamics")
    tracer.wrap(cli, "pencil_eigenvalues", "spectral", _eig_info)
    for name in ("resolved_band", "suggest_sweep_omegas", "growth_fit",
                 "damping_branch_fit"):
        tracer.wrap(cli, name, "spectral")
    tracer.wrap(plate_forms, "greens_identity_residual", "plate_forms", _calls)
    for name in ("greens_identity_terms", "multiplier_identity_residual",
                 "q_density"):
        tracer.wrap(plate_forms, name, "plate_forms")


def set_up(datas):
    """Config parse through assembled K/M/D for each of the workload's
    systems, by the set-up every command runs; returns each wall time."""
    from platedecay import cli

    times = []
    for data in datas:
        started = time.perf_counter()
        cli._build_system(cli.RunConfig.from_dict(copy.deepcopy(data)))
        times.append(time.perf_counter() - started)
    return times


def set_up_block(datas):
    """Per-system wall times of repeated set-ups: ``SETUP_REPS``, or more to
    fill ``SETUP_SECONDS``."""
    times, started = [], time.perf_counter()
    while (len(times) < SETUP_REPS
           or time.perf_counter() - started < SETUP_SECONDS):
        times.append(set_up(datas))
    return times


def _fingerprint(out_dir):
    """sha256 per artifact file, and their total size in bytes."""
    files, size = {}, 0
    for path in sorted(Path(out_dir).iterdir()):
        data = path.read_bytes()
        files[path.name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return files, size


def run_op(op, index, cfg_path, out_dir, tracer, context):
    """One ``plate-decay`` call, timed, then gated on its artifacts."""
    from platedecay.cli import main

    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [op.command, "--config", str(cfg_path), "--out", str(out_dir)]
    tracer.op = index
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        span = tracer.open(f"cli.{op.command}", "cli")
        try:
            status = main(argv)
        except Exception:  # a traceback is a failed operation, not a crash
            status = "exception"
            err.write(traceback.format_exc())
        finally:
            tracer.close(span)
    record = {"op": op.tag, "command": op.command, "wall_s": span.duration,
              "status": status, "gates": [], "scalars": {},
              "fingerprint": {}, "bytes": 0}
    if status == 0:
        try:
            gates, record["scalars"] = check_artifacts(
                op.command, out_dir, op.conserve_steps, context)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            gates = [("artifacts", False, f"{type(exc).__name__}: {exc}")]
        record["gates"] = [list(g) for g in gates]
    else:
        lines = err.getvalue().strip().splitlines()
        record["gates"] = [[f"exit-{status}", False, status]]
        record["error"] = lines[-1] if lines else ""
    if os.path.isdir(out_dir):
        record["fingerprint"], record["bytes"] = _fingerprint(out_dir)
    record["failed_gates"] = [g[0] for g in record["gates"] if not g[1]]
    return record


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def unit_cost(tracer, record):
    """(seconds, units) of a simulate (steps) or resolvent (sweep points)."""
    name, key = {"simulate": ("dynamics.simulate", "steps"),
                 "resolvent": ("spectral.resolvent_sweep", "points")}[
                     record["command"]]
    spans = [s for s in tracer.spans if s.op == record["index"] and s.name == name]
    return sum(s.duration for s in spans), sum(s.info[key] for s in spans)


def unexpected_failure(op, record):
    """True when the operation failed a gate other than its seed defects."""
    return not set(record["failed_gates"]) <= op.seed_defect


def end_to_end(records, tracer, ops, unit_ops, setup_times, n_passes):
    """The result line's metrics.  ``pass_s`` and ``unit_ms`` cover the timed
    operations (those without a seed defect), per pass; a failed one leaves
    both missing.  ``setup_s`` sums the fastest set-up of each system: other
    tenants of a shared machine only ever slow one down."""
    timed = [r for r in records if not ops[r["slot"]].seed_defect]
    ok = not any(r["failed_gates"] for r in timed)
    costs = [unit_cost(tracer, r) for r in timed if r["op"] in unit_ops]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": sum(map(min, zip(*setup_times))),
            "pass_s": sum(r["wall_s"] for r in timed) / n_passes if ok else None,
            "unit_ms": (1000.0 * sum(c[0] for c in costs)
                        / sum(c[1] for c in costs)) if ok else None,
            "peak_rss_mb": rss_mb}


def command_metrics(records, tracer, ops):
    """Per-command metrics, per operation: the mean over its successful runs,
    or the failed gates that leave it missing."""
    out = {}
    for name, command, unit in COMMAND_METRICS:
        rows = {}
        for slot, op in enumerate(ops):
            if op.command != command:
                continue
            mine = [r for r in records if r["slot"] == slot]
            ok = [r for r in mine if not r["failed_gates"]]
            if not ok:
                failed = sorted({g for r in mine for g in r["failed_gates"]})
                rows[op.tag] = "missing: failed gate " + ",".join(failed)
            elif name.endswith("_ms"):
                seconds, units = map(sum, zip(*(unit_cost(tracer, r)
                                                for r in ok)))
                rows[op.tag] = 1000.0 * seconds / units
            else:
                rows[op.tag] = statistics.fmean(r["wall_s"] for r in ok)
        out[name] = (rows, unit) if rows else (f"n/a: no {command} command", unit)
    return out


def _has_ancestor(spans, k, among):
    parent = spans[k].parent
    while parent >= 0:
        if parent in among:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(records, tracer):
    """Per-layer metrics from the spans of the first pass's successful
    operations.  Times and counts leave failed operations out, so a fix is
    not scored as a slowdown; a time only they exercise is missing, with
    their failed gates.  The certified scalars come from every operation."""
    first = [r for r in records if r["pass"] == 0 and not r["failed_gates"]]
    idx = {r["index"] for r in first}
    failed = {r["index"]: r["failed_gates"] for r in records
              if r["pass"] == 0 and r["failed_gates"]}
    own = tracer.self_times()
    spans = [(s, own[k]) for k, s in enumerate(tracer.spans) if s.op in idx]
    m = {}
    for metric, specs in LAYER_TIMES.items():
        every = {k for k, s in enumerate(tracer.spans)
                 for name, flt in specs if s.name == name
                 and (flt is None or s.info.get(flt[0]) == flt[1])}
        hit = {k for k in every if tracer.spans[k].op in idx}
        outer = [k for k in hit if not _has_ancestor(tracer.spans, k, hit)]
        gates = sorted({g for k in every for g in
                        failed.get(tracer.spans[k].op, ())})
        m[metric] = (1000.0 * sum(tracer.spans[k].duration for k in outer)
                     if hit else "missing: failed gate " + ",".join(gates)
                     if gates else None)
    for metric, (prefix, key, reduce) in LAYER_COUNTS.items():
        vals = [s.info[key] for s, _ in spans
                if s.name.startswith(prefix) and key in s.info]
        m[metric] = reduce(vals) if vals else 0
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1000.0 * sum(t for s, t in spans
                                             if s.layer == layer)
    m["cli.artifact_bytes"] = sum(r["bytes"] for r in first)
    for metric, key in LAYER_SCALARS.items():
        vals = [r["scalars"][key] for r in records
                if r["pass"] == 0 and r["scalars"].get(key) is not None]
        m[metric] = max(vals, key=abs) if vals else None
    m["accounting_gap_ms"] = max(
        (1000.0 * abs(r["wall_s"] - sum(t for s, t in spans
                                        if s.op == r["index"]))
         for r in first), default=None)
    wall = sum(r["wall_s"] for r in first)
    m["trace_overhead_frac"] = (sum(s.overhead for s, _ in spans) / wall
                                if first else None)
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    src = ROOT / "src"
    if not (src / "platedecay" / "cli.py").is_file():
        _fail(f"no plate-decay sources under {src}")
    for name in ("square.json", "lens.json"):
        if not (ROOT / "configs" / name).is_file():
            _fail(f"missing configs/{name}")
    sys.path.insert(0, str(src))
    import platedecay
    if Path(platedecay.__file__).resolve().parent != (src / "platedecay").resolve():
        _fail(f"imported platedecay from {platedecay.__file__}, not {src}")


def _fmt(value, unit):
    return f"{value:.6g} {unit}"


def run_workload(workload, seed, seconds, traced):
    _load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops, unit_ops = WORKLOADS[workload]
    configs = make_configs(seed)
    run_id = f"{workload}-s{seed}-t{int(traced)}"
    work = ROOT / ".perfbench_out" / f"{run_id}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cfg_paths = {}
    for name in {op.config for op in ops}:
        cfg_paths[name] = work / f"{name}.json"
        cfg_paths[name].write_text(json.dumps(configs[name]))

    systems = [configs[n] for n in sorted(cfg_paths)]
    setup_times = set_up_block(systems)

    tracer = Tracer()
    install_spans(tracer, traced)
    records = []

    def run_slot(slot, pass_no, context):
        op = ops[slot]
        rec = run_op(op, len(records), cfg_paths[op.config],
                     work / f"op{slot}", tracer, context)
        rec.update(index=len(records), slot=slot, **{"pass": pass_no})
        records.append(rec)

    timed = [k for k, op in enumerate(ops) if not op.seed_defect]
    started = time.perf_counter()
    n_passes = 0
    try:
        # Timed operations in whole passes until ``seconds`` have gone by
        # (one pass of either workload takes longer than BENCHMARK.json's
        # run_seconds); each seed-defect operation runs once per run, after
        # them, and joins the first pass.
        while True:
            context = {}
            for slot in timed:
                run_slot(slot, n_passes, context)
            n_passes += 1
            if time.perf_counter() - started >= seconds:
                break
        for slot, op in enumerate(ops):
            if op.seed_defect:
                run_slot(slot, 0, {})
    finally:
        tracer.restore()
    measured = time.perf_counter() - started
    shutil.rmtree(work, ignore_errors=True)
    setup_times += set_up_block(systems)

    unexpected = [r for r in records if unexpected_failure(ops[r["slot"]], r)]
    failed = sum(1 for r in records if r["failed_gates"])
    e2e = end_to_end(records, tracer, ops, unit_ops, setup_times, n_passes)
    per_cmd = command_metrics(records, tracer, ops)
    layers = layer_metrics(records, tracer) if traced else None
    env = environment()

    print(f"perfbench {run_id}: {n_passes} timed pass(es), "
          f"{measured:.1f} s measured")
    print("env " + json.dumps(env, sort_keys=True))
    for r in records:
        verdict = "ok" if not r["failed_gates"] else (
            "FAILED " + ",".join(r["failed_gates"])
            + (" (seed defect)" if r not in unexpected else ""))
        print(f"op pass{r['pass']} {r['op']:<22} {r['wall_s']:9.3f} s  "
              f"exit {r['status']}  {verdict}  {r.get('error', '')}".rstrip())
    for r in records:
        if r["pass"] == 0:
            print(f"fingerprint {r['op']} " + json.dumps(
                {"scalars": r["scalars"], "sha256": r["fingerprint"]},
                sort_keys=True))
    print(f"metric setup_s {_fmt(e2e['setup_s'], 's')}")
    for name, (rows, unit) in per_cmd.items():
        if isinstance(rows, str):
            print(f"metric {name} {rows}")
            continue
        for tag, value in rows.items():
            shown = value if isinstance(value, str) else _fmt(value, unit)
            print(f"metric {name}[{tag}] {shown}")
    print(f"metric peak_rss_mb {_fmt(e2e['peak_rss_mb'], 'MB')}")
    print(f"ops {len(records)} ops_failed {failed}")
    if layers is not None:
        for metric, value in layers.items():
            shown = ("not exercised" if value is None else value
                     if isinstance(value, str) else _fmt(value, unit_of(metric)))
            print(f"layer {metric} {shown}")
        for r in records:
            if r["pass"] == 0 and r["failed_gates"]:
                print(f"layer excluded {r['op']}: failed gate "
                      + ",".join(r["failed_gates"]))

    record = {"run_id": run_id, "workload": workload, "seed": seed,
              "seconds": seconds, "trace": int(traced), "env": env,
              "setup_times_s": setup_times, "end_to_end": e2e,
              "command_metrics": per_cmd, "layers": layers, "ops": records}
    if traced:
        record["spans"] = tracer.dump(workload=workload, run_id=run_id)
    out = ROOT / ".perfbench_out" / f"{run_id}.json"
    out.write_text(json.dumps(record, default=str) + "\n")

    source = layers if traced else e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if traced else "end_to_end"]}
    correct = not unexpected and all(isinstance(m["value"], (int, float))
                                     for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed, seconds, traced):
    """Each workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, check=False)
        status = status or proc.returncode
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: JSON config in, CSV/JSON artifacts out.

Commands:

    plate-decay check     --config cfg.json [--out dir]   geometry reports
    plate-decay mesh      --config cfg.json [--out dir]   ASCII mesh
    plate-decay simulate  --config cfg.json [--out dir]   energy trace + fit
    plate-decay spectrum  --config cfg.json [--out dir]   eigenvalues + fit
    plate-decay resolvent --config cfg.json [--out dir]   axis sweep + fits
    plate-decay verify    --config cfg.json [--out dir]   identity suite

Exit codes: 0 success; 2 an ``InvalidArgumentError``, or an output
directory that cannot be made or written; 3 an ``InsufficientDataError``, a
``SolverError`` or a LinAlgError.  A failed command prints a JSON error
object to stderr naming the error class and the violated invariant.
Artifacts are deterministic for a fixed config and version (no timestamps);
every CSV and JSON artifact carries a provenance header with the config
hash, mesh level and tool version.  A command computes and checks
everything before its first write, so a failed command leaves no
half-written artifact set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .errors import InsufficientDataError, InvalidArgumentError, SolverError
from .geometry import (DomainSpec, EdgeSpec, check_condition_g,
                       check_condition_h, find_observer_point)
from .meshing import refine, triangulate, validate_mesh, write_mesh
from .assembly import assemble, build_dof_map, dump_coo
from .plate_forms import PlateMaterial
from .dynamics import (boundary_bump_data, decay_fit, dissipation_residual,
                       eigenpacket_data, energy_drift, fit_window_slice,
                       simulate, step_times)
from .spectral import (damping_branch_fit, growth_fit, pencil_eigenvalues,
                       resolved_band, resolvent_sweep, suggest_sweep_omegas)

# Set-up peaks near 15 KB per triangle at degree 2 (39 KB at degree 3), so
# this many stay near 1.5 GB (4 GB).
MAX_TRIANGLES = 100_000
# Each sweep point is one sparse LU of the pencil and a Lanczos solve, about
# 10 ms at h = 1/12, so this many keep a sweep there near 17 minutes.
MAX_SWEEP_POINTS = 100_000
_CSV_ROWS = 1024  # rows formatted per write


@dataclass
class MeshParams:
    h: float = 0.25
    refinements: int = 0
    degree: int = 2
    sigma: float = None


@dataclass
class SimParams:
    dt: float = 1e-3
    T: float = 1.0
    initial_data: str = "boundary_bump"
    snapshot_stride: int = 0
    fit_window: tuple = None


@dataclass
class SpectralParams:
    count: object = "all"
    omega_band: tuple = None
    points: int = 120


@dataclass
class RunConfig:
    """Validated run description; mirrors the JSON config layout."""

    domain: DomainSpec
    material: PlateMaterial
    variant: int = 2
    mesh: MeshParams = field(default_factory=MeshParams)
    sim: SimParams = field(default_factory=SimParams)
    spectral: SpectralParams = field(default_factory=SpectralParams)
    search_box: tuple = None
    condition_g_policy: str = "refuse"
    seed: int = 0
    output_dir: str = "out"
    dump_matrices: bool = False
    raw: dict = None

    @classmethod
    def from_dict(cls, data):
        data = _section("config", data, _CONFIG_KEYS)
        dom = _parse_domain(_section("domain", _field(data, "domain"),
                                     ("vertices", "edges")),
                            _number("gain", data.get("gains")))
        check = _section("check", data.get("check", {}), ("search_box",))
        cfg = cls(domain=dom, material=_params("material", PlateMaterial, data),
                  variant=_number("variant", data.get("variant", 2)),
                  mesh=_params("mesh", MeshParams, data),
                  sim=_params("sim", SimParams, data),
                  spectral=_params("spectral", SpectralParams, data),
                  search_box=_number("search_box", check.get("search_box")),
                  condition_g_policy=data.get("condition_g_policy", "refuse"),
                  seed=_number("seed", data.get("seed", 0)),
                  output_dir=_typed("output_dir",
                                    data.get("output_dir", "out"), str),
                  dump_matrices=_typed("dump_matrices",
                                       data.get("dump_matrices", False), bool),
                  raw=data)
        cfg.validate()
        return cfg

    def validate(self):
        if self.variant not in (1, 2):
            raise InvalidArgumentError("variant must be 1 or 2",
                                       invariant="variant")
        if self.variant == 1 and any(self.domain.corner_gains):
            raise InvalidArgumentError(
                "variant 1 has no corner feedback; its gains must all be 0",
                invariant="variant-gains")
        if self.condition_g_policy not in ("refuse", "warn"):
            raise InvalidArgumentError(
                "condition_g_policy must be 'refuse' or 'warn'",
                invariant="condition-g-policy")
        if self.mesh.degree not in (2, 3):
            raise InvalidArgumentError("mesh.degree must be 2 or 3",
                                       invariant="degree-supported")
        band = self.spectral.omega_band
        if band is not None and not 0 < band[0] < band[1]:
            raise InvalidArgumentError(
                "spectral.omega_band must satisfy 0 < lo < hi",
                invariant="omega_band-range")
        if self.sim.initial_data not in _INITIAL_DATA:
            raise InvalidArgumentError(
                f"sim.initial_data must be one of {_INITIAL_DATA}, got "
                f"{self.sim.initial_data!r}", invariant="initial-data")
        if self.variant == 1:
            report = check_condition_g(self.domain, self.material.mu)
            if not report.satisfied:
                msg = ("variant 1 requires the small-corner-angle condition; "
                       "worst margin "
                       f"{min(report.margins.values()):.4g} rad")
                if self.condition_g_policy == "refuse":
                    raise InvalidArgumentError(msg, invariant="condition-g")
                print(f"warning: {msg}", file=sys.stderr)

    def config_hash(self):
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# the keys of the top level of a config; each section's keys are the fields
# of its dataclass, or listed where it is parsed
_CONFIG_KEYS = ("domain", "gains", "material", "variant", "mesh", "sim",
                "spectral", "check", "condition_g_policy", "seed",
                "output_dir", "dump_matrices")
_SEGMENT_KEYS = ("type", "label")
_ARC_KEYS = _SEGMENT_KEYS + ("center", "radius", "ccw")
_INITIAL_DATA = ("boundary_bump", "eigenpacket", "zero")
_INTEGER_FIELDS = {"refinements", "degree", "snapshot_stride", "points",
                   "count", "variant", "seed", "label"}
# fields given as arrays; -1 is any length.  Every other field is a scalar.
_SHAPES = {"fit_window": (2,), "omega_band": (2,), "search_box": (2, 2),
           "vertex": (-1, 2), "gain": (-1,), "center": (2,)}
# fields where null stands for the default
_OPTIONAL = {"sigma", "fit_window", "omega_band", "search_box", "gain"}
# inclusive bounds; a sweep needs both band ends
_RANGES = {"refinements": (0, math.inf), "points": (2, MAX_SWEEP_POINTS),
           "seed": (0, math.inf), "snapshot_stride": (0, math.inf)}
_KINDS = {dict: "a JSON object", list: "a list", str: "a string",
          bool: "true or false"}


def _number(name, value):
    """Check a config number, or an array of them for a field in ``_SHAPES``
    (``<name>-shape``).  Every entry must be a real number (``<name>-type``;
    null returns None in ``_OPTIONAL``) and finite (``<name>-finite``; JSON
    configs may spell NaN and Infinity).  An integer field must be whole
    (``<name>-type``), is returned as an int and must respect ``_RANGES``
    (``<name>-range``)."""
    if value is None and name in _OPTIONAL:
        return None
    want = _SHAPES.get(name, ())
    entries = np.array(value, dtype=object)
    if want and (entries.ndim != len(want) or any(
            w not in (-1, n) for w, n in zip(want, entries.shape))):
        raise InvalidArgumentError(f"{name} must have shape {want}",
                                   invariant=f"{name}-shape")
    flat = entries.ravel()
    if (entries.ndim and not want) or not all(
            isinstance(x, numbers.Real) and not isinstance(x, bool)
            for x in flat):
        raise InvalidArgumentError(f"{name} must be a number",
                                   invariant=f"{name}-type")
    try:
        finite = np.all(np.isfinite(flat.astype(float)))
    except OverflowError:  # a JSON integer beyond the float range
        finite = False
    if not finite:
        raise InvalidArgumentError(f"{name} must be finite",
                                   invariant=f"{name}-finite")
    if name not in _INTEGER_FIELDS:
        return value
    if not float(value).is_integer():
        raise InvalidArgumentError(f"{name} must be an integer",
                                   invariant=f"{name}-type")
    lo, hi = _RANGES.get(name, (value, value))
    if not lo <= value <= hi:
        bound = f">= {lo}" if value < lo else f"<= {hi}"
        raise InvalidArgumentError(f"{name} must be {bound}",
                                   invariant=f"{name}-range")
    return int(value)


def _typed(name, value, kind):
    """Check a config entry's JSON kind, else ``<name>-type``."""
    if not isinstance(value, kind):
        raise InvalidArgumentError(f"{name} must be {_KINDS[kind]}",
                                   invariant=f"{name}-type")
    return value


def _field(section, key):
    """A required entry of a section (``<key>-missing``)."""
    if key not in section:
        raise InvalidArgumentError(f"{key} is required",
                                   invariant=f"{key}-missing")
    return section[key]


def _section(name, value, keys):
    """A config section: a JSON object (``<name>-type``) whose every key is
    one of ``keys`` (``<name>-unknown``)."""
    section = _typed(name, value, dict)
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise InvalidArgumentError(f"unknown {name} key {unknown[0]!r}",
                                   invariant=f"{name}-unknown")
    return section


def _params(name, params, data):
    """Section ``name`` as a ``params`` dataclass, whose fields are its keys;
    numbers go through ``_number``."""
    section = _section(name, data.get(name, {}),
                       [f.name for f in fields(params)])
    return params(**{key: value if key == "initial_data"
                     or (key, value) == ("count", "all")
                     else _number(key, value)
                     for key, value in section.items()})


def _parse_domain(data, gains):
    """The ``domain`` section, with the config's corner ``gains`` (None for
    zero gains).  A segment edge takes ``_SEGMENT_KEYS``, an arc (or an
    unknown kind, which ``EdgeSpec`` names) ``_ARC_KEYS``."""
    edges = []
    for e in _typed("edges", _field(data, "edges"), list):
        kind = _typed("edge", e, dict).get("type", "segment")
        _section("edge", e, _SEGMENT_KEYS if kind == "segment" else _ARC_KEYS)
        edges.append(EdgeSpec(
            kind=kind, label=_number("label", _field(e, "label")),
            center=tuple(_number("center", _field(e, "center")))
            if kind == "arc" else None,
            radius=float(_number("radius", _field(e, "radius")))
            if kind == "arc" else None,
            ccw=_typed("ccw", e.get("ccw", True), bool)))
    return DomainSpec(vertices=_number("vertex", _field(data, "vertices")),
                      edges=tuple(edges), corner_gains=gains)


# ---------------------------------------------------------------------------
# artifact output
# ---------------------------------------------------------------------------

class _Outputs:
    def __init__(self, cfg, out_dir, level):
        self.dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.provenance = {
            "config_hash": cfg.config_hash(),
            "mesh_level": level,
            "version": __version__,
        }

    def write_csv(self, name, header, columns):
        """One row per index of the equal-length float ``columns``, each
        value as %.17g, formatted ``_CSV_ROWS`` rows at a time."""
        path = os.path.join(self.dir, name)
        line = ",".join(["%.17g"] * len(columns)) + "\n"
        with open(path, "w") as f:
            for key, value in self.provenance.items():
                f.write(f"# {key}={value}\n")
            f.write(header + "\n")
            for lo in range(0, len(columns[0]), _CSV_ROWS):
                rows = zip(*(c[lo:lo + _CSV_ROWS].tolist() for c in columns))
                f.write("".join(line % row for row in rows))
        return path

    def write_json(self, name, payload):
        """Write strict JSON: a NaN or infinity stops the command
        (``artifact-finite``) before the file is opened."""
        path = os.path.join(self.dir, name)
        doc = {"provenance": self.provenance}
        doc.update(payload)
        try:
            text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise SolverError(f"{name}: {exc}",
                              invariant="artifact-finite") from exc
        with open(path, "w") as f:
            f.write(text + "\n")
        return path


def _build_mesh(cfg):
    """Mesh, refine and validate; refuses a mesh predicted to exceed
    ``MAX_TRIANGLES`` (``mesh-size``) before allocating it."""
    h, levels = cfg.mesh.h, cfg.mesh.refinements
    lo, hi = cfg.domain.bounding_box()
    if h > 0:  # triangulate names h <= 0
        # log10 of 2 (W/h + 1)(H/h + 1) 4^levels, which may overflow a float
        size = (math.log10(2.0 * math.prod(float(s) / h + 1.0 for s in hi - lo))
                + levels * math.log10(4.0))
        if size > math.log10(MAX_TRIANGLES):
            raise InvalidArgumentError(
                f"mesh.h = {h:g} with {levels} refinements predicts about "
                f"10^{size:.1f} triangles, above {MAX_TRIANGLES}",
                invariant="mesh-size")
    mesh = triangulate(cfg.domain, h)
    for _ in range(levels):
        mesh = refine(mesh)
    violations = validate_mesh(mesh, cfg.domain)
    if violations:
        raise InvalidArgumentError("; ".join(violations),
                                   invariant="mesh-valid")
    return mesh


def _build_system(cfg):
    mesh = _build_mesh(cfg)
    return assemble(mesh, build_dof_map(mesh, cfg.mesh.degree), cfg.material,
                    sigma=cfg.mesh.sigma)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_check(cfg, out):
    mu = cfg.material.mu
    g_report = check_condition_g(cfg.domain, mu)
    if cfg.search_box is not None:
        box = cfg.search_box
    else:
        lo, hi = cfg.domain.bounding_box()
        pad = float(np.max(hi - lo))
        box = ((lo[0] - pad, lo[1] - pad), (hi[0] + pad, hi[1] + pad))
    lp_report = find_observer_point(cfg.domain, box)
    if lp_report.witness is not None:
        h_report = check_condition_h(cfg.domain, lp_report.witness[0])
    else:
        h_report = lp_report
    out.write_json("condition_g.json", {"report": g_report.to_dict(),
                                        "margins_unit": "radians"})
    out.write_json("observer_point.json", {"report": lp_report.to_dict(),
                                           "search_box": [list(box[0]),
                                                          list(box[1])]})
    out.write_json("condition_h.json", {"report": h_report.to_dict()})
    print(f"condition G: {'satisfied' if g_report.satisfied else 'violated'}; "
          f"condition H: {'satisfied' if h_report.satisfied else 'violated'}")
    return 0


def _cmd_mesh(cfg, out):
    mesh = _build_mesh(cfg)
    path = os.path.join(out.dir, "mesh.txt")
    write_mesh(path, mesh)
    print(f"wrote {path}: {mesh.n_nodes} nodes, {mesh.n_triangles} triangles")
    return 0


def _initial_data(cfg, system):
    kind = cfg.sim.initial_data
    if kind == "boundary_bump":
        return boundary_bump_data(system)
    if kind == "eigenpacket":
        return eigenpacket_data(system)
    n = system.n_free  # "zero"; from_dict allows no other kind
    return np.zeros(n), np.zeros(n)


def _fit_window(sim):
    """The fit window of a run: ``sim.fit_window``, else (max(1, T/4), t_N)
    when T >= 2, else None.  It is checked against the run's times
    (``decay_fit``'s checks) before any time loop, and those times are
    dropped again."""
    window = sim.fit_window
    if window is None and sim.T < 2.0:
        return None
    times = step_times(sim.dt, sim.T)
    if window is None:  # the trace ends at round(T / dt) dt, not at T
        window = (max(1.0, 0.25 * sim.T), float(times[-1]))
    fit_window_slice(times, window)
    return window


def _cmd_simulate(cfg, out):
    window = _fit_window(cfg.sim)
    system = _build_system(cfg)
    u0, v0 = _initial_data(cfg, system)
    trace = simulate(system, u0, v0, dt=cfg.sim.dt, T=cfg.sim.T,
                     snapshot_stride=cfg.sim.snapshot_stride)
    payload = {"n_free": system.n_free,
               "E0": float(trace.energy[0]), "ET": float(trace.energy[-1]),
               "balance_residual": dissipation_residual(trace),
               "energy_drift": energy_drift(trace)}
    if window is not None:
        # the window fits the times (_fit_window), so decay_fit can refuse
        # it only as window-positive (zero data) or window-flat
        try:
            payload["decay_fit"] = decay_fit(trace, window).to_dict()
        except (InsufficientDataError, InvalidArgumentError) as exc:
            payload["decay_fit_skipped"] = str(exc)
    out.write_json("decay_fit.json", payload)  # serialized before any write
    if cfg.dump_matrices:
        for name, mat in (("K", system.K), ("M", system.M), ("D", system.D)):
            dump_coo(os.path.join(out.dir, f"{name}.txt"), mat)
    out.write_csv("trace.csv", "t,E,diss_d1,diss_d2,diss_corner",
                  (trace.times, trace.energy, trace.diss_d1, trace.diss_d2,
                   trace.diss_corner))
    for step, (u, v) in sorted(trace.snapshots.items()):
        np.savetxt(os.path.join(out.dir, f"state_{step:08d}.txt"),
                   np.column_stack([u, v]), fmt="%.17g", header="u v")
    print(f"simulated {len(trace) - 1} steps; E0={trace.energy[0]:.6g} "
          f"ET={trace.energy[-1]:.6g}")
    return 0


def _spectrum_summary(lam, backward, count):
    """The summary of the computed eigenvalues ``lam``, written by both
    ``spectrum`` and ``resolvent``: their number, whether 0 is in the
    resolvent set, and their largest real part.  That is the spectral
    abscissa only when every eigenvalue was computed (``count = 'all'``);
    the ``count`` eigenvalues nearest a shift need not include the rightmost
    one, so it is then ``max_real_computed``.  ``n_refined`` counts the
    values refined on the pencil (a conjugate pair once), with the largest
    of their ``backward`` errors when there are any."""
    key = "spectral_abscissa" if count == "all" else "max_real_computed"
    refined = backward[np.isfinite(backward) & (lam.imag >= 0)]
    summary = {"n_eigenvalues": len(lam), key: float(np.max(lam.real)),
               "zero_in_resolvent": bool(np.min(np.abs(lam)) > 0.0),
               "n_refined": len(refined)}
    if len(refined):
        summary["max_backward_error"] = float(refined.max())
    return summary


def _cmd_spectrum(cfg, out):
    system = _build_system(cfg)
    count = cfg.spectral.count
    lam, backward = pencil_eigenvalues(system, count,
                                       band=cfg.spectral.omega_band)
    payload = _spectrum_summary(lam, backward, count)
    try:
        band = cfg.spectral.omega_band or resolved_band(lam)
        slope, r2 = damping_branch_fit(lam, band)
        payload.update({"branch_slope": slope, "branch_r_squared": r2,
                        "band": list(band)})
    except (InsufficientDataError, InvalidArgumentError) as exc:
        payload["branch_fit_skipped"] = str(exc)
    out.write_json("spectrum_fit.json", payload)  # serialized before any write
    out.write_csv("spectrum.csv", "re,im,backward_error",
                  (lam.real, lam.imag, backward))
    what = ("spectral abscissa" if count == "all"
            else "largest computed real part")
    print(f"{len(lam)} eigenvalues; {what} {np.max(lam.real):.6g}")
    return 0


def _cmd_resolvent(cfg, out):
    system = _build_system(cfg)
    lam, backward = pencil_eigenvalues(system, band=cfg.spectral.omega_band)
    band = cfg.spectral.omega_band or resolved_band(lam)
    omegas = suggest_sweep_omegas(lam, band, n_grid=cfg.spectral.points)
    sweep = resolvent_sweep(system, omegas)
    theta, r2_theta = growth_fit(sweep, band)
    payload = {**_spectrum_summary(lam, backward, "all"), "theta_hat": theta,
               "R2": {"theta": r2_theta}, "bands": {"fit": list(band)}}
    try:
        slope, r2_branch = damping_branch_fit(lam, band)
        payload["branch_slope"] = slope
        payload["R2"]["branch"] = r2_branch
    except (InsufficientDataError, InvalidArgumentError) as exc:
        payload["branch_fit_skipped"] = str(exc)
    out.write_csv("sweep.csv", "omega,resolvent_norm", sweep.T)
    out.write_json("fit_summary.json", payload)
    print(f"sweep of {len(omegas)} points; theta_hat={theta:.4g}")
    return 0


def _cmd_verify(cfg, out):
    from ._polygon import random_convex_polygon
    from .geometry import polygon_domain
    from .plate_forms import (PolyField, greens_identity_residual,
                              greens_identity_terms,
                              multiplier_identity_residual, q_density)

    rng = np.random.default_rng(cfg.seed)
    mu = cfg.material.mu
    greens, multiplier, q = [], [], []
    n_cases = 100
    for _ in range(n_cases):
        poly = random_convex_polygon(rng, int(rng.integers(3, 9)))
        dom = polygon_domain(poly, gamma0_edges={0})
        u = PolyField.random(rng, int(rng.integers(2, 6)))
        v = PolyField.random(rng, int(rng.integers(2, 6)))
        greens.append(greens_identity_residual(u, v, dom, mu))
        um = PolyField.random(rng, int(rng.integers(2, 5)))
        x0 = rng.uniform(-2.0, 2.0, size=2)
        multiplier.append(multiplier_identity_residual(um, dom, mu, x0))
        x = rng.uniform(-1.0, 1.0, size=2)
        q.append(q_density(u, mu, x))
    # np.max and np.min keep a NaN, where max(0.0, nan) would drop it
    worst_g, worst_m = float(np.max(greens)), float(np.max(multiplier))
    worst_q = float(np.min(q))

    from .geometry import unit_square_domain
    square = unit_square_domain(gamma0_edges=(0, 3))
    hand = greens_identity_terms(PolyField.monomial(2, 0),
                                 PolyField.monomial(2, 0), square, mu)
    tol = 1e-9
    ok = worst_g <= tol and worst_m <= tol and worst_q >= -1e-14
    payload = {
        "passed": bool(ok),
        "tolerance": tol,
        "n_cases": n_cases,
        "hand_case_square_terms": {k: float(v) for k, v in hand.items()},
    }
    # JSON has no NaN: a value that is not finite is null, with the reason
    worst = {"greens_max_residual": worst_g,
             "multiplier_max_residual": worst_m, "q_density_min": worst_q}
    for key, value in worst.items():
        if math.isfinite(value):
            payload[key] = value
        else:
            payload[key] = None
            payload.setdefault("non_finite", {})[key] = (
                f"{value} in at least one of the {n_cases} cases")
    out.write_json("verify.json", payload)
    print(f"verify: {'PASS' if ok else 'FAIL'} "
          f"(greens {worst_g:.3e}, multiplier {worst_m:.3e})")
    if not ok:
        what = ("are not finite" if "non_finite" in payload
                else "exceed tolerance")
        raise SolverError(f"identity residuals {what}",
                          invariant="identity-tolerance")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "mesh": _cmd_mesh,
    "simulate": _cmd_simulate,
    "spectrum": _cmd_spectrum,
    "resolvent": _cmd_resolvent,
    "verify": _cmd_verify,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plate-decay",
        description="Boundary-damped Kirchhoff plate laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        data = _read_config(args.config)
        if args.seed is not None:
            _typed("config", data, dict)["seed"] = args.seed
        cfg = RunConfig.from_dict(data)
        out = _Outputs(cfg, args.out or cfg.output_dir,
                       level=cfg.mesh.refinements)
        return _COMMANDS[args.command](cfg, out)
    except (InvalidArgumentError, OSError) as exc:
        return _emit_error(exc, 2)
    except (SolverError, InsufficientDataError, np.linalg.LinAlgError) as exc:
        return _emit_error(exc, 3)


def _read_config(path):
    """The JSON document in ``path`` (``config-read``, ``config-json``)."""
    try:
        with open(path, "rb") as f:
            text = f.read()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read config {path}: {exc}",
                                   invariant="config-read") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise InvalidArgumentError(f"config {path} is not JSON: {exc}",
                                   invariant="config-json") from exc


def _emit_error(exc, code):
    """Print the JSON error object to stderr and return the exit ``code``.
    An OSError comes from making or writing the output directory
    (``output-write``)."""
    invariant = ("output-write" if isinstance(exc, OSError)
                 else getattr(exc, "invariant", None))
    doc = {"error": type(exc).__name__, "message": str(exc),
           "invariant": invariant, "exit_code": code}
    print(json.dumps(doc), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from platedecay.cli import (MAX_SWEEP_POINTS, RunConfig, _build_mesh,
                            _build_system, build_parser, main)
from platedecay.dynamics import step_times
from platedecay.errors import (InsufficientDataError, InvalidArgumentError,
                               SolverError)
from platedecay.geometry import check_condition_g, lens_domain
from platedecay.meshing import write_mesh

from mesh_file import parse_mesh_file

SQUARE_CFG = {
    "domain": {
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "edges": [{"type": "segment", "label": 0},
                  {"type": "segment", "label": 1},
                  {"type": "segment", "label": 1},
                  {"type": "segment", "label": 0}],
    },
    "gains": [0, 0, 1.0, 0],
    "material": {"mu": 0.3, "rho": 1.0, "inertia": 1.0, "d1": 1.0, "d2": 1.0},
    "variant": 2,
    "mesh": {"h": 0.5, "refinements": 0, "degree": 2},
    "sim": {"dt": 1e-2, "T": 0.2, "initial_data": "boundary_bump"},
    "spectral": {"count": "all", "points": 30},
    "seed": 0,
}


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


DROP = object()  # as a value: remove the entry


def mutated(path, value, data=SQUARE_CFG):
    """A copy of ``data`` with the entry at ``path`` set to ``value``; the
    empty path replaces the whole config."""
    if not path:
        return value
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


def test_config_roundtrip():
    cfg = RunConfig.from_dict(json.loads(json.dumps(SQUARE_CFG)))
    assert cfg.variant == 2
    assert cfg.material.inertia == 1.0
    assert cfg.domain.corner_gains == (0, 0, 1.0, 0)
    assert len(cfg.config_hash()) == 16


def test_variant1_refused_when_angles_too_large():
    data = json.loads(json.dumps(SQUARE_CFG))
    data["variant"] = 1
    data["gains"] = [0, 0, 0, 0]
    with pytest.raises(InvalidArgumentError) as exc:
        RunConfig.from_dict(data)
    assert exc.value.invariant == "condition-g"


def test_check_command(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SQUARE_CFG)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg_path, "--out", str(out)]) == 0
    g = json.loads((out / "condition_g.json").read_text())
    h = json.loads((out / "condition_h.json").read_text())
    lp = json.loads((out / "observer_point.json").read_text())
    assert g["report"]["satisfied"] is False  # 90 deg corners
    assert h["report"]["satisfied"] is True
    assert lp["report"]["witness"]["gamma"] > 0
    assert "config_hash" in g["provenance"]


def test_mesh_command(tmp_path):
    # mesh.txt holds the mesh every other command builds, and writing the
    # parsed mesh again gives the file byte for byte
    for name in ("square", "lens"):
        path = LENS_PATH.parent / f"{name}.json"
        out = tmp_path / name
        assert main(["mesh", "--config", str(path), "--out", str(out)]) == 0
        parsed = parse_mesh_file((out / "mesh.txt").read_text())
        mesh = _build_mesh(RunConfig.from_dict(json.loads(path.read_text())))
        for field, array in parsed.items():
            assert np.array_equal(array, getattr(mesh, field)), field
        write_mesh(tmp_path / "again.txt", replace(mesh, **parsed))
        assert ((tmp_path / "again.txt").read_bytes()
                == (out / "mesh.txt").read_bytes())


def test_simulate_command_and_zero_data(tmp_path):
    data = json.loads(json.dumps(SQUARE_CFG))
    data["sim"]["initial_data"] = "zero"
    data["sim"]["T"] = 2.0  # default window (1, 2)
    cfg_path = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    rows = [line for line in (out / "trace.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == "t,E,diss_d1,diss_d2,diss_corner"
    values = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    assert np.all(values[:, 1] == 0.0)
    payload = json.loads((out / "decay_fit.json").read_text())
    assert "decay_fit" not in payload
    # decay_fit's window-positive refusal
    assert payload["decay_fit_skipped"] == (
        "energy must stay positive on the window")


def test_simulate_snapshots(tmp_path):
    data = json.loads(json.dumps(SQUARE_CFG))
    data["sim"]["snapshot_stride"] = 10
    cfg_path = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    snaps = sorted(p.name for p in out.glob("state_*.txt"))
    assert snaps == ["state_00000000.txt", "state_00000010.txt",
                     "state_00000020.txt"]


def test_spectrum_command(tmp_path):
    cfg_path = write_cfg(tmp_path, SQUARE_CFG)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg_path, "--out", str(out)]) == 0
    rows = [line for line in (out / "spectrum.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == "re,im"
    payload = json.loads((out / "spectrum_fit.json").read_text())
    assert payload["spectral_abscissa"] < 0
    assert payload["zero_in_resolvent"] is True


@pytest.mark.parametrize("h", [0.25, 0.125, 1.0 / 12.0],
                         ids=["h4", "h8", "h12"])
def test_gain_only_undamped_spectrum_exits_0(tmp_path, h):
    # d1 = d2 = 0 with the corner gain: the real parts of the modes the
    # corner does not damp are rounded zeros, measured up to 0.43, 1.57 and
    # 1.53 eps max|lambda| at h = 1/4, 1/8 and 1/12 (1 or 2 BLAS threads),
    # below the 4 of spectrum-dissipative
    data = json.loads(json.dumps(SQUARE_CFG))
    data["material"].update({"d1": 0.0, "d2": 0.0})
    data["mesh"]["h"] = h
    out = tmp_path / "out"
    assert main(["spectrum", "--config", write_cfg(tmp_path, data),
                 "--out", str(out)]) == 0
    assert "spectral_abscissa" in json.loads(
        (out / "spectrum_fit.json").read_text())


def test_spectrum_count_mode_names_partial_maximum(tmp_path, capsys):
    # at h = 1/8 the 40 eigenvalues nearest the shift reach Re = -0.42; the
    # dense solve finds the generator's spectral abscissa near -6e-5
    data = mutated(("mesh", "h"), 0.125)
    payloads, printed = {}, {}
    for count in ("all", 40, 6):
        out = tmp_path / str(count)
        cfg_path = write_cfg(tmp_path, mutated(("spectral", "count"), count,
                                               data))
        assert main(["spectrum", "--config", cfg_path,
                     "--out", str(out)]) == 0
        payloads[count] = json.loads((out / "spectrum_fit.json").read_text())
        printed[count] = capsys.readouterr().out
    abscissa = payloads["all"]["spectral_abscissa"]
    partial = payloads[40]["max_real_computed"]
    assert "spectral_abscissa" not in payloads[40]
    assert "max_real_computed" not in payloads["all"]
    assert partial < 100.0 * abscissa < 0.0
    assert "spectral abscissa" in printed["all"]
    assert "largest computed real part" in printed[40]
    assert "abscissa" not in printed[40]
    # 6 eigenvalues hold 3 eigenfrequencies: too few for the band
    assert "branch_slope" not in payloads[6]
    assert payloads[6]["branch_fit_skipped"] == (
        "too few eigenfrequencies for a band")


def test_resolvent_command(tmp_path):
    cfg_path = write_cfg(tmp_path, SQUARE_CFG)
    out = tmp_path / "out"
    assert main(["resolvent", "--config", cfg_path, "--out", str(out)]) == 0
    payload = json.loads((out / "fit_summary.json").read_text())
    assert "theta_hat" in payload and "bands" in payload
    rows = [line for line in (out / "sweep.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == "omega,resolvent_norm"


def test_resolvent_failed_fit_writes_nothing(tmp_path, capsys):
    data = json.loads(json.dumps(SQUARE_CFG))
    data["spectral"].update({"omega_band": [0.01, 0.011], "points": 5})
    cfg_path = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["resolvent", "--config", cfg_path, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == "band-points"
    assert not (out / "sweep.csv").exists()
    assert not (out / "fit_summary.json").exists()


def test_verify_command(tmp_path, monkeypatch):
    import platedecay.plate_forms as plate_forms

    real, sampled = plate_forms.q_density, []

    def recorded(*args):
        sampled.append(real(*args))
        return sampled[-1]

    monkeypatch.setattr(plate_forms, "q_density", recorded)
    cfg_path = write_cfg(tmp_path, SQUARE_CFG)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is True
    assert payload["greens_max_residual"] <= 1e-9
    assert payload["multiplier_max_residual"] <= 1e-9
    # the least of the sampled values, which are all positive here
    assert len(sampled) == 100
    assert payload["q_density_min"] == min(sampled) > 0.0


@pytest.mark.parametrize("name", ["greens_identity_residual",
                                  "multiplier_identity_residual",
                                  "q_density"])
def test_verify_fails_on_one_nan(tmp_path, capsys, monkeypatch, name):
    # one non-finite value among the 100 cases must fail the certificate:
    # Python's max(0.0, nan) and min(0.0, nan) would both drop it
    import platedecay.plate_forms as plate_forms

    real, calls = getattr(plate_forms, name), []

    def one_nan(*args):
        calls.append(None)
        return math.nan if len(calls) == 37 else real(*args)

    monkeypatch.setattr(plate_forms, name, one_nan)
    out = tmp_path / "out"
    code = main(["verify", "--config", write_cfg(tmp_path, SQUARE_CFG),
                 "--out", str(out)])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert code == 3 and err["invariant"] == "identity-tolerance"
    assert "not finite" in err["message"]
    assert len(calls) == 100

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    # a strict parser: Python's json.loads would read a bare NaN
    payload = json.loads((out / "verify.json").read_text(),
                         parse_constant=refuse)
    key = {"greens_identity_residual": "greens_max_residual",
           "multiplier_identity_residual": "multiplier_max_residual",
           "q_density": "q_density_min"}[name]
    assert payload["passed"] is False and payload[key] is None
    assert payload["non_finite"] == {
        key: "nan in at least one of the 100 cases"}


def test_json_artifacts_refuse_non_finite_numbers(tmp_path, capsys,
                                                  monkeypatch):
    import platedecay.cli as cli

    monkeypatch.setattr(cli, "dissipation_residual", lambda trace: math.inf)
    out = tmp_path / "out"
    code = main(["simulate", "--config", write_cfg(tmp_path, SQUARE_CFG),
                 "--out", str(out)])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert code == 3 and err["invariant"] == "artifact-finite"
    assert list(out.iterdir()) == []  # trace.csv neither


def test_csv_values_as_formatted_one_at_a_time(tmp_path, monkeypatch):
    import platedecay.cli as cli

    monkeypatch.setattr(cli, "_CSV_ROWS", 3)  # slices, the last one short
    columns = (np.array([0.0, -0.0, 1e-300, np.inf, -np.inf, np.nan, 1 / 3]),
               0.1 * np.arange(7.0))
    out = cli._Outputs(RunConfig.from_dict(SQUARE_CFG), str(tmp_path), 0)
    lines = Path(out.write_csv("x.csv", "a,b", columns)).read_text()
    assert lines.splitlines()[-8:] == ["a,b"] + [
        ",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]


def test_deterministic_artifacts(tmp_path):
    cfg_path = write_cfg(tmp_path, SQUARE_CFG)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert main(["verify", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "verify.json").read_bytes() == \
        (out2 / "verify.json").read_bytes()
    assert main(["resolvent", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["resolvent", "--config", cfg_path, "--out", str(out2)]) == 0
    for name in ("sweep.csv", "fit_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_validation_error_exit_code_and_json(tmp_path, capsys):
    data = json.loads(json.dumps(SQUARE_CFG))
    data["gains"] = [1.0, 0, 0, 0]  # clamped-interior corner
    cfg_path = write_cfg(tmp_path, data)
    code = main(["check", "--config", cfg_path, "--out",
                 str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["exit_code"] == 2
    assert err["invariant"] == "clamped-corner-gain"


@pytest.mark.parametrize("path, value, invariant", [
    (("material", "d1"), float("nan"), "d1-finite"),
    (("gains", 2), float("inf"), "gain-finite"),
    (("mesh", "h"), float("inf"), "h-finite"),
    (("mesh", "sigma"), float("nan"), "sigma-finite"),
    (("mesh", "refinements"), float("inf"), "refinements-finite"),
    (("sim", "T"), float("nan"), "T-finite"),
    (("sim", "dt"), float("inf"), "dt-finite"),
    (("sim", "snapshot_stride"), float("nan"), "snapshot_stride-finite"),
    (("sim", "fit_window"), [float("nan"), 1.0], "fit_window-finite"),
    (("spectral", "points"), float("nan"), "points-finite"),
    (("spectral", "count"), float("inf"), "count-finite"),
    (("spectral", "omega_band"), [1.0, float("inf")], "omega_band-finite"),
    (("check",), {"search_box": [[float("nan"), 0], [1, 1]]},
     "search_box-finite"),
    (("domain", "vertices", 1, 0), float("nan"), "vertex-finite"),
    (("variant",), float("inf"), "variant-finite"),
    (("seed",), float("nan"), "seed-finite"),
    (("domain", "edges", 0), {"type": "arc", "label": 0,
                              "center": [float("nan"), 0.0], "radius": 1.0},
     "center-finite"),
    (("domain", "edges", 0), {"type": "arc", "label": 0,
                              "center": [0.5, 0.0], "radius": float("inf")},
     "radius-finite"),
])
def test_nonfinite_config_number_rejected(tmp_path, capsys, path, value,
                                          invariant):
    data = mutated(path, value)
    cfg_path = write_cfg(tmp_path, data)  # json writes NaN / Infinity
    out = tmp_path / "out"
    assert main(["resolvent", "--config", cfg_path, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["exit_code"] == 2 and err["invariant"] == invariant


@pytest.mark.parametrize("path, value, invariant", [
    (("mesh", "h"), "abc", "h-type"),
    (("mesh", "refinements"), 1.5, "refinements-type"),
    (("mesh", "degree"), 2.0, None),
    (("spectral", "count"), 2.5, "count-type"),
    (("sim", "snapshot_stride"), 0.5, "snapshot_stride-type"),
    (("spectral", "points"), True, "points-type"),
    (("material", "d1"), "1", "d1-type"),
    (("variant",), 2.0, None),
    (("seed",), [0], "seed-type"),
    (("domain", "edges", 1, "label"), "x", "label-type"),
    (("domain", "edges", 1, "label"), 1.0, None),
    (("domain", "vertices", 1, 0), "a", "vertex-type"),
    (("gains",), ["a", 0, 1.0, 0], "gain-type"),
    (("material", "mu"), "0.3", "mu-type"),
    (("domain", "edges", 0), {"type": "arc", "label": 0, "ccw": "no",
                              "center": [0.5, 0.0], "radius": 1.0},
     "ccw-type"),
    (("domain", "edges", 0), {"type": "arc", "label": 0,
                              "center": ["a", 0.0], "radius": 1.0},
     "center-type"),
    (("domain", "edges", 0), {"type": "arc", "label": 0,
                              "center": [0.5, 0.0], "radius": "1"},
     "radius-type"),
    (("mesh", "h"), None, "h-type"),
    (("sim", "dt"), None, "dt-type"),
    (("spectral", "count"), None, "count-type"),
    (("spectral", "points"), None, "points-type"),
])
def test_config_number_type(tmp_path, capsys, path, value, invariant):
    data = mutated(path, value)
    cfg_path = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    code = main(["simulate", "--config", cfg_path, "--out", str(out)])
    if invariant is None:  # a whole float stands for its integer
        assert code == 0
    else:
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == 2 and err["invariant"] == invariant


def test_unknown_scheme_rejected(tmp_path, capsys):
    # midpoint is the only integrator, so sim has no scheme to choose
    data = json.loads(json.dumps(SQUARE_CFG))
    data["sim"]["scheme"] = "newmark"
    cfg_path = write_cfg(tmp_path, data)
    code = main(["simulate", "--config", cfg_path,
                 "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert code == 2 and err["invariant"] == "sim-unknown"


def test_shipped_square_config_meshes_h_twelfth():
    path = Path(__file__).resolve().parents[1] / "configs" / "square.json"
    cfg = RunConfig.from_dict(json.loads(path.read_text()))
    assert cfg.mesh.h == 1.0 / 12.0
    assert _build_system(cfg).n_free == 576


def test_broken_json_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", "--config", str(path)]) == 2


def shipped_text(name, fraction):
    configs = Path(__file__).resolve().parents[1] / "configs"
    text = (configs / f"{name}.json").read_text()
    return text[:int(fraction * len(text))]


@pytest.mark.parametrize("content, invariant", [
    (None, "config-read"),  # no such file
    ("", "config-json"),
    ("{bad", "config-json"),
    (b"\xff\xfe{", "config-json"),  # not text
    (shipped_text("square", 0.5), "config-json"),
    (shipped_text("square", 0.99), "config-json"),
    (shipped_text("lens", 0.5), "config-json"),
    (shipped_text("lens", 0.99), "config-json"),
], ids=["missing", "empty", "brace", "bytes", "square-half", "square-cut",
        "lens-half", "lens-cut"])
def test_config_file_errors_named(tmp_path, capsys, content, invariant):
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == invariant and "Traceback" not in err["message"]
    assert not out.exists()


def test_seed_override(tmp_path):
    cfg_path = write_cfg(tmp_path, SQUARE_CFG)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg_path, "--out", str(out),
                 "--seed", "123"]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is True


def test_parser_grammar():
    parser = build_parser()
    args = parser.parse_args(["simulate", "--config", "c.json",
                              "--out", "d", "--seed", "7"])
    assert args.command == "simulate" and args.seed == 7


LENS_PATH = Path(__file__).resolve().parents[1] / "configs" / "lens.json"


def test_lens_commands_run(tmp_path):
    cfg_path = str(LENS_PATH)
    out = tmp_path / "out"
    for command in ("simulate", "spectrum", "resolvent"):
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
    rows = [line for line in (out / "trace.csv").read_text().splitlines()
            if not line.startswith("#")]
    t, energy, d1, d2, dc = np.array([[float(x) for x in r.split(",")]
                                      for r in rows[1:]]).T
    balance = np.abs(np.diff(energy) + np.diff(d1 + d2 + dc)) / energy[0]
    assert balance.max() <= 1e-9
    assert np.diff(energy).max() <= 1e-12 * energy[0]
    for name in ("o1", "o2"):
        assert main(["mesh", "--config", cfg_path,
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "o1" / "mesh.txt").read_bytes() == \
        (tmp_path / "o2" / "mesh.txt").read_bytes()


@pytest.mark.parametrize("config", ["square", "lens"])
@pytest.mark.parametrize("mesh, invariant", [
    ({"h": 1e-9}, "mesh-size"),
    ({"refinements": 40}, "mesh-size"),
    ({"refinements": -1}, "refinements-range"),
])
def test_mesh_size_refused_before_meshing(tmp_path, capsys, config, mesh,
                                          invariant):
    data = json.loads((LENS_PATH.parent / f"{config}.json").read_text())
    data["mesh"].update(mesh)
    cfg_path = write_cfg(tmp_path, data)
    assert main(["mesh", "--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == invariant


@pytest.mark.parametrize("path, value, invariant", [
    (("check",), {"search_box": [[0, 0]]}, "search_box-shape"),
    (("check",), {"search_box": [0, 0, 1, 1]}, "search_box-shape"),
    (("spectral", "omega_band"), [3], "omega_band-shape"),
    (("spectral", "omega_band"), 3, "omega_band-shape"),
    (("sim", "fit_window"), [1.0], "fit_window-shape"),
    (("dump_matrices",), "no", "dump_matrices-type"),
    (("domain", "vertices"), [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
     "vertex-shape"),
    (("domain", "vertices"), [0, 0, 1, 0, 1, 1, 0, 1], "vertex-shape"),
    (("domain", "vertices"), [[0, 0], [1, 0], [1]], "vertex-shape"),
])
def test_config_field_shape(tmp_path, capsys, path, value, invariant):
    data = mutated(path, value)
    cfg_path = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == invariant


@pytest.mark.parametrize("path, value, invariant", [
    ((), [], "config-type"),
    ((), None, "config-type"),
    (("sim",), None, "sim-type"),
    (("mesh",), [1], "mesh-type"),
    (("material",), 3, "material-type"),
    (("domain",), 3, "domain-type"),
    (("check",), 3, "check-type"),
    (("domain", "edges"), 3, "edges-type"),
    (("domain", "edges", 1), 3, "edge-type"),
    (("domain",), DROP, "domain-missing"),
    (("domain", "vertices"), DROP, "vertices-missing"),
    (("domain", "edges", 1, "label"), DROP, "label-missing"),
    (("domain", "edges", 0), {"type": "arc", "label": 0, "radius": 1.0},
     "center-missing"),
    (("mesh", "hh"), 0.5, "mesh-unknown"),
    (("sim", "steps"), 10, "sim-unknown"),
    (("spectral", "band"), [1.0, 2.0], "spectral-unknown"),
    (("output_dir",), 3, "output_dir-type"),
    (("seed",), -1, "seed-range"),
    (("spectral", "points"), -1, "points-range"),
    (("spectral", "points"), 0, "points-range"),
    # each section refuses a key it does not know
    (("conditon_g_policy",), "warn", "config-unknown"),
    (("domain", "mu"), 0.3, "domain-unknown"),
    (("domain", "corner_gains"), [0, 0, 1.0, 0], "domain-unknown"),
    (("domain", "edges", 0, "lable"), 0, "edge-unknown"),
    (("domain", "edges", 0, "radius"), 1.0, "edge-unknown"),  # a segment
    (("domain", "edges", 0), {"type": "arc", "label": 0, "center": [0.5, 0],
                              "radius": 1.0, "ccw": True, "cw": False},
     "edge-unknown"),
    (("material", "d_1"), 5, "material-unknown"),
    (("material",), {"J": 1, "inertia": 5}, "material-unknown"),
    (("check",), {"searchbox": [[-1, -1], [2, 2]]}, "check-unknown"),
])
def test_config_structure_named(tmp_path, capsys, path, value, invariant):
    cfg_path = write_cfg(tmp_path, mutated(path, value))
    out = tmp_path / "out"
    assert main(["resolvent", "--config", cfg_path, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == invariant
    assert not out.exists()


@pytest.mark.parametrize("command, changes, invariant", [
    ("simulate", [(("sim", "fit_window"), [0.5, 1.0]),
                  (("sim", "snapshot_stride"), 5),
                  (("dump_matrices",), True)], "window-start"),
    ("check", [(("check",), {"search_box": [[1, 1], [0, 0]]})],
     "search-box"),
])
def test_failed_command_writes_nothing(tmp_path, capsys, command, changes,
                                       invariant):
    data = SQUARE_CFG
    for path, value in changes:
        data = mutated(path, value, data)
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, data),
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == invariant
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("sim, invariant", [
    ({"fit_window": [0.5, 1.0]}, "window-start"),
    ({"fit_window": [2.0, 50.0]}, "window-range"),
    ({"fit_window": [5.0, 5.0015]}, "window-samples"),  # t = 5, 5.001
])
def test_fit_window_checked_before_the_run(tmp_path, capsys, monkeypatch,
                                           sim, invariant):
    import platedecay.cli as cli

    def not_run(*args, **kwargs):
        raise AssertionError("the time loop ran")

    monkeypatch.setattr(cli, "simulate", not_run)
    data = json.loads(json.dumps(SQUARE_CFG))
    data["sim"].update({"dt": 1e-3, "T": 10.0, **sim})
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_cfg(tmp_path, data),
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == invariant
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["mesh", "simulate", "spectrum"])
def test_initial_data_checked_at_parse_time(tmp_path, capsys, monkeypatch,
                                            command):
    import platedecay.cli as cli

    def not_built(*args):
        raise AssertionError("the mesh or the system was built")

    monkeypatch.setattr(cli, "_build_mesh", not_built)
    monkeypatch.setattr(cli, "_build_system", not_built)
    data = mutated(("sim", "initial_data"), "eigenpaket")
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, data),
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == "initial-data"
    assert not out.exists()


ALL_COMMANDS = ("check", "mesh", "simulate", "spectrum", "resolvent",
                "verify")


@pytest.mark.parametrize("command", ALL_COMMANDS)
@pytest.mark.parametrize("config, changes, invariant", [
    ("square", {"gains": [0, 1, 0, 0]}, "clamped-corner-gain"),
    ("lens", {"gains": [5, 5]}, "clamped-corner-gain"),
    ("square", {"variant": 1, "condition_g_policy": "warn",
                "gains": [0, 0, 1, 0]}, "variant-gains"),
    ("square", {"gains": [0, 0, -1, 0]}, "gain-nonnegative"),
    ("square", {"gains": [0, 0, 1]}, "gain-count"),
    ("square", {"gains": [0, 0, 1, 0, 0]}, "gain-count"),
], ids=["square-junction", "lens", "variant-1", "negative", "three-gains",
        "five-gains"])
def test_corner_gains_checked_at_parse_time(tmp_path, capsys, monkeypatch,
                                            command, config, changes,
                                            invariant):
    # a gain at a corner touching the clamped boundary, a negative gain, a
    # gain count other than the corner count, or any gain under variant 1,
    # is refused before any command meshes or assembles
    import platedecay.cli as cli

    def not_built(*args):
        raise AssertionError("the mesh or the system was built")

    monkeypatch.setattr(cli, "_build_mesh", not_built)
    monkeypatch.setattr(cli, "_build_system", not_built)
    data = json.loads((LENS_PATH.parent / f"{config}.json").read_text())
    data.update(changes)
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, data),
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == invariant
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "resolvent"])
@pytest.mark.parametrize("path, value, invariant", [
    (("spectral", "omega_band"), [0, 10], "omega_band-range"),
    (("spectral", "omega_band"), [-1, 10], "omega_band-range"),
    (("spectral", "omega_band"), [10, 10], "omega_band-range"),
    (("spectral", "points"), MAX_SWEEP_POINTS + 1, "points-range"),
], ids=["band-from-0", "band-from-negative", "band-empty", "points"])
def test_sweep_settings_checked_at_parse_time(tmp_path, capsys, monkeypatch,
                                              command, path, value,
                                              invariant):
    # refused before any system is built: no eigensolve runs, and no grid
    # of frequencies is allocated
    import platedecay.cli as cli

    def not_built(*args):
        raise AssertionError("the mesh or the system was built")

    monkeypatch.setattr(cli, "_build_mesh", not_built)
    monkeypatch.setattr(cli, "_build_system", not_built)
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, mutated(path, value)),
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == invariant
    assert not out.exists()


def test_penalty_below_floor_named(tmp_path, capsys):
    data = mutated(("mesh", "sigma"), 1)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", write_cfg(tmp_path, data),
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidArgumentError"
    assert err["invariant"] == "penalty-floor" and err["exit_code"] == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("exc, code", [
    (InvalidArgumentError("refused", invariant="some-rule"), 2),
    (InsufficientDataError("too few points", invariant="some-fit"), 3),
    (SolverError("did not converge", invariant="some-solve"), 3),
    (np.linalg.LinAlgError("singular matrix"), 3),
], ids=["invalid-argument", "insufficient-data", "solver", "linalg"])
def test_one_exit_code_per_error_class(tmp_path, capsys, monkeypatch, exc,
                                       code):
    import platedecay.cli as cli

    def failing(cfg):
        raise exc

    monkeypatch.setattr(cli, "_build_system", failing)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", write_cfg(tmp_path, SQUARE_CFG),
                 "--out", str(out)]) == code
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": type(exc).__name__, "message": str(exc),
                   "invariant": getattr(exc, "invariant", None),
                   "exit_code": code}
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("path, value", [
    (("spectral", "omega_band"), [1e-300, 1e300]),
], ids=["band"])
def test_overflowed_pencil_refused(tmp_path, capsys, path, value):
    # P(i omega) = K - omega^2 M + i omega D overflows above omega ~ 1e154
    # in this band; an exactly singular pencil, whose norm is inf, is
    # finite
    square = json.loads((LENS_PATH.parent / "square.json").read_text())
    data = mutated(path, value, mutated(("mesh", "h"), 0.25, square))
    out = tmp_path / "out"
    assert main(["resolvent", "--config", write_cfg(tmp_path, data),
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidArgumentError"
    assert err["invariant"] == "pencil-finite" and err["exit_code"] == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["spectrum", "resolvent"])
def test_spectrum_with_lost_sign_refused(tmp_path, capsys, command):
    # d1 = 1e300 at h = 1/4: the dense spectrum of the dissipative generator
    # reaches max Re(lambda) = 268 eps max|lambda| (+9.0e124), so both
    # commands stop before anything is fitted, swept or written
    square = json.loads((LENS_PATH.parent / "square.json").read_text())
    data = mutated(("material", "d1"), 1e300,
                   mutated(("mesh", "h"), 0.25, square))
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, data),
                 "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "SolverError"
    assert err["invariant"] == "spectrum-dissipative"
    assert list(out.iterdir()) == []


def test_output_path_that_is_a_file_named(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("not a directory")
    assert main(["check", "--config", write_cfg(tmp_path, SQUARE_CFG),
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == "output-write" and err["exit_code"] == 2
    assert out.read_text() == "not a directory"


def test_spectrum_refused_fit_writes_nothing(tmp_path, capsys, monkeypatch):
    import platedecay.cli as cli

    real = cli.pencil_eigenvalues

    def nan_real_part(*args, **kwargs):  # a NaN spectral abscissa
        lam = real(*args, **kwargs)
        lam[0] = math.nan
        return lam

    monkeypatch.setattr(cli, "pencil_eigenvalues", nan_real_part)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", write_cfg(tmp_path, SQUARE_CFG),
                 "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == "artifact-finite"
    assert list(out.iterdir()) == []


def test_resolvent_without_band_exits_3(tmp_path, capsys):
    # at h = 1 the spectrum has too few eigenfrequencies for a band, and
    # without spectral.omega_band the sweep has none to cover
    out = tmp_path / "out"
    data = mutated(("mesh", "h"), 1.0)
    assert main(["resolvent", "--config", write_cfg(tmp_path, data),
                 "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == "band-data" and err["exit_code"] == 3
    assert list(out.iterdir()) == []


def test_default_window_ends_at_the_last_step(tmp_path):
    # T = 2.0004 with dt = 1e-3 runs 2000 steps, so the trace ends at 2.0
    data = json.loads(json.dumps(SQUARE_CFG))
    data["sim"].update({"dt": 1e-3, "T": 2.0004})
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_cfg(tmp_path, data),
                 "--out", str(out)]) == 0
    payload = json.loads((out / "decay_fit.json").read_text())
    assert payload["decay_fit"]["window"] == [1.0, 2.0]


@pytest.mark.parametrize("config", ["square", "lens"])
def test_shipped_default_windows_end_at_T(config):
    # the default window ends at the last step time; for the shipped configs
    # that is T itself (10^4 steps of 1e-3 end at exactly 10.0), so their
    # decay_fit.json keeps the window (and bytes) it had when it ended at T
    cfg = RunConfig.from_dict(
        json.loads((LENS_PATH.parent / f"{config}.json").read_text()))
    assert step_times(cfg.sim.dt, cfg.sim.T)[-1] == cfg.sim.T


def lens_90_config():
    """``configs/lens.json`` with 90 degree corners, above omega_0(0.3)."""
    data = json.loads(LENS_PATH.read_text())
    dom = lens_domain(math.radians(90))
    for edge, spec in zip(data["domain"]["edges"], dom.edges):
        edge.update(center=list(spec.center), radius=spec.radius)
    return data


@pytest.mark.parametrize("policy", ["warn", None])
def test_condition_g_policy_on_variant_1(tmp_path, capsys, policy):
    data = lens_90_config()
    assert data["variant"] == 1
    if policy is not None:
        data["condition_g_policy"] = policy
    out = tmp_path / "out"
    code = main(["mesh", "--config", write_cfg(tmp_path, data),
                 "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    margin = min(check_condition_g(lens_domain(math.radians(90)),
                                   0.3).margins.values())
    assert margin < 0
    if policy == "warn":
        assert code == 0 and (out / "mesh.txt").is_file()
        warnings = [line for line in err if line.startswith("warning:")]
        assert len(warnings) == 1 and f"{margin:.4g} rad" in warnings[0]
    else:
        assert code == 2
        assert json.loads(err[-1])["invariant"] == "condition-g"


def test_undamped_run_skips_decay_fit(tmp_path):
    data = json.loads(json.dumps(SQUARE_CFG))
    data["material"].update({"d1": 0.0, "d2": 0.0})
    data["gains"] = [0, 0, 0, 0]
    data["sim"]["T"] = 2.0  # default window (1, 2)
    cfg_path = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    payload = json.loads((out / "decay_fit.json").read_text())
    assert "decay_fit" not in payload
    assert "flat" in payload["decay_fit_skipped"]


@pytest.mark.parametrize("material, initial_data", [
    ({"d1": 1.0, "d2": 1.0}, "boundary_bump"),
    ({"d1": 0.0, "d2": 0.0}, "boundary_bump"),
    ({"d1": 1.0, "d2": 1.0}, "zero"),
], ids=["damped", "undamped", "zero-data"])
def test_simulate_records_balance_and_drift(tmp_path, recwarn, material,
                                            initial_data):
    data = json.loads(json.dumps(SQUARE_CFG))
    data["material"].update(material)
    if material["d1"] == 0.0:
        data["gains"] = [0, 0, 0, 0]
    data["sim"]["initial_data"] = initial_data
    cfg_path = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    payload = json.loads((out / "decay_fit.json").read_text())
    if initial_data == "zero":
        assert payload["balance_residual"] == 0.0
        assert payload["energy_drift"] == 0.0
        assert len(recwarn) == 0
    elif material["d1"] == 0.0:
        assert payload["energy_drift"] <= 1e-12  # measured 5.1e-15
    else:
        assert payload["balance_residual"] <= 1e-9
        assert payload["energy_drift"] > 0.0


def test_simulate_peak_bytes_per_step(tmp_path, monkeypatch):
    # What a CLI simulate adds to its trace.  The time loop is replaced by a
    # trace of the same five float arrays (40 bytes per step): 4e5 steps at
    # h = 0.5 take 30 s, and ten times that under tracemalloc.  The window
    # check drops its times before the run, the balance residual and the
    # drift reduce the trace in slices, and decay_fit centers log t in
    # place.  Measured 58.1 bytes per step (72.3 with the check's times
    # kept, whole-trace temporaries in both reductions and a centered copy
    # of log t)
    import tracemalloc

    import platedecay.cli as cli
    from platedecay.dynamics import EnergyTrace

    def decaying_trace(system, u0, v0, dt, T, snapshot_stride):
        times = step_times(dt, T)
        energy = 1.0 / (1.0 + times)
        loss = energy[0] - energy
        return EnergyTrace(times=times, energy=energy, diss_d1=0.5 * loss,
                           diss_d2=0.25 * loss, diss_corner=0.25 * loss)

    monkeypatch.setattr(cli, "simulate", decaying_trace)
    data = json.loads(json.dumps(SQUARE_CFG))
    data["sim"].update({"dt": 1e-3, "T": 400.0})
    cfg_path = write_cfg(tmp_path, data)
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 400_000


def test_eigenpacket_beyond_dense_limit_exits_2(tmp_path, capsys):
    data = json.loads(json.dumps(SQUARE_CFG))
    data["mesh"]["h"] = 1.0 / 24.0  # 2 x 2304 first-order dofs
    data["sim"]["initial_data"] = "eigenpacket"
    cfg_path = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == "dense-limit"
    assert "4608" in err["message"] and "4096" in err["message"]
    assert "count" not in err["message"]


def _fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports this checkout's
    package; returns the last line it printed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip().splitlines()[-1]


def test_module_run_executes_cli_once(tmp_path):
    # `import platedecay` leaves platedecay.cli unloaded, so runpy executes
    # it once, as __main__, with no "found in sys.modules" RuntimeWarning
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "platedecay.cli",
         "check", "--config", str(LENS_PATH.parent / "square.json"),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "condition_h.json").is_file()


# left out of `import platedecay.cli`
SCIPY_LEFT_OUT = ("scipy.signal", "scipy.optimize", "scipy.spatial")

# argv: config, output root, commands; prints the exit codes and which of
# SCIPY_LEFT_OUT were loaded after the import and after each command
RUN_COMMANDS = f"""
import json, os, sys
from platedecay.cli import main
config, root, commands = sys.argv[1], sys.argv[2], sys.argv[3:]
codes, loaded = [], [[m in sys.modules for m in {SCIPY_LEFT_OUT!r}]]
for c in commands:
    codes.append(main([c, "--config", config, "--out", os.path.join(root, c)]))
    loaded.append([m in sys.modules for m in {SCIPY_LEFT_OUT!r}])
print(json.dumps([codes, loaded]))
"""


def test_cli_import_leaves_out_scipy_signal():
    # nor scipy.optimize (no module imports it) or scipy.spatial (the
    # Delaunay mesher of curved domains, imported where it is called).
    # With no command, RUN_COMMANDS reports what the import alone loaded.
    codes, loaded = json.loads(_fresh_python(RUN_COMMANDS, "", ""))
    assert codes == [] and loaded == [[False, False, False]]


def test_square_certificate_leaves_out_optimize_and_spatial(tmp_path):
    # every command, so none loads scipy.optimize
    data = json.loads(json.dumps(SQUARE_CFG))
    data["mesh"]["h"] = 0.25
    commands = ["check", "mesh", "simulate", "spectrum", "resolvent", "verify"]
    codes, loaded = json.loads(_fresh_python(
        RUN_COMMANDS, write_cfg(tmp_path, data), str(tmp_path), *commands))
    assert codes == [0] * 6
    assert loaded == [[False, False, False]] * 7


def test_lens_check_and_mesh_load_their_modules_on_call(tmp_path):
    # the observer-point LP needs no scipy.optimize; meshing the lens
    # still loads scipy.spatial
    commands = ["check", "mesh"]
    codes, loaded = json.loads(_fresh_python(
        RUN_COMMANDS, str(LENS_PATH), str(tmp_path / "fresh"), *commands))
    assert codes == [0, 0]
    assert loaded == [[False, False, False], [False, False, False],
                      [False, False, True]]
    for command in commands:
        here = tmp_path / "here" / command
        assert main([command, "--config", str(LENS_PATH),
                     "--out", str(here)]) == 0
        fresh = tmp_path / "fresh" / command
        names = sorted(p.name for p in here.iterdir())
        assert names == sorted(p.name for p in fresh.iterdir()) and names
        for name in names:
            assert (fresh / name).read_bytes() == (here / name).read_bytes()


def test_observer_lp_pivot_guard_exits_3(tmp_path, capsys, monkeypatch):
    # the guard is never reached (Bland's rule terminates); reaching it is a
    # solver failure, not a "condition H violated" verdict
    import platedecay.geometry as geometry

    monkeypatch.setattr(geometry, "_LP_PIVOTS_PER_ROW", 0)
    out = tmp_path / "out"
    assert main(["check", "--config", str(LENS_PATH), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == "lp-terminates" and err["exit_code"] == 3
    assert not (out / "condition_h.json").exists()


def test_step_count_refused_before_allocating(tmp_path, capsys):
    data = json.loads(json.dumps(SQUARE_CFG))
    data["sim"].update({"dt": 1e-3, "T": 1e10})
    cfg_path = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == "sim-steps"
    assert not (out / "trace.csv").exists()


def test_indefinite_stiffness_exits_3(tmp_path, capsys, monkeypatch):
    import platedecay.cli as cli

    def shifted(cfg):
        system = _build_system(cfg)
        lam_min = np.linalg.eigvalsh(system.K.toarray())[0]
        system.K = (system.K - 2.0 * lam_min
                    * sp.identity(system.n_free)).tocsr()
        return system

    monkeypatch.setattr(cli, "_build_system", shifted)
    cfg_path = write_cfg(tmp_path, SQUARE_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == "energy-pd"
    assert not (out / "trace.csv").exists()


def test_benchmark_spans_find_every_name_and_restore_it(monkeypatch):
    """``perfbench/run.py --trace 1`` wraps the functions each command calls
    by the names they have in these modules; a renamed or removed one fails
    here, on every platform, and after ``restore`` every wrapped attribute
    is the original object again."""
    import platedecay.cli as cli
    import platedecay.geometry as geometry
    import platedecay.plate_forms as plate_forms

    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    import run
    from spans import Tracer

    owners = (cli, cli.RunConfig, geometry, plate_forms)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    try:
        run.install_spans(tracer, traced=True)
        wrapped = [name for owner, old in zip(owners, before)
                   for name, value in vars(owner).items()
                   if value is not old.get(name)]
    finally:
        tracer.restore()
    assert len(wrapped) == 27
    for owner, old in zip(owners, before):
        assert vars(owner).keys() == old.keys()
        assert all(vars(owner)[name] is value for name, value in old.items())

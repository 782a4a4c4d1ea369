import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from platedecay.cli import RunConfig, _build_system, build_parser, main, run
from platedecay.errors import ConfigValidationError
from platedecay.geometry import check_condition_g, lens_domain

SQUARE_CFG = {
    "domain": {
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "edges": [{"type": "segment", "label": 0},
                  {"type": "segment", "label": 1},
                  {"type": "segment", "label": 1},
                  {"type": "segment", "label": 0}],
        "corner_gains": [0, 0, 1.0, 0],
        "mu": 0.3,
    },
    "material": {"mu": 0.3, "rho": 1.0, "J": 1.0, "d1": 1.0, "d2": 1.0},
    "variant": 2,
    "mesh": {"h": 0.5, "refinements": 0, "degree": 2},
    "sim": {"dt": 1e-2, "T": 0.2, "scheme": "midpoint",
            "initial_data": "boundary_bump"},
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


def test_gains_override_domain():
    data = json.loads(json.dumps(SQUARE_CFG))
    data["gains"] = [0, 0, 2.0, 0]
    cfg = RunConfig.from_dict(data)
    assert cfg.domain.corner_gains == (0, 0, 2.0, 0)


def test_mu_mismatch_rejected():
    data = json.loads(json.dumps(SQUARE_CFG))
    data["material"]["mu"] = 0.4
    with pytest.raises(ConfigValidationError):
        RunConfig.from_dict(data)


def test_variant1_refused_when_angles_too_large():
    data = json.loads(json.dumps(SQUARE_CFG))
    data["variant"] = 1
    data["gains"] = [0, 0, 0, 0]
    data["domain"]["corner_gains"] = [0, 0, 0, 0]
    with pytest.raises(ConfigValidationError):
        RunConfig.from_dict(data)


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
    cfg_path = write_cfg(tmp_path, SQUARE_CFG)
    out = tmp_path / "out"
    assert main(["mesh", "--config", cfg_path, "--out", str(out)]) == 0
    text = (out / "mesh.txt").read_text()
    assert text.startswith("$Nodes")
    from platedecay.meshing import read_mesh, validate_mesh
    mesh = read_mesh(out / "mesh.txt")
    assert validate_mesh(mesh) == []


def test_simulate_command_and_zero_data(tmp_path):
    data = json.loads(json.dumps(SQUARE_CFG))
    data["sim"]["initial_data"] = "zero"
    cfg_path = write_cfg(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    rows = [line for line in (out / "trace.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == "t,E,diss_d1,diss_d2,diss_corner"
    values = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    assert np.all(values[:, 1] == 0.0)


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


def test_verify_command(tmp_path):
    cfg_path = write_cfg(tmp_path, SQUARE_CFG)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is True
    assert payload["greens_max_residual"] <= 1e-9
    assert payload["multiplier_max_residual"] <= 1e-9


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
    data["domain"]["corner_gains"] = [1.0, 0, 0, 0]  # clamped-interior corner
    cfg_path = write_cfg(tmp_path, data)
    code = main(["check", "--config", cfg_path, "--out",
                 str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["exit_code"] == 2
    assert err["invariant"] == "clamped-corner-gain"


@pytest.mark.parametrize("path, value, invariant", [
    (("material", "d1"), float("nan"), "d1-finite"),
    (("domain", "corner_gains", 2), float("inf"), "gain-finite"),
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
    (("domain", "corner_gains"), ["a", 0, 1.0, 0], "gain-type"),
    (("domain", "mu"), "0.3", "mu-type"),
    (("domain", "edges", 0, "ccw"), "no", "ccw-type"),
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
    data = json.loads(json.dumps(SQUARE_CFG))
    data["sim"]["scheme"] = "newmark"
    cfg_path = write_cfg(tmp_path, data)
    code = main(["simulate", "--config", cfg_path,
                 "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert code == 2 and err["invariant"] == "scheme"


def test_shipped_square_config_meshes_h_twelfth():
    path = Path(__file__).resolve().parents[1] / "configs" / "square.json"
    cfg = RunConfig.from_dict(json.loads(path.read_text()))
    assert cfg.mesh.h == 1.0 / 12.0
    assert _build_system(cfg)[2].n_free == 576


def test_broken_json_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", "--config", str(path)]) == 2


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
    data["domain"]["corner_gains"] = [0, 0, 0, 0]
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
        data["domain"]["corner_gains"] = [0, 0, 0, 0]
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


def test_cli_import_leaves_out_scipy_signal():
    code = ("import sys, platedecay.cli; "
            "print('scipy.signal' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


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
        mesh, dofs, system = _build_system(cfg)
        lam_min = np.linalg.eigvalsh(system.K.toarray())[0]
        system.K = (system.K - 2.0 * lam_min
                    * sp.identity(system.n_free)).tocsr()
        return mesh, dofs, system

    monkeypatch.setattr(cli, "_build_system", shifted)
    cfg_path = write_cfg(tmp_path, SQUARE_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["invariant"] == "energy-pd"
    assert not (out / "trace.csv").exists()

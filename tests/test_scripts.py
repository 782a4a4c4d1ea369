"""The studies of scripts/study.py at coarse settings, in-process."""

import json
import runpy
from pathlib import Path

import pytest

from platedecay import (PlateMaterial, assemble, build_dof_map,
                        damping_branch_fit, growth_fit, pencil_eigenvalues,
                        resolved_band, resolvent_sweep, suggest_sweep_omegas,
                        triangulate, unit_square_domain)

STUDY = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "scripts" / "study.py"))


def run_study(out, *args):
    status = STUDY["main"]([*args, "--out", str(out)])
    table = json.loads((out / "study.json").read_text())
    return status, {row["case"]: row for row in table["cases"]}


@pytest.mark.parametrize("args, cases", [
    (["certificate", "--levels", "0.25"], ["resolvent-h0.25"]),
    (["decay", "--h", "0.5", "--T", "0.2"], ["damped", "control"]),
    (["lens", "--angles-deg", "30", "90", "--h", "0.3"],
     ["check-30deg", "mesh-30deg", "check-90deg", "mesh-90deg"]),
], ids=["certificate", "decay", "lens"])
def test_study_runs(tmp_path, args, cases):
    status, rows = run_study(tmp_path, *args)
    assert status == 0
    assert list(rows) == cases
    for case, row in rows.items():
        assert row["exit"] == 0
        assert (tmp_path / case / "config.json").is_file()
        if row["command"] != "mesh":
            assert row["artifacts"]


def test_certificate_row_matches_library_pipeline(tmp_path):
    _, rows = run_study(tmp_path, "certificate", "--levels", "0.25")
    fit = rows["resolvent-h0.25"]["artifacts"]["fit_summary"]

    dom = unit_square_domain(gamma0_edges=(0, 3), corner_gains=(0, 0, 1.0, 0))
    mat = PlateMaterial(mu=0.3, rho=1.0, inertia=1.0, d1=1.0, d2=1.0)
    mesh = triangulate(dom, 0.25)
    system = assemble(mesh, build_dof_map(mesh, 2), mat)
    lam, _ = pencil_eigenvalues(system)
    band = resolved_band(lam)
    sweep = resolvent_sweep(system, suggest_sweep_omegas(lam, band))
    assert fit["theta_hat"] == growth_fit(sweep, band)[0]
    assert fit["branch_slope"] == damping_branch_fit(lam, band)[0]
    assert fit["n_eigenvalues"] == len(lam)
    assert fit["spectral_abscissa"] == float(max(lam.real))
    assert fit["zero_in_resolvent"] is bool(min(abs(lam)) > 0.0)


@pytest.mark.parametrize("args", [
    ["certificate", "--h", "0.1"],
    ["lens", "--T", "5"],
    ["decay", "--levels", "0.5"],
])
def test_option_of_another_study_is_refused(tmp_path, args):
    with pytest.raises(SystemExit) as exc:
        STUDY["main"]([*args, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not (tmp_path / "study.json").exists()


def test_failed_case_is_tabled_and_fails_the_study(tmp_path):
    run_study(tmp_path, "decay", "--h", "0.5", "--T", "0.2")
    # dt < 0 is refused: both cases exit 2, and the table keeps no
    # artifacts left in their directories by the run before
    status, rows = run_study(tmp_path, "decay", "--h", "0.5", "--T", "0.2",
                             "--dt", "-1")
    assert status == 1
    assert [row["exit"] for row in rows.values()] == [2, 2]
    assert all(row["artifacts"] == {} for row in rows.values())

"""Smoke runs of the study scripts at coarse settings, in-process."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, artifact", [
    ("spectral_certificate.py", ["--levels", "0.25"], "fit_summary.json"),
    ("square_decay_study.py", ["--h", "0.5", "--T", "0.2"], "summary.json"),
    ("lens_geometry_study.py", ["--angles-deg", "30", "90", "--h", "0.3"],
     "lens_report.json"),
])
def test_script_runs(tmp_path, monkeypatch, script, args, artifact):
    monkeypatch.setattr(sys, "argv",
                        [script, *args, "--out", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert (tmp_path / artifact).stat().st_size > 0

"""Tests of the benchmark itself: gates reject corrupted results, spans
account for wall time, and every metric has a valid name and a unit."""

import json
import re
import sys
import time
import types
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gates  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
GOOD_FIT = {"theta_hat": 1.2, "branch_slope": -1.0,
            "R2": {"theta": 0.98, "branch": 0.92}}


def failed(checks):
    return {name for name, ok, _ in checks if not ok}


def energy_table(energy):
    energy = np.asarray(energy, dtype=float)
    zeros = np.zeros_like(energy)
    return np.stack([np.arange(len(energy)) * 1e-3, energy, zeros, zeros,
                     zeros], axis=1)


def test_all_zero_eigenvalues_rejected():
    assert failed(gates.spectrum_gates(np.zeros(40, dtype=complex))) == {
        "eigenvalues-nonzero", "abscissa-negative"}


def test_stable_spectrum_accepted():
    lam = np.array([-1e-3 + 5j, -1e-3 - 5j, -2.0 + 0j])
    assert failed(gates.spectrum_gates(lam)) == set()


def test_drift_above_pinned_bound_rejected():
    bad = gates.energy_scalars(energy_table([1.0, 1.0 + 1.47e-11, 1.0]))
    assert failed(gates.conservation_gates(bad, 2)) == {"drift"}
    good = gates.energy_scalars(energy_table([1.0, 1.0 + 4e-12, 1.0]))
    assert failed(gates.conservation_gates(good, 2)) == set()
    assert failed(gates.conservation_gates(good, 10_000)) == {"steps"}


def test_energy_balance_and_monotonicity():
    rising = gates.energy_scalars(energy_table([1.0, 0.9, 0.95]))
    assert failed(gates.damped_gates(rising)) == {"balance",
                                                  "energy-nonincreasing"}


def test_nonfinite_sweep_value_rejected():
    sweep = np.array([[1.0, 2.0], [2.0, np.inf], [3.0, np.nan]])
    checks = gates.resolvent_gates(GOOD_FIT, sweep)
    assert failed(checks) == {"sweep-finite"}
    assert dict((g, v) for g, _, v in checks)["sweep-finite"] == 2
    assert failed(gates.resolvent_gates(GOOD_FIT, sweep[:1])) == set()


def test_fit_bounds_and_missing_fits_rejected():
    sweep = np.array([[1.0, 2.0]])
    steep = dict(GOOD_FIT, theta_hat=2.6, R2={"theta": 0.5, "branch": 0.95})
    assert failed(gates.resolvent_gates(steep, sweep)) == {"theta", "theta-r2"}
    skipped = {"theta_hat": 1.1, "R2": {"theta": 0.97}}
    assert failed(gates.resolvent_gates(skipped, sweep)) == {"branch-slope",
                                                             "branch-r2"}
    assert failed(gates.refinement_gate(1.2, 1.6)) == {"theta-refinement"}
    assert failed(gates.refinement_gate(1.2, 1.13)) == set()


def test_identity_residual_rejected():
    report = {"greens_max_residual": 2e-9, "multiplier_max_residual": 1e-14}
    assert failed(gates.identity_gates(report)) == {"identity-residual"}


def test_corrupted_spectrum_artifact_rejected(tmp_path):
    rows = "".join("0,0\n" for _ in range(40))
    (tmp_path / "spectrum.csv").write_text(
        "# config_hash=x\n# mesh_level=0\n# version=0\nre,im\n" + rows)
    (tmp_path / "spectrum_fit.json").write_text(json.dumps(
        {"spectral_abscissa": 0.0}))
    checks, scalars = gates.check_artifacts("spectrum", tmp_path)
    assert failed(checks) == {"eigenvalues-nonzero", "abscissa-negative"}
    assert scalars == {"spectral_abscissa": 0.0}


def test_spans_account_for_wall_time():
    owner = types.SimpleNamespace()

    def inner():
        time.sleep(0.002)

    def outer():
        owner.inner()
        time.sleep(0.001)

    owner.inner, owner.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(owner, "inner", "b")
    tracer.wrap(owner, "outer", "a")
    root = tracer.open("cli.cmd", "cli")
    owner.outer()
    tracer.close(root)
    tracer.restore()
    assert owner.inner is inner and owner.outer is outer
    assert [s.name for s in tracer.spans] == ["cli.cmd", "a.outer", "b.inner"]
    assert tracer.spans[2].parent == 1 and tracer.spans[1].parent == 0
    own = tracer.self_times()
    assert abs(sum(own) - root.duration) < 1e-9
    assert own[2] >= 0.002 and own[1] >= 0.001


def failed_record(*gate_names):
    return {"failed_gates": list(gate_names)}


def test_seed_defect_operation_failing_another_gate_is_unexpected():
    ops = {op.tag: op for op in run.WORKLOADS["decay-lens-fine"][0]}
    control, lens = ops["simulate:control"], ops["simulate:lens"]
    sparse, damped = ops["spectrum:square-h24"], ops["simulate:square"]
    assert not run.unexpected_failure(control, failed_record("drift"))
    assert run.unexpected_failure(control, failed_record("drift", "steps"))
    assert not run.unexpected_failure(lens, failed_record("exit-3"))
    assert run.unexpected_failure(lens, failed_record("exit-2"))
    assert run.unexpected_failure(lens, failed_record("exit-exception"))
    assert not run.unexpected_failure(sparse, failed_record(
        "eigenvalues-nonzero", "abscissa-negative"))
    assert run.unexpected_failure(sparse, failed_record(
        "eigenvalues-nonzero", "artifacts"))
    assert not run.unexpected_failure(control, failed_record())  # fixed
    assert run.unexpected_failure(damped, failed_record("balance"))


def test_layer_metrics_leave_out_failed_operations():
    tracer = Tracer()
    for op, steps in ((0, 10), (1, 5)):
        tracer.op = op
        root = tracer.open("cli.simulate", "cli")
        inner = tracer.open("dynamics.simulate", "dynamics")
        time.sleep(0.001)
        tracer.close(inner)
        inner.info["steps"] = steps
        if op == 1:
            eigs = tracer.open("spectral.pencil_eigenvalues", "spectral")
            tracer.close(eigs)
            eigs.info["dense"] = False
        tracer.close(root)
    records = [{"index": k, "pass": 0, "wall_s": tracer.spans[2 * k].duration,
                "bytes": 7, "scalars": {}, "failed_gates": gate_names}
               for k, gate_names in ((0, []), (1, ["exit-3"]))]
    m = run.layer_metrics(records, tracer)
    assert m["dynamics.steps"] == 10
    assert m["dynamics.simulate_ms"] == 1000.0 * tracer.spans[1].duration
    assert m["cli.artifact_bytes"] == 7
    assert m["spectral.eigs_ms"] == "missing: failed gate exit-3"
    assert m["spectral.eig_ms"] is None
    assert m["accounting_gap_ms"] < 1e-6


def test_command_metric_of_failed_command_is_missing_with_its_gate():
    ops = [run.Op("simulate", "lens", seed_defect=frozenset({"exit-3"}))]
    records = [{"slot": 0, "index": 0, "command": "simulate", "wall_s": 0.5,
                "failed_gates": ["exit-3"]}]
    metrics = run.command_metrics(records, Tracer(), ops)
    assert metrics["simulate_s"] == ({"simulate:lens":
                                      "missing: failed gate exit-3"}, "s")
    assert metrics["step_ms"][0] == {"simulate:lens":
                                     "missing: failed gate exit-3"}


def test_metric_names_and_units():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
    names = [*run.LAYER_TIMES, *run.LAYER_COUNTS, *run.LAYER_SCALARS,
             *(name for name, _, _ in run.COMMAND_METRICS),
             *(f"{layer}.self_ms" for layer in run.LAYERS)]
    for name in names:
        assert NAME.match(name), name
        assert UNIT.match(run.unit_of(name)), name
    produced = {*run.LAYER_TIMES, *run.LAYER_COUNTS, *run.LAYER_SCALARS,
                "cli.self_ms", "cli.artifact_bytes", "trace_overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "pass_s", "unit_ms", "peak_rss_mb"}

"""End-to-end acceptance gate: one test per shipped guarantee.

Every test states its tolerance inline and prints the measured numbers, so
`pytest -v` reads as a pass/fail checklist.  Two checks test statements that
are easy to get backwards:

* the literal outer-envelope formula sqrt(3 + 3 eps - 2t) for the rounded
  square cannot hold at t = 0 for any admissible initial region (the required
  corner sits at distance sqrt(5) > sqrt(3 + 3 eps)); the scenario enforces
  the measured-radius envelope and reports the literal formula as a
  diagnostic, which is checked against that corner and against
  envelopes.csv;
* the divergence-form integrated identity d/dt int(phi) =
  int(dt phi - div_M(D phi) - |H|^2 phi) follows from the transport form by
  integration by parts (int(div_M D phi) = -int(H . D phi) on a closed
  surface), so both forms converge on the shrinking circle and the plane.
"""

import csv
import hashlib
import importlib.util
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from mcflab.cli import main as cli_main
from mcflab.flow import FlowConfig, FlowState, run_flow
from mcflab.geometry import (
    GraphPatch,
    SurfaceSample,
    gradient_field,
    hessian_field,
    mean_curvature_graph,
    sample_surface,
    second_fundamental_norm,
    tilt,
)
from mcflab.monitors import (
    IDENTITY_TOL_REL_DEFAULT,
    calibrate_constant,
    check_brakke_identity,
    check_curvature_bound_EH,
    phi_rho_cubed_field,
)
from mcflab.scenarios import (
    _graph_config,
    _line_patch,
    _patch_axis,
    _ramp,
    scenario_become_graphical,
    scenario_bounded_curvature,
    scenario_flat_plane,
    scenario_flat_stay_graphical,
    scenario_shrinking_square,
    scenario_stay_graphical,
)

from conftest import fitted_order, make_circle, run_states

MONO_IDS = ("phi_monotonicity", "upsilon_monotonicity")
ROOT = Path(__file__).resolve().parents[1]
RUN_DIGESTS = ROOT / "tests" / "data" / "run_digests.json"


# ---------------------------------------------------------------------------
# Shared heavy runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def circle_run():
    t0 = time.monotonic()
    trace, states = run_states(make_circle(radius=1.0, m=512),
                               FlowConfig(t_end=0.6, record_stride=200))
    return trace, states, time.monotonic() - t0


@pytest.fixture(scope="module")
def square_result(out_root):
    t0 = time.monotonic()
    res = scenario_shrinking_square(epsilon=0.1, out_dir=out_root / "square")
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def stay_results(out_root):
    t0 = time.monotonic()
    results = {
        L: scenario_stay_graphical(L=L, resolution=256, seed=0,
                                   out_dir=out_root / f"stay_L{L}")
        for L in (0.5, 1.0, 2.0)
    }
    return results, time.monotonic() - t0


@pytest.fixture(scope="module")
def fold_result(out_root):
    t0 = time.monotonic()
    res = scenario_become_graphical(L=1.0, gamma=0.02, epsilon=0.05,
                                    out_dir=out_root / "fold")
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def small_scenarios(out_root):
    return {
        "flat_plane": scenario_flat_plane(out_dir=out_root / "flat_plane"),
        "flat_stay_graphical": scenario_flat_stay_graphical(
            out_dir=out_root / "flat_stay"),
        "bounded_curvature": scenario_bounded_curvature(
            out_dir=out_root / "bounded"),
    }


@pytest.fixture(scope="module")
def battery(square_result, stay_results, fold_result, small_scenarios):
    """Every scenario run executed by this gate, as (name, result) pairs."""
    runs = [("shrinking_square", square_result[0]),
            ("become_graphical", fold_result[0])]
    runs.extend((f"stay_graphical_L{L}", r)
                for L, r in stay_results[0].items())
    runs.extend(small_scenarios.items())
    return runs


# ---------------------------------------------------------------------------
# 1. Circle exact solution
# ---------------------------------------------------------------------------


def test_criterion_01_circle_tracks_exact_radius(circle_run):
    trace, states, elapsed = circle_run
    worst = 0.0
    for state in states:
        if state.t > 0.45:
            break
        r_disc = float(np.max(np.linalg.norm(state.surface.vertices, axis=1)))
        r_true = math.sqrt(1.0 - 2.0 * state.t)
        worst = max(worst, abs(r_disc - r_true) / r_true)
    T = trace.extinction_time
    print(f"criterion 1: max radius error {worst:.2e} (tol 2e-3), "
          f"extinction {T:.6f} (target 0.5 +- 1%), runtime {elapsed:.1f}s")
    assert worst <= 2e-3
    assert T is not None and abs(T - 0.5) <= 0.005
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. Shrinking square
# ---------------------------------------------------------------------------


def test_criterion_02_square_envelopes_and_milestones(square_result):
    res, elapsed = square_result
    m = res.measured
    print(f"criterion 2: T={m['extinction_time']:.4f}, "
          f"t_ng(2,2)={m['t_nongraphical_22']:.4f}, "
          f"t_ng(1,1)={m['t_nongraphical_11']:.4f}, "
          f"avoidance margin {m['avoidance_margin']:.2e}, "
          f"measured containment margin {m['containment_margin']:.2e}, "
          f"runtime {elapsed:.1f}s")
    assert res.passed, res.failures
    assert 0.5 <= m["extinction_time"] <= 2.0
    assert m["avoidance_margin"] >= -1e-9
    assert m["containment_margin"] >= -1e-3
    assert m["t_nongraphical_22"] is not None
    assert m["t_nongraphical_11"] is not None
    assert m["t_nongraphical_11"] >= m["t_nongraphical_22"]
    assert elapsed < 120.0


def test_criterion_02_literal_outer_envelope(square_result, out_root):
    # The literal formula is a diagnostic that can never hold: the corner
    # (2, 2) of the required initial region is at distance sqrt(5) ~ 2.236
    # from (0, 1), already outside the claimed initial radius
    # sqrt(3 + 3 eps) ~ 1.817.  Check that the diagnostic reports exactly
    # that, about the right centre, and agrees with envelopes.csv.
    res, _ = square_result
    m = res.measured
    eps = m["epsilon"]
    r0 = math.sqrt(3 + 3 * eps)
    floor = math.sqrt(5) - r0
    print(f"criterion 2 (literal formula): initial radius "
          f"{m['r0_literal']:.4f} vs measured {m['r0_measured']:.4f}, "
          f"worst violation {m['containment_literal_violation']:.4f} "
          f"(corner floor {floor:.4f})")
    assert math.isclose(m["r0_literal"], r0, rel_tol=1e-12)
    assert not m["containment_literal_holds"]
    assert m["containment_literal_violation"] >= floor
    with open(out_root / "square" / "envelopes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    v0 = res.traces["run"].snapshots[0].surface.vertices
    d0 = float(np.max(np.linalg.norm(v0 - np.array([0.0, 1.0]), axis=1)))
    assert math.isclose(float(rows[0]["max_dist_to_center"]), d0,
                        rel_tol=1e-12)
    from_csv = max(float(r["max_dist_to_center"]) - float(r["R"])
                   for r in rows if r["R"] != "")
    assert math.isclose(m["containment_literal_violation"], from_csv,
                        rel_tol=1e-12)


# ---------------------------------------------------------------------------
# 3. Monotonicity suite
# ---------------------------------------------------------------------------


def test_criterion_03_monotonicity_zero_violations(battery):
    ran = 0
    violations = []
    for name, res in battery:
        for line in res.failures:
            if any(mid in line for mid in MONO_IDS):
                violations.append(f"{name}: {line}")
        for trace in res.traces.values():
            for rep in trace.reports:
                if rep.monitor_id.startswith(MONO_IDS):
                    ran += 1
                    if not rep.passed and not rep.skipped:
                        violations.append(f"{name}: {rep.monitor_id} "
                                          f"margin {rep.margin}")
    print(f"criterion 3: {ran} monotonicity reports across "
          f"{len(battery)} scenario runs, {len(violations)} violations "
          f"(rel tol 1e-6)")
    assert ran > 100
    assert violations == []


# ---------------------------------------------------------------------------
# 4. Density normalization
# ---------------------------------------------------------------------------


def _line_sample(height: float) -> SurfaceSample:
    patch = GraphPatch.from_function(
        lambda p: np.full(p.shape[:-1], height),
        center=(0.0,), radius=8.0, nodes_per_axis=8001,
    )
    return sample_surface(patch)


def _density_ratio(sample: SurfaceSample, tau: float) -> float:
    """Gaussian density ratio of a sampled curve in the plane: the sum of its
    weights times the backward heat kernel (4 pi tau)^(-1/2) exp(-|x|^2 /
    4 tau) centred at the origin, tau before the kernel time."""
    d2 = np.sum(sample.points**2, axis=1)
    kernel = (4.0 * math.pi * tau) ** -0.5 * np.exp(-d2 / (4.0 * tau))
    return float(np.sum(sample.weights * kernel))


def test_criterion_04_density_normalization():
    samp = _line_sample(0.0)
    # the kernel tail beyond 6 sqrt(tau) is negligible only if the sample
    # reaches that far
    reach = float(np.max(np.linalg.norm(samp.points, axis=1)))
    worst = 0.0
    for tau in (1e-4, 1e-2, 1.0):
        assert reach >= 6.0 * math.sqrt(tau)
        worst = max(worst, abs(_density_ratio(samp, tau) - 1.0))
    lo, hi = _line_sample(-0.005), _line_sample(0.005)
    two = SurfaceSample(
        points=np.vstack([lo.points, hi.points]),
        normals=np.vstack([lo.normals, hi.normals]),
        weights=np.concatenate([lo.weights, hi.weights]),
    )
    ratio2 = _density_ratio(two, 1e-2)
    print(f"criterion 4: flat-line ratio error {worst:.2e} (tol 1e-3), "
          f"two-sheet ratio {ratio2:.4f} (flag above 1 + d0 = 1.1)")
    assert worst <= 1e-3
    assert ratio2 > 1.0 + 0.1
    assert math.isclose(ratio2, 2.0, rel_tol=2e-3)


# ---------------------------------------------------------------------------
# 5. Integrated identity under joint (h, dt) refinement
# ---------------------------------------------------------------------------


def _identity_ladder(kind: str, form: str):
    """Normalized window residual per grid scale h, refining dt with h^2."""
    out_h, out_res = [], []
    if kind == "circle":
        field = phi_rho_cubed_field(2.0, 1.0, (0.0, 0.0))
        for m in (64, 128, 256, 512):
            e = 2.0 * math.sin(math.pi / m)
            dt = 0.15 * e * e
            trace = run_flow(
                make_circle(radius=1.0, m=m),
                FlowConfig(t_end=8 * dt, dt=dt, record_stride=8),
            )
            rep = check_brakke_identity(trace.snapshots[0], trace.final,
                                        field, form=form)
            out_h.append(e)
            out_res.append(rep.value * IDENTITY_TOL_REL_DEFAULT / rep.bound)
    else:
        field = phi_rho_cubed_field(2.0, 1.0, (0.0, 0.25))
        for m in (65, 129, 257, 513):
            h = 8.0 / (m - 1)
            patch = GraphPatch.from_function(
                lambda p: np.full(p.shape[:-1], 0.25),
                center=(0.0,), radius=4.0, nodes_per_axis=m,
            )
            dt = 0.15 * h * h
            trace = run_flow(FlowState(patch),
                             FlowConfig(t_end=8 * dt, dt=dt, record_stride=8))
            rep = check_brakke_identity(trace.snapshots[0], trace.final,
                                        field, form=form)
            out_h.append(h)
            out_res.append(rep.value * IDENTITY_TOL_REL_DEFAULT / rep.bound)
    return out_h, out_res


def _assert_identity_converges(kind: str, form: str):
    hs, res = _identity_ladder(kind, form)
    order = math.inf if max(res) < 1e-12 else fitted_order(hs, res)
    print(f"criterion 5 [{form}] {kind}: residuals "
          f"{['%.2e' % r for r in res]}, order {order:.2f} "
          f"(need >= 1, finest <= 2e-2)")
    assert res[-1] <= 0.02
    assert order >= 1.0


def test_criterion_05_identity_transport_form():
    _assert_identity_converges("plane", "transport")
    _assert_identity_converges("circle", "transport")


def test_criterion_05_identity_divergence_form():
    # The middle term -div_M(D phi) integrates to the transport term
    # H . D phi, so the circle leg converges like the transport form; on the
    # plane the middle term integrates to zero.
    _assert_identity_converges("plane", "divergence")
    _assert_identity_converges("circle", "divergence")


# ---------------------------------------------------------------------------
# 6. Gradient / curvature bound monitors
# ---------------------------------------------------------------------------


def _calibrate_eh_curvature() -> dict:
    """Three-resolution calibration of the curvature-bound constant on the
    steep ramp family (L 2, rho 0.5, t_end 0.02), each run's states kept by
    a list sink; returns per-resolution ratios and c_hat = 2 x max."""
    L, rho, t_end = 2.0, 0.5, 0.02
    ratios = {}
    for res in (128, 192, 256):
        axis = _patch_axis(2.0, res)
        states = []
        run_flow(FlowState(_line_patch(axis, _ramp(axis, L, 2.25))),
                 _graph_config(axis, L, t_end, 25), sink=states.append)
        report = check_curvature_bound_EH(states, (0.0, 0.0), rho=rho, c_hat=1.0)
        assert not report.skipped, f"calibration run skipped: {report.reason}"
        ratios[res] = report.value / report.bound
    return {"c_hat": calibrate_constant(list(ratios.values())), "ratios": ratios}


def test_criterion_06_eh_monitors_and_calibration(battery):
    ran = 0
    failures = []
    for name, res in battery:
        for line in res.failures:
            if "gradient" in line or "curvature" in line:
                failures.append(f"{name}: {line}")
        for trace in res.traces.values():
            for rep in trace.reports:
                if rep.monitor_id == "gradient_bound_eh":
                    ran += 1
                    if not rep.passed and not rep.skipped:
                        failures.append(f"{name}: gradient_bound_eh "
                                        f"margin {rep.margin}")
    cal = _calibrate_eh_curvature()
    ratios = cal["ratios"]
    print(f"criterion 6: {ran} gradient reports, {len(failures)} failures; "
          f"L=2 ratios {ratios}, c_hat {cal['c_hat']:.3f}")
    assert ran > 100
    assert failures == []
    # boundedness under refinement: the finest run stays within the constant
    # calibrated from the two coarser ones
    assert ratios[256] <= 2.0 * max(ratios[128], ratios[192])
    assert all(0.0 < r <= cal["c_hat"] for r in ratios.values())
    # no run directory holds the calibration, so its bits are pinned here, on
    # the numpy and platform that tests/data/run_digests.json was recorded on
    recorded = json.loads(RUN_DIGESTS.read_text())
    if _digest_tool().environment() == {k: recorded[k] for k in ("numpy", "platform")}:
        assert {res: r.hex() for res, r in ratios.items()} == {
            128: "0x1.f5ab0e552be79p-8",
            192: "0x1.f697c170d5594p-8",
            256: "0x1.f6da207635a88p-8",
        }
        assert cal["c_hat"].hex() == "0x1.f6da207635a88p-7"


# ---------------------------------------------------------------------------
# 7. Stay-graphical family
# ---------------------------------------------------------------------------


def test_criterion_07_stay_graphical_family(stay_results):
    results, elapsed = stay_results
    kappas = {L: r.measured["kappa_hat"] for L, r in results.items()}
    print(f"criterion 7: kappa_hat {kappas}, runtime {elapsed:.1f}s "
          f"(budget 600s)")
    for L, res in results.items():
        assert res.passed, (L, res.failures)
        assert kappas[L] > 0.0
        assert res.measured["sup_grad_max"] <= 4.0 * L
    assert kappas[0.5] >= kappas[1.0] >= kappas[2.0]
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 8. Become-graphical fold
# ---------------------------------------------------------------------------


def test_criterion_08_fold_becomes_graphical(fold_result):
    res, elapsed = fold_result
    m = res.measured
    print(f"criterion 8: t_graphical {m['t_graphical']:.3e} "
          f"(need <= 0.05), doubled-gamma {m['t_graphical_doubled']:.3e}, "
          f"c_hat (height, grad, hess) = ({m['c_hat_height']:.3g}, "
          f"{m['c_hat_grad']:.3g}, {m['c_hat_hess']:.3g}), "
          f"runtime {elapsed:.1f}s")
    assert res.passed, res.failures
    assert m["t_graphical"] is not None and m["t_graphical"] <= 0.05
    assert m["t_graphical_doubled"] >= m["t_graphical"]
    for key in ("c_hat_height", "c_hat_grad", "c_hat_hess"):
        assert math.isfinite(m[key]) and m[key] > 0.0


def test_criterion_08_fold_traces_hold_bounded_memory(fold_result, out_root):
    """Every fold flow keeps every report, event and record but only its
    first and its final state: the main flow streams each state to
    run/snapshots as it records it, and the auxiliary flows write none."""
    res, _ = fold_result
    for tag in ("run", "cal_mid", "cal_fine", "doubled"):
        trace = res.traces[tag]
        assert [s.step for s in trace.snapshots] == [0, trace.records[-1][1]]
    for tag in ("cal_mid", "cal_fine", "doubled"):
        trace = res.traces[tag]
        records = [i for i, (*_, reps) in enumerate(trace.records) for _ in reps]
        assert len(records) == len(trace.reports) > 0
        assert set(records) == set(range(1, records[-1] + 1))
        failing = [r for r in trace.reports if not r.passed and not r.skipped]
        assert len(trace.events_of("monitor_failure")) == len(failing)
        assert trace.events_of("horizon") or trace.extinction_time is not None
    run = res.traces["run"]
    written = sorted((out_root / "fold" / "run" / "snapshots").iterdir())
    print(f"criterion 8 (memory): {len(run.records)} main-flow records, "
          f"{len(written)} snapshots written, {len(run.snapshots)} states held")
    assert len(written) == len(run.records) > 2


def test_scenarios_keep_the_release_rule(battery):
    """run_flow drops a recorded state from its trace, and releases its
    cache, once the next state is recorded: when a scenario has returned,
    every trace it keeps holds its first and its last state and no other."""
    held = {}
    for name, res in battery:
        for tag, trace in res.traces.items():
            if len(trace.snapshots) != min(2, len(trace.records)):
                held[f"{name}/{tag}"] = f"{len(trace.snapshots)} of {len(trace.records)} states"
    print(f"release rule: {len(battery)} scenario runs, "
          f"{len(held)} traces holding states beyond their window")
    assert held == {}


# ---------------------------------------------------------------------------
# 9. Geometry oracles
# ---------------------------------------------------------------------------


def _hemisphere_errors(R: float, m: int):
    def cap(pts):
        return np.sqrt(R * R - np.sum(pts * pts, axis=-1))

    patch = GraphPatch.from_function(cap, center=(0.0, 0.0), radius=0.6 * R,
                                     nodes_per_axis=m)
    interior = patch.active.copy()
    interior[0, :] = interior[-1, :] = False
    interior[:, 0] = interior[:, -1] = False
    df = gradient_field(patch)[interior]
    d2f = hessian_field(patch)[interior]
    err_h = np.abs(np.abs(mean_curvature_graph(df, d2f)) - 2.0 / R).max()
    err_a = np.abs(second_fundamental_norm(df, d2f) - math.sqrt(2) / R).max()
    return patch.spacing, float(err_h * R / 2), float(err_a * R / math.sqrt(2))


def test_criterion_09_hemisphere_and_random_inequalities(rng):
    R = 1.3
    ladder = [_hemisphere_errors(R, m) for m in (61, 121, 241)]
    hs = [row[0] for row in ladder]
    assert hs[-1] == pytest.approx(R / 200, rel=1e-12)
    errs_h = [row[1] for row in ladder]
    errs_a = [row[2] for row in ladder]
    order_h = fitted_order(hs, errs_h)
    order_a = fitted_order(hs, errs_a)

    df = rng.uniform(-3.0, 3.0, size=(10_000, 2))
    raw = rng.uniform(-5.0, 5.0, size=(10_000, 2, 2))
    d2f = (raw + np.swapaxes(raw, -1, -2)) / 2.0
    v2 = 1.0 + np.sum(df * df, axis=-1)
    tl = tilt(df)
    a2 = second_fundamental_norm(df, d2f) ** 2
    h2 = np.sum(d2f * d2f, axis=(-2, -1))
    slack = 4 * np.finfo(float).eps
    tilt_bad = np.count_nonzero(
        (tl < 0) | (tl >= 1) | ~np.isclose(tl, (v2 - 1) / v2, rtol=1e-12))
    sandwich_bad = np.count_nonzero(
        (a2 > h2 / v2 * (1 + slack)) | (a2 < h2 / v2**3 * (1 - slack)))

    print(f"criterion 9: |H| err {errs_h[-1]:.2e} order {order_h:.2f}, "
          f"|A| err {errs_a[-1]:.2e} order {order_a:.2f} at h=R/200; "
          f"violations tilt={tilt_bad} sandwich={sandwich_bad} over 10^4")
    assert errs_h[-1] <= 0.01 and errs_a[-1] <= 0.01
    assert order_h >= 1.9 and order_a >= 1.9
    assert tilt_bad == 0 and sandwich_bad == 0


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "schema_version": 1,
        "scenario": "flat_plane",
        "params": {"value": 0.25, "t_end": 0.004},
        "seed": 5,
        "resolution": 64,
    }))
    digests = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert cli_main(["run", "--spec", str(spec), "--out", str(out)]) == 0
        digests.append(hashlib.sha256(
            (out / "run" / "timeseries.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]

    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "schema_version": 1,
        "scenario": "sweep",
        "base": {"schema_version": 1, "scenario": "flat_plane",
                 "params": {"t_end": 0.004}, "resolution": 32},
        "vary": {"value": [0.0, 0.5], "radius": [1.0, 2.0]},
    }))
    a, b = tmp_path / "serial", tmp_path / "parallel"
    assert cli_main(["sweep", "--spec", str(sweep), "--out", str(a)]) == 0
    assert cli_main(["sweep", "--spec", str(sweep), "--out", str(b),
                     "--parallelism", "4"]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    mismatches = 0
    for i in range(4):
        rid = f"run_{i:04d}"
        pa = (a / "runs" / rid / "run" / "timeseries.csv").read_bytes()
        pb = (b / "runs" / rid / "run" / "timeseries.csv").read_bytes()
        mismatches += pa != pb
    print(f"criterion 10: repeat-run digest match, sweep parallel 1 vs 4 "
          f"mismatches {mismatches}/4")
    assert mismatches == 0


# ---------------------------------------------------------------------------
# 11. Byte identity of the fixtures' run directories
# ---------------------------------------------------------------------------


def _digest_tool():
    spec = importlib.util.spec_from_file_location("mcflab_digests", ROOT / "tools" / "digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_fixture_run_digests(battery, out_root):
    """Every file the fixtures above write has the bytes recorded in
    tests/data/run_digests.json (re-record with
    `python3 tools/digests.py --fixtures tests/data/run_digests.json`)."""
    recorded = json.loads(RUN_DIGESTS.read_text())
    tool = _digest_tool()
    here = tool.fixture_document(out_root)
    env = {k: here[k] for k in ("numpy", "platform")}
    assert {k: recorded[k] for k in env} == env, (
        f"digests recorded on numpy {recorded['numpy']} / {recorded['platform']}, "
        f"this is numpy {env['numpy']} / {env['platform']}: re-record them here "
        f"and compare with a run of the parent commit")
    want, got = recorded["files"], here["files"]
    moved = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    print(f"criterion 11: {len(got)} fixture files hashed, {len(moved)} moved, "
          f"{len(missing)} missing, {len(extra)} new")
    assert not (moved or missing or extra), (
        f"moved {tool.moved_by_kind(moved)}: {moved[:20]}, missing {missing[:20]}, "
        f"new {extra[:20]}")

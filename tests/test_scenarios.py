import json
import math
from pathlib import Path

import numpy as np
import pytest

from mcflab import scenarios
from mcflab._util import ValidationError, sha256_file
from mcflab.geometry import loads_surface
from mcflab.scenarios import (
    run_scenario,
    run_sweep,
    validate_scenario_spec,
    with_overrides,
)


def _spec(**over):
    doc = {
        "schema_version": 1,
        "scenario": "flat_plane",
        "params": {"value": 0.25, "radius": 2.0, "t_end": 0.004},
        "seed": 3,
        "resolution": 32,
    }
    doc.update(over)
    return doc


def _stay_spec():
    return {
        "schema_version": 1,
        "scenario": "stay_graphical",
        "params": {"L": 0.5, "family": 2, "t_end": 0.002},
        "resolution": 32,
        "seed": 11,
    }


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


def test_validate_normalizes_defaults():
    spec = validate_scenario_spec({"schema_version": 1, "scenario": "flat_plane"})
    assert spec == {
        "schema_version": 1,
        "scenario": "flat_plane",
        "seed": 0,
        "resolution": None,
        "params": {},
    }


# explicit ids: a row inserted anywhere renames no other case
@pytest.mark.parametrize("doc,loc", [
    pytest.param([], "$", id="doc0-$"),
    pytest.param({"scenario": "flat_plane"}, "$.schema_version",
                 id="doc1-$.schema_version"),
    pytest.param({"schema_version": 2, "scenario": "flat_plane"}, "$.schema_version",
                 id="doc2-$.schema_version"),
    pytest.param(_spec(scenario="warp_drive"), "$.scenario", id="doc3-$.scenario"),
    pytest.param(_spec(seed=-1), "$.seed", id="doc4-$.seed"),
    pytest.param(_spec(seed=True), "$.seed", id="doc5-$.seed"),
    pytest.param(_spec(resolution=7), "$.resolution", id="doc6-$.resolution"),
    pytest.param(_spec(resolution=32.0), "$.resolution", id="doc7-$.resolution"),
    # every run carries the whole monitor battery: a spec picks none
    pytest.param(_spec(monitors="phi"), "$.monitors", id="doc8-$.monitors"),
    pytest.param(_spec(monitors=None), "$.monitors", id="doc9-$.monitors"),
    pytest.param(_spec(params={"bogus": 1.0}), "$.params.bogus", id="doc10-$.params.bogus"),
    pytest.param(_spec(params={"radius": 0.0}), "$.params.radius",
                 id="doc11-$.params.radius"),
    pytest.param(_spec(params={"radius": True}), "$.params.radius",
                 id="doc12-$.params.radius"),
    pytest.param(_spec(extra_field=1), "$.extra_field", id="doc13-$.extra_field"),
    # a JSON integer beyond the float range is no finite number either
    pytest.param(_spec(params={"value": 10**400}), "$.params.value",
                 id="doc14-$.params.value"),
    # JSON's NaN and Infinity parse to floats that every range test passes
    pytest.param(_spec(params={"value": math.nan}), "$.params.value",
                 id="doc15-$.params.value"),
    pytest.param({"schema_version": 1, "scenario": "bounded_curvature",
                  "params": {"t_end": math.inf}}, "$.params.t_end",
                 id="doc16-$.params.t_end"),
    pytest.param({"schema_version": 1, "scenario": "stay_graphical",
                  "params": {"L": math.nan}}, "$.params.L", id="doc17-$.params.L"),
    pytest.param({"schema_version": 1, "scenario": "shrinking_square",
                  "params": {"epsilon": math.nan}}, "$.params.epsilon",
                 id="doc18-$.params.epsilon"),
    pytest.param({"schema_version": 1, "scenario": "sweep", "base": _spec(),
                  "vary": {"radius": [1.0, math.inf]}}, "$.vary.radius[1]",
                 id="doc19-$.vary.radius[1]"),
    # the output directory comes from --out or $MCFLAB_OUT, never the spec
    pytest.param(_spec(out="/tmp/x"), "$.out", id="doc20-$.out"),
    pytest.param({"schema_version": 1, "scenario": "sweep", "base": _spec(),
                  "vary": {"radius": [1.0]}, "out": "/tmp/x"}, "$.out", id="doc21-$.out"),
    pytest.param({"schema_version": 1, "scenario": "sweep", "runs": [_spec(out="/tmp/x")]},
                 "$.runs[0].out", id="doc22-$.runs[0].out"),
    pytest.param(_spec(params={"value": -10**400}), "$.params.value",
                 id="doc23-$.params.value"),
    pytest.param({"schema_version": 1, "scenario": "bounded_curvature",
                  "params": {"K": 10**400}}, "$.params.K", id="doc24-$.params.K"),
    pytest.param({"schema_version": 1, "scenario": "sweep", "base": _spec(),
                  "vary": {"value": [0.0, 10**400]}}, "$.vary.value[1]",
                 id="doc25-$.vary.value[1]"),
    # a JSON integer, as for seed: true and 1.0 compare equal to 1 in Python
    pytest.param({"schema_version": True, "scenario": "flat_plane"}, "$.schema_version",
                 id="doc26-$.schema_version"),
    pytest.param({"schema_version": 1.0, "scenario": "flat_plane"}, "$.schema_version",
                 id="doc27-$.schema_version"),
    pytest.param({"schema_version": True, "scenario": "sweep", "runs": [_spec()]},
                 "$.schema_version", id="doc28-$.schema_version"),
    pytest.param({"schema_version": 1, "scenario": "sweep",
                  "runs": [_spec(schema_version=1.0)]},
                 "$.runs[0].schema_version", id="doc29-$.runs[0].schema_version"),
])
def test_validate_reports_json_path(doc, loc):
    with pytest.raises(ValidationError) as err:
        validate_scenario_spec(doc)
    assert str(err.value).startswith(loc)


def test_sweep_expansion_cartesian():
    doc = {
        "schema_version": 1,
        "scenario": "sweep",
        "base": _spec(),
        "vary": {"value": [0.0, 0.5], "radius": [1.0, 2.0]},
    }
    spec = validate_scenario_spec(doc)
    assert len(spec["runs"]) == 4
    combos = [(r["params"]["radius"], r["params"]["value"])
              for r in spec["runs"]]
    assert combos == [(1.0, 0.0), (1.0, 0.5), (2.0, 0.0), (2.0, 0.5)]
    # merged params keep everything the vary block left alone
    assert all(r["params"]["t_end"] == 0.004 for r in spec["runs"])
    assert all(r["seed"] == 3 for r in spec["runs"])


def test_sweep_runs_list_and_errors():
    doc = {"schema_version": 1, "scenario": "sweep",
           "runs": [_spec(), _spec(seed=4)]}
    spec = validate_scenario_spec(doc)
    assert [r["seed"] for r in spec["runs"]] == [3, 4]

    with pytest.raises(ValidationError) as err:
        validate_scenario_spec({"schema_version": 1, "scenario": "sweep"})
    assert "runs" in str(err.value) and "base" in str(err.value)

    bad = {"schema_version": 1, "scenario": "sweep",
           "runs": [_spec(params={"bogus": 1})]}
    with pytest.raises(ValidationError) as err:
        validate_scenario_spec(bad)
    assert str(err.value).startswith("$.runs[0].params.bogus")

    with pytest.raises(ValidationError):
        validate_scenario_spec({"schema_version": 1, "scenario": "sweep",
                                "base": _spec(), "vary": {"value": 0.5}})


def test_sweep_vary_error_names_the_value():
    doc = {"schema_version": 1, "scenario": "sweep", "base": _spec(),
           "vary": {"radius": [1.0, 2.0], "value": [0.0, "high"]}}
    with pytest.raises(ValidationError) as err:
        validate_scenario_spec(doc)
    assert str(err.value).startswith("$.vary.value[1]: must be a number")


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


def test_run_scenario_flat_plane(tmp_path):
    res = run_scenario(_spec(), out_dir=tmp_path)
    assert res.passed and res.scenario == "flat_plane"
    assert res.measured["reports_failed"] == 0
    assert res.measured["max_gradient"] == 0.0
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["pass"] is True
    assert verdict["measured"]["resolution"] == 32
    assert (tmp_path / "run" / "timeseries.csv").exists()
    assert (tmp_path / "run" / "manifest.json").exists()


def test_run_scenario_overrides():
    doc = _spec()
    assert with_overrides(doc) is doc
    overridden = with_overrides(doc, 9)
    assert validate_scenario_spec(overridden)["seed"] == 9 and doc["seed"] == 3
    res = run_scenario(overridden)
    assert res.passed and res.measured["resolution"] == 32


def test_run_scenario_rejects_sweep():
    from mcflab._util import ConfigError

    doc = {"schema_version": 1, "scenario": "sweep", "runs": [_spec()]}
    with pytest.raises(ConfigError):
        run_scenario(doc)


def test_stay_graphical_small_family(tmp_path):
    res = run_scenario(_stay_spec(), out_dir=tmp_path)
    assert res.scenario == "stay_graphical"
    m = res.measured
    assert m["family_size"] == 2 and m["L"] == 0.5
    assert m["kappa_hat"] > 0
    assert m["sup_grad_max"] <= m["grad_bound"]
    lines = (tmp_path / "family.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "flow"
    assert len(lines) == 3


def test_stay_rewrites_run_for_a_representative_other_than_member_0(tmp_path, monkeypatch):
    """Member 0 streams its snapshots into run/ as it records them; when
    another member is the representative, run/ is written afresh and holds
    exactly that member's snapshots, and the manifest's checksums are the
    files'.  Member 1 starts flat at height 1.5, above C(0,1,1), so it is not
    graphical at t = 0, and a flat graph stays put: every one of its
    snapshots holds 1.5 at every node, and it records fewer states than
    member 0, so a member-0 file left behind would show."""
    draw = scenarios._random_unit_profile
    drawn = []

    def profile(rng, axis):
        drawn.append(draw(rng, axis))
        return drawn[-1] if len(drawn) == 1 else np.full_like(axis, 1.5)

    sinks = []

    class Sink(scenarios.RunDirSink):
        def __init__(self, out_dir):
            super().__init__(out_dir)
            sinks.append(self)

    monkeypatch.setattr(scenarios, "_random_unit_profile", profile)
    monkeypatch.setattr(scenarios, "RunDirSink", Sink)
    res = scenarios.scenario_stay_graphical(L=1.0, resolution=32, family=2, t_end=0.002,
                                            out_dir=tmp_path)
    assert res.measured["kappa_hat"] == 0.0
    run = tmp_path / "run"
    snapshots = sorted((run / "snapshots").iterdir())
    records = len(res.traces["run"].records)
    assert [p.name for p in snapshots] == [f"{k:04d}.json" for k in range(records)]
    assert len(sinks) == 2 and len(sinks[0].files) > records
    for path in snapshots:
        assert np.all(loads_surface(path.read_text()).values == 1.5)
    final = loads_surface(snapshots[-1].read_text())
    assert final.time == res.traces["run"].final.t
    files = json.loads((run / "manifest.json").read_text())["files"]
    on_disk = {p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file()}
    assert set(files) == on_disk - {"manifest.json"}
    assert all(sha256_file(run / rel) == digest for rel, digest in files.items())


def test_run_sweep_outputs_and_parallel_determinism(tmp_path):
    doc = {
        "schema_version": 1,
        "scenario": "sweep",
        "base": _spec(),
        "vary": {"value": [0.0, 0.5]},
    }
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    r1 = run_sweep(doc, out_dir=out1, parallelism=1)
    r2 = run_sweep(doc, out_dir=out2, parallelism=2)
    assert r1["all_passed"] and r2["all_passed"]
    assert r1["rows"] == r2["rows"]
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    for rid in ("run_0000", "run_0001"):
        a = (out1 / "runs" / rid / "run" / "timeseries.csv").read_bytes()
        b = (out2 / "runs" / rid / "run" / "timeseries.csv").read_bytes()
        assert a == b
    header = r1["header"]
    assert header[:4] == ["run_id", "scenario", "pass", "error"]
    assert "param:value" in header and "measured:reports_failed" in header


def test_run_sweep_records_individual_failures(tmp_path):
    # c_hat far too small for the measured ratios: the run completes but its
    # bounds fail, the sweep keeps going and reports all_passed False
    doomed = {
        "schema_version": 1,
        "scenario": "flat_stay_graphical",
        "params": {"l": 0.05, "c_hat": 1e-6, "t_end": 0.002},
        "resolution": 32,
    }
    doc = {"schema_version": 1, "scenario": "sweep", "runs": [_spec(), doomed]}
    out = run_sweep(doc, out_dir=tmp_path)
    assert not out["all_passed"]
    by_id = {r["run_id"]: r for r in out["results"]}
    assert by_id["run_0000"]["pass"] and not by_id["run_0001"]["pass"]
    assert by_id["run_0001"]["error"] is None
    verdict = json.loads(
        (tmp_path / "runs" / "run_0001" / "verdict.json").read_text()
    )
    assert verdict["pass"] is False and verdict["failures"]


def test_run_sweep_rejects_invalid_member_up_front(tmp_path):
    doc = {
        "schema_version": 1,
        "scenario": "sweep",
        "runs": [_spec(), _spec(params={"bogus": 1.0})],
    }
    with pytest.raises(ValidationError):
        run_sweep(doc, out_dir=tmp_path)

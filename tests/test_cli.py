import hashlib
import json
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from mcflab import scenarios
from mcflab._util import ConfigError, GeometryError, ValidationError, sha256_file, write_csv
from mcflab.cli import main
from mcflab.flow import BlowUp, FlowConfig, StepRejected
from mcflab.geometry import ClosedCurve, GraphPatch

from conftest import run_to_dir


def _write_spec(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def flat_spec(tmp_path):
    return _write_spec(tmp_path / "flat.json", {
        "schema_version": 1,
        "scenario": "flat_plane",
        "params": {"value": 0.25, "radius": 2.0, "t_end": 0.004},
        "seed": 7,
        "resolution": 32,
    })


def test_run_writes_layout_and_manifest(flat_spec, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--spec", flat_spec, "--out", str(out)])
    assert rc == 0
    assert "flat_plane: PASS" in capsys.readouterr().out
    for rel in ("verdict.json", "run_manifest.json", "run/timeseries.csv",
                "run/events.ndjson", "run/manifest.json"):
        assert (out / rel).is_file(), rel

    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["tool"] == "mcflab" and manifest["seed"] == 7
    spec_bytes = open(flat_spec, "rb").read()
    assert manifest["spec_sha256"] == hashlib.sha256(spec_bytes).hexdigest()
    # inventory covers every file except the manifest itself, with live hashes
    listed = set(manifest["files"])
    on_disk = {p.relative_to(out).as_posix() for p in out.rglob("*")
               if p.is_file() and p.name != "run_manifest.json"}
    assert listed == on_disk
    for rel, digest in manifest["files"].items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest


def test_run_seed_override_recorded(flat_spec, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--spec", flat_spec, "--out", str(out),
               "--seed-override", "99"])
    assert rc == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["resolved_config"]["seed"] == 99


def test_run_default_out_uses_env(flat_spec, tmp_path, monkeypatch):
    monkeypatch.setenv("MCFLAB_OUT", str(tmp_path / "envroot"))
    rc = main(["run", "--spec", flat_spec])
    assert rc == 0
    assert (tmp_path / "envroot" / "flat" / "verdict.json").is_file()


def test_run_rejects_bad_spec(tmp_path, capsys):
    bad = _write_spec(tmp_path / "bad.json", {
        "schema_version": 1, "scenario": "flat_plane",
        "params": {"bogus": 1.0},
    })
    assert main(["run", "--spec", bad]) == 2
    err = capsys.readouterr().err
    assert "$.params.bogus" in err

    # json.dumps writes NaN, and json.loads reads it back as a float
    nan = _write_spec(tmp_path / "nan.json", {
        "schema_version": 1, "scenario": "flat_plane",
        "params": {"value": float("nan")},
    })
    assert main(["run", "--spec", nan, "--out", str(tmp_path / "o")]) == 2
    assert "error: $.params.value: must be finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

    assert main(["run", "--spec", str(tmp_path / "absent.json")]) == 2
    assert main(["run", "--spec", _write_spec(tmp_path / "empty.json", {})]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json {")
    assert main(["run", "--spec", str(garbage)]) == 2


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_non_utf8_spec_exits_two(tmp_path, capsys, command):
    spec = tmp_path / "utf16.json"
    spec.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main([command, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "error: $: spec is not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_rejects_fractional_count_param(tmp_path, capsys):
    bad = _write_spec(tmp_path / "frac.json", {
        "schema_version": 1, "scenario": "stay_graphical",
        "params": {"family": 2.5},
    })
    assert main(["run", "--spec", bad]) == 2
    assert "$.params.family: must be an integer" in capsys.readouterr().err


FLAT = {"schema_version": 1, "scenario": "flat_plane",
        "params": {"t_end": 0.004}, "resolution": 32}


def test_run_refuses_sweep_spec(tmp_path, capsys):
    doc = {"schema_version": 1, "scenario": "sweep", "runs": [FLAT]}
    spec = _write_spec(tmp_path / "sw.json", doc)
    assert main(["run", "--spec", spec]) == 2
    assert "sweep command" in capsys.readouterr().err


@pytest.mark.parametrize("doc, flag, value, loc", [
    (FLAT, "--seed-override", "-1", "$.seed"),
], ids=["seed"])
def test_run_validates_overrides(tmp_path, capsys, doc, flag, value, loc):
    """An override is checked like the spec field it replaces: exit 2 at its
    path, before anything runs or is written."""
    spec = _write_spec(tmp_path / "s.json", doc)
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out", str(out), flag, value]) == 2
    assert f"error: {loc}" in capsys.readouterr().err
    assert not out.exists()


def test_run_has_no_resolution_flag(tmp_path, capsys):
    """A spec's `resolution` field is the one way to set its resolution: a
    `--resolution` flag, which argparse would take as the abbreviation of
    any option that starts with it, is a usage error (exit 2)."""
    spec = _write_spec(tmp_path / "s.json", FLAT)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--spec", spec, "--out", str(tmp_path / "o"), "--resolution", "16"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --resolution 16" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, doc, loc", [
    ("run", {**FLAT, "monitors": ["phi"]}, "$.monitors"),
    ("sweep", {"schema_version": 1, "scenario": "sweep",
               "runs": [{**FLAT, "monitors": ["phi"]}]}, "$.runs[0].monitors"),
    ("sweep", {"schema_version": 1, "scenario": "sweep",
               "base": {**FLAT, "monitors": None}, "vary": {"value": [0.0]}},
     "$.base.monitors"),
], ids=["run", "sweep-runs", "sweep-base"])
def test_spec_picks_no_monitors(tmp_path, capsys, command, doc, loc):
    """Every run carries the whole monitor battery, so a spec's "monitors"
    field, even null, is an unknown field: exit 2 at its path."""
    spec = _write_spec(tmp_path / "s.json", doc)
    assert main([command, "--spec", spec, "--out", str(tmp_path / "o")]) == 2
    assert f"error: {loc}: unknown field" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("digits", [401, 5000])
def test_run_rejects_integer_beyond_float_range(tmp_path, capsys, digits):
    """An integer literal that no float holds exits 2 before anything runs:
    one past the float range at its path, one past Python's int-parsing
    digit limit at `$`, as invalid JSON."""
    spec = tmp_path / "big.json"
    spec.write_text('{"schema_version": 1, "scenario": "flat_plane", '
                    f'"params": {{"value": 1{"0" * (digits - 1)}}}}}')
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    loc = "$.params.value: must be finite" if digits < 4300 else "$: invalid JSON"
    assert f"error: {loc}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


NESTED = {"schema_version": 1, "scenario": "sweep", "runs": [FLAT]}


@pytest.mark.parametrize("sweep, loc", [
    ({"runs": []}, "$.runs"),
    ({"base": FLAT, "vary": {"value": []}}, "$.vary.value"),
    ({"runs": [FLAT, NESTED]}, "$.runs[1].scenario"),
    ({"base": NESTED, "vary": {"value": [0.0]}}, "$.base.scenario"),
    ({"runs": [FLAT], "base": FLAT, "vary": {"bogus": "x"}}, "$.base"),
    ({"runs": [FLAT], "vary": {"value": [0.0]}}, "$.vary"),
], ids=["runs", "vary", "nested_run", "nested_base", "runs_and_base", "runs_and_vary"])
def test_sweep_rejects_empty_expansion(tmp_path, capsys, sweep, loc):
    spec = _write_spec(tmp_path / "sw.json",
                       {"schema_version": 1, "scenario": "sweep", **sweep})
    assert main(["sweep", "--spec", spec, "--out", str(tmp_path / "o")]) == 2
    assert f"error: {loc}:" in capsys.readouterr().err


def test_sweep_rejects_parallelism_below_one(tmp_path, capsys):
    """--parallelism counts worker processes: below 1 it is a usage error
    (exit 2) before anything is written."""
    spec = _write_spec(tmp_path / "sw.json",
                       {"schema_version": 1, "scenario": "sweep", "runs": [FLAT]})
    out = tmp_path / "o"
    for value in ("0", "-3"):
        assert main(["sweep", "--spec", spec, "--out", str(out), "--parallelism", value]) == 2
        assert f"error: --parallelism must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_failing_run_exits_one(tmp_path):
    spec = _write_spec(tmp_path / "doomed.json", {
        "schema_version": 1,
        "scenario": "flat_stay_graphical",
        "params": {"l": 0.05, "c_hat": 1e-6, "t_end": 0.002},
        "resolution": 32,
    })
    assert main(["run", "--spec", spec, "--out", str(tmp_path / "o")]) == 1


def test_sweep_parallel_byte_identical(tmp_path):
    spec = _write_spec(tmp_path / "sweep.json", {
        "schema_version": 1,
        "scenario": "sweep",
        "base": {
            "schema_version": 1,
            "scenario": "flat_plane",
            "params": {"t_end": 0.004},
            "resolution": 32,
        },
        "vary": {"value": [0.0, 0.5], "radius": [1.0, 2.0]},
    })
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--spec", spec, "--out", str(a)]) == 0
    assert main(["sweep", "--spec", spec, "--out", str(b),
                 "--parallelism", "4"]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    for i in range(4):
        rid = f"run_{i:04d}"
        pa = a / "runs" / rid / "run" / "timeseries.csv"
        pb = b / "runs" / rid / "run" / "timeseries.csv"
        assert pa.read_bytes() == pb.read_bytes()


def test_sweep_inventory_lists_what_is_on_disk(tmp_path):
    """A sweep whose second run raises (an error row): run_manifest.json lists
    exactly sweep.csv and the passing run's files, each with the SHA-256 of
    the file on disk; the run's entries agree with its run/manifest.json."""
    broken = {"schema_version": 1, "scenario": "bounded_curvature", "resolution": 32,
              "params": {"kappa_tilt": 0.45}}  # initial tilt 0.8 > 1 - 2 kappa_tilt
    spec = _write_spec(tmp_path / "sw.json",
                       {"schema_version": 1, "scenario": "sweep", "runs": [FLAT, broken]})
    out = tmp_path / "o"
    assert main(["sweep", "--spec", spec, "--out", str(out)]) == 1
    assert "ConfigError" in (out / "sweep.csv").read_text().splitlines()[2]
    inventory = json.loads((out / "run_manifest.json").read_text())["files"]
    on_disk = {p.relative_to(out).as_posix() for p in out.rglob("*")
               if p.is_file() and p.name != "run_manifest.json"}
    assert set(inventory) == on_disk
    assert "sweep.csv" in on_disk and "runs/run_0000/verdict.json" in on_disk
    assert not any(rel.startswith("runs/run_0001/") for rel in on_disk)
    for rel, digest in inventory.items():
        assert sha256_file(out / rel) == digest
    run = out / "runs" / "run_0000" / "run"
    listed = json.loads((run / "manifest.json").read_text())["files"]
    assert {rel: inventory[f"runs/run_0000/run/{rel}"] for rel in listed} == listed


def test_plotdata_snapshots_and_margins(flat_spec, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--spec", flat_spec, "--out", str(out)]) == 0
    assert main(["plotdata", "--run", str(out), "--kind", "snapshots"]) == 0
    assert main(["plotdata", "--run", str(out), "--kind", "margins"]) == 0
    snaps = (out / "plots" / "snapshots.csv").read_text().splitlines()
    assert snaps[0] == "snapshot,t,i,x0,f"
    margins = (out / "plots" / "margins.csv").read_text().splitlines()
    assert margins[0] == "t,monitor,margin"
    assert len(margins) > 1


def _initial(kind):
    x = np.linspace(-1.0, 1.0, 48)
    if kind == "open":
        return ClosedCurve(np.stack([x, 0.3 * np.cos(0.5 * np.pi * x)], axis=1), closed=False)
    return GraphPatch.from_function(lambda p: 0.2 * np.cos(p[..., 0] + 2.0 * p[..., 1]),
                                    center=(0.0, 0.0), radius=1.0, nodes_per_axis=17)


@pytest.mark.parametrize("kind", ["open", "graph"])
def test_plotdata_snapshots_are_the_trace_floats(tmp_path, kind):
    """plotdata decodes each snapshot to exactly the floats the trace held:
    its snapshots.csv equals one written straight from the trace."""
    run = tmp_path / "run"
    _, states, _ = run_to_dir(_initial(kind), FlowConfig(t_end=1e-4, dt=1e-5, record_stride=3),
                              run)
    assert len(states) > 2
    assert main(["plotdata", "--run", str(run), "--kind", "snapshots",
                 "--out", str(tmp_path / "plots")]) == 0
    rows = []
    for idx, state in enumerate(states):
        surf = state.surface
        if kind == "open":
            header = ["snapshot", "t", "i", "x", "y"]
            points = [(float(x), float(y)) for x, y in surf.vertices]
        else:
            header = ["snapshot", "t", "i", "x0", "x1", "f"]
            points = [(*map(float, p), float(f))
                      for p, f in zip(surf.nodes[surf.active], surf.values[surf.active])]
        rows += [[idx, surf.time, i, *point] for i, point in enumerate(points)]
    write_csv(tmp_path / "want.csv", header, rows)
    assert (tmp_path / "plots" / "snapshots.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def test_plotdata_orders_snapshots_by_number(tmp_path):
    """Snapshot names past 9999 have five digits; plotdata emits them in
    record order, so snapshots/9999.json comes before snapshots/10000.json
    (a string sort puts 10000 first)."""
    from mcflab.geometry import dumps_surface

    run = tmp_path / "run"
    (run / "snapshots").mkdir(parents=True)
    files = {}
    for idx in (9999, 10000):
        rel = f"snapshots/{idx}.json"
        (run / rel).write_text(dumps_surface(_initial("open")) + "\n")
        files[rel] = sha256_file(run / rel)
    (run / "manifest.json").write_text(json.dumps({"files": files}))
    assert main(["plotdata", "--run", str(run), "--kind", "snapshots"]) == 0
    rows = (run / "plots" / "snapshots.csv").read_text().splitlines()[1:]
    firsts = [row.split(",")[0] for row in rows]
    assert firsts == ["9999"] * 48 + ["10000"] * 48


def test_rerun_leaves_no_stale_snapshots(tmp_path):
    """A short run into the directory of a longer one removes the longer
    run's snapshots, so run/manifest.json, run_manifest.json and plotdata
    agree on two; plotdata reads the snapshot list from run/manifest.json,
    so a stray snapshot file is not emitted."""
    out = tmp_path / "out"
    for t_end in (0.05, 0.002):
        spec = _write_spec(tmp_path / "flat.json", {**FLAT, "params": {"t_end": t_end}})
        assert main(["run", "--spec", spec, "--out", str(out)]) == 0
    snaps = out / "run" / "snapshots"
    assert sorted(p.name for p in snaps.iterdir()) == ["0000.json", "0001.json"]
    assert json.loads((out / "run" / "manifest.json").read_text())["snapshot_count"] == 2
    inventory = json.loads((out / "run_manifest.json").read_text())["files"]
    assert sorted(rel for rel in inventory if rel.startswith("run/snapshots/")) == [
        "run/snapshots/0000.json", "run/snapshots/0001.json"]

    (snaps / "0099.json").write_bytes((snaps / "0001.json").read_bytes())
    assert main(["plotdata", "--run", str(out), "--kind", "snapshots"]) == 0
    rows = (out / "plots" / "snapshots.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"0", "1"}


def test_streamed_rerun_with_fewer_records_rehashes_every_entry(tmp_path):
    """run/ is streamed as the flow records: a second run into the same
    --out with fewer records clears the first run's snapshots before its
    own first write, so only its own are on disk, and every entry of
    run_manifest.json and of run/manifest.json re-hashes from the disk."""
    out = tmp_path / "out"
    counts = []
    for t_end in (0.02, 0.005):
        doc = {"schema_version": 1, "scenario": "flat_stay_graphical", "resolution": 32,
               "params": {"t_end": t_end}}
        assert main(["run", "--spec", _write_spec(tmp_path / "fs.json", doc),
                     "--out", str(out)]) == 0
        counts.append(json.loads((out / "run" / "manifest.json").read_text())["snapshot_count"])
    assert counts[0] > counts[1] > 2
    on_disk = sorted(p.name for p in (out / "run" / "snapshots").iterdir())
    assert on_disk == [f"{i:04d}.json" for i in range(counts[1])]
    inventory = json.loads((out / "run_manifest.json").read_text())["files"]
    assert set(inventory) == {p.relative_to(out).as_posix() for p in out.rglob("*")
                              if p.is_file() and p.name != "run_manifest.json"}
    for rel, digest in inventory.items():
        assert sha256_file(out / rel) == digest
    listed = json.loads((out / "run" / "manifest.json").read_text())["files"]
    assert {rel: inventory[f"run/{rel}"] for rel in listed} == listed


def test_monitor_error_mid_run_leaves_an_incomplete_run_dir(tmp_path, monkeypatch, capsys):
    """A monitor that raises at record k ends a streamed run: run/ keeps
    snapshots 0..k-1 and no manifest.json, not even the one an earlier
    complete run left there, and plotdata refuses the directory as
    incomplete."""
    out = tmp_path / "out"
    spec = _write_spec(tmp_path / "flat.json", {**FLAT, "params": {"t_end": 0.05}})
    assert main(["run", "--spec", spec, "--out", str(out)]) == 0
    k = 3
    assert json.loads((out / "run" / "manifest.json").read_text())["snapshot_count"] > k + 1
    battery = scenarios.monitor_battery

    def raising_battery(*args):
        def boom(trace, state):
            if len(trace.records) == k:
                raise RuntimeError(f"monitor failed at record {k}")

        return battery(*args) + [boom]

    monkeypatch.setattr(scenarios, "monitor_battery", raising_battery)
    assert main(["run", "--spec", spec, "--out", str(out)]) == 1
    assert f"monitor failed at record {k}" in capsys.readouterr().err
    run = out / "run"
    assert sorted(p.name for p in (run / "snapshots").iterdir()) == \
        [f"{i:04d}.json" for i in range(k)]
    assert not (run / "manifest.json").exists()
    for kind in ("snapshots", "margins"):
        assert main(["plotdata", "--run", str(out), "--kind", kind]) == 1
        err = capsys.readouterr().err
        assert "run directory incomplete" in err and str(run / "manifest.json") in err


def test_rerun_of_another_scenario_inventories_only_its_files(tmp_path):
    """A flat_plane run into the directory of a stay_graphical run lists in
    run_manifest.json only what it wrote; the stay run's family.csv stays on
    disk, unlisted."""
    out = tmp_path / "out"
    stay = {"schema_version": 1, "scenario": "stay_graphical", "resolution": 32,
            "params": {"L": 0.5, "family": 2, "t_end": 0.002}}
    codes = [main(["run", "--spec", _write_spec(tmp_path / "s.json", doc), "--out", str(out)])
             for doc in (stay, FLAT)]
    assert codes[1] == 0 and (out / "family.csv").is_file()
    inventory = json.loads((out / "run_manifest.json").read_text())["files"]
    assert "family.csv" not in inventory
    on_disk = {p.relative_to(out).as_posix() for p in out.rglob("*")
               if p.is_file() and p.name not in ("run_manifest.json", "family.csv")}
    assert set(inventory) == on_disk


def test_plotdata_flags_incomplete_run(flat_spec, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--spec", flat_spec, "--out", str(out)]) == 0
    (out / "run" / "timeseries.csv").unlink()
    rc = main(["plotdata", "--run", str(out), "--kind", "snapshots"])
    assert rc == 1
    assert "incomplete" in capsys.readouterr().err


@pytest.mark.parametrize("manifest", [
    "{not json", json.dumps({"files": [1]}), json.dumps({"snapshot_count": 2}),
], ids=["invalid-json", "files-not-an-object", "no-files"])
def test_plotdata_refuses_unreadable_manifest(flat_spec, tmp_path, capsys, manifest):
    """A run/manifest.json that holds no inventory leaves nothing to verify
    the run against: every kind exits 1 as incomplete, naming the manifest."""
    out = tmp_path / "out"
    assert main(["run", "--spec", flat_spec, "--out", str(out)]) == 0
    (out / "run" / "manifest.json").write_text(manifest)
    for kind in ("snapshots", "margins", "envelopes"):
        assert main(["plotdata", "--run", str(out), "--kind", kind]) == 1
        err = capsys.readouterr().err
        assert "run directory incomplete" in err
        assert f"{out / 'run' / 'manifest.json'} (unreadable)" in err
    assert not (out / "plots").exists()


def test_plotdata_missing_envelopes(flat_spec, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--spec", flat_spec, "--out", str(out)]) == 0
    rc = main(["plotdata", "--run", str(out), "--kind", "envelopes"])
    assert rc == 1
    assert "missing input" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Worker processes: a scenario's bytes do not depend on where its flows ran
# ---------------------------------------------------------------------------

STAY = {"schema_version": 1, "scenario": "stay_graphical",
        "params": {"family": 3, "t_end": 0.02}, "seed": 4}
FOLD = {"schema_version": 1, "scenario": "become_graphical",
        "params": {"gamma": 0.04, "t_end": 2e-6}}


def _pin_cpus(monkeypatch, n):
    """Make the worker pool see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def _tree(out):
    """{relative path: bytes} of a run directory, without the wall-clock
    run_manifest.json."""
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run_manifest.json"}


@pytest.mark.parametrize("doc", [STAY, FOLD], ids=["stay", "fold"])
def test_run_bytes_do_not_depend_on_cpus(tmp_path, monkeypatch, doc):
    """One usable CPU runs the independent flows inline, two run them in a
    pool of two workers; the run directories are byte-identical and each
    run_manifest.json records the worker count."""
    spec = _write_spec(tmp_path / "spec.json", doc)
    trees, codes = {}, {}
    for cpus in (1, 2):
        _pin_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        codes[cpus] = main(["run", "--spec", spec, "--out", str(out)])
        assert json.loads((out / "run_manifest.json").read_text())["workers"] == cpus
        trees[cpus] = _tree(out)
    assert codes[1] == codes[2]
    assert len(trees[1]) > 10
    assert trees[1] == trees[2]


def test_sweep_bytes_do_not_depend_on_parallelism(tmp_path, monkeypatch):
    """With two usable CPUs, --parallelism 1 runs each stay scenario in this
    process with a pool for its members; --parallelism 2 runs the scenarios
    in sweep workers, which run their members inline.  Same bytes."""
    _pin_cpus(monkeypatch, 2)
    spec = _write_spec(tmp_path / "sweep.json", {
        "schema_version": 1, "scenario": "sweep", "base": STAY,
        "vary": {"L": [0.5, 1.0]},
    })
    trees = {}
    for parallelism in (1, 2):
        out = tmp_path / f"p{parallelism}"
        assert main(["sweep", "--spec", spec, "--out", str(out),
                     "--parallelism", str(parallelism)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["workers"] == parallelism
        trees[parallelism] = _tree(out)
    assert len(trees[1]) > 20
    assert trees[1] == trees[2]


@pytest.mark.parametrize("exc", [
    GeometryError("bad polygon"),
    ConfigError("bad config"),
    ValidationError("$.params.x", "bad value"),
    StepRejected("dt too large"),
    BlowUp("non-finite values"),
], ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(exc):
    loaded = pickle.loads(pickle.dumps(exc))
    assert type(loaded) is type(exc)
    assert str(loaded) == str(exc)
    assert vars(loaded) == vars(exc)


def _in_worker_only(error):
    if multiprocessing.parent_process() is None:
        raise RuntimeError("auxiliary flow ran outside a worker")
    raise error


def _config_error_task(*args):
    _in_worker_only(ConfigError("fold budget violated"))


def _validation_error_task(*args):
    _in_worker_only(ValidationError("$.params.gamma", "fold budget violated"))


@pytest.mark.parametrize("task", [_config_error_task, _validation_error_task],
                         ids=["ConfigError", "ValidationError"])
def test_worker_raised_error_exits_two(tmp_path, monkeypatch, capsys, task):
    """An error raised in a pool worker reaches cli.main with its type, so a
    configuration error still exits 2 and no verdict is written.  The task
    standing in for the fold's auxiliary flows raises it only in a worker;
    anywhere else it exits 1."""
    _pin_cpus(monkeypatch, 2)
    monkeypatch.setattr(scenarios, "_fold_aux", task)
    spec = _write_spec(tmp_path / "fold.json", FOLD)
    assert main(["run", "--spec", spec, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "fold budget violated" in err
    # run/ is written while the auxiliary flows run; the verdict never is
    assert not (tmp_path / "o" / "verdict.json").exists()

"""Tests of the ``repro-campaign`` command line (:mod:`repro.studies.cli`).

End-to-end runs use the same deliberately tiny substrate mesh as the other
study tests; the CLI's behaviour does not depend on mesh resolution.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import AnalysisError, SimulationError
from repro.studies import SweepResult
from repro.studies.cli import load_campaign_config, main

try:
    import tomllib  # noqa: F401
    HAVE_TOMLLIB = True
except ImportError:                        # Python 3.10
    HAVE_TOMLLIB = False


TINY_CONFIG = {
    "name": "cli_smoke",
    "axes": {
        "vtune": [0.0, 0.75],
        "noise_frequency": {"start": 1e6, "stop": 9e6, "num": 3,
                            "spacing": "log"},
    },
    "options": {
        "injected_power_dbm": -5.0,
        "mesh": {"nx": 12, "ny": 12, "n_z_per_layer": 2,
                 "lateral_margin": 60e-6},
    },
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


# -- config parsing -----------------------------------------------------------


def test_load_json_config(config_path):
    config = load_campaign_config(config_path)
    campaign = config.campaign
    assert campaign.name == "cli_smoke"
    assert campaign.space.axes["vtune"] == (0.0, 0.75)
    frequencies = campaign.space.axes["noise_frequency"]
    assert len(frequencies) == 3
    np.testing.assert_allclose(frequencies, np.logspace(6, np.log10(9e6), 3))
    assert campaign.options.injected_power_dbm == -5.0
    assert campaign.options.flow.substrate.nx == 12
    assert config.execution.backend == "serial"


@pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs Python 3.11+")
def test_load_toml_config(tmp_path):
    path = tmp_path / "campaign.toml"
    path.write_text(
        'name = "toml_smoke"\n'
        "[axes]\n"
        "vtune = [0.0]\n"
        "noise_frequency = [1e6, 4e6]\n"
        "[layout]\n"
        "ground_width_scale = 2.0\n"
        "[options.mesh]\n"
        "nx = 12\n"
        "[execution]\n"
        'backend = "process-pool"\n'
        "max_workers = 2\n")
    config = load_campaign_config(path)
    assert config.campaign.base_spec.ground_width_scale == 2.0
    assert config.campaign.options.flow.substrate.nx == 12
    assert config.execution.backend == "process-pool"
    assert config.execution.max_workers == 2


def test_shipped_fig8_config_parses():
    pytest.importorskip("tomllib")
    config = load_campaign_config("examples/campaign_fig8.toml")
    assert config.campaign.name == "fig8_spur_sweep"
    assert len(config.campaign.space.axes["noise_frequency"]) == 12
    assert config.execution.cache_dir == ".repro-cache"


def test_shipped_smoke_config_parses():
    config = load_campaign_config("examples/campaign_smoke.json")
    assert config.campaign.name == "sweep_smoke"
    assert config.campaign.options.flow.substrate.nx == 16


def test_integer_axes_survive_config_parsing_and_run(tmp_path):
    config = dict(TINY_CONFIG,
                  axes={"mesh_nx": [10, 12], "vtune": [0.0],
                        "noise_frequency": [1e6]})
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(config))
    campaign = load_campaign_config(path).campaign
    values = campaign.space.axes["mesh_nx"]
    assert values == (10, 12)
    assert all(isinstance(v, int) for v in values)
    # The integer mesh axis must survive all the way into a real sweep.
    rc = main(["run", str(path), "--result", str(tmp_path / "mesh.npz")])
    assert rc == 0


def test_config_rejects_unknown_keys(tmp_path):
    bad = dict(TINY_CONFIG, layout={"no_such_knob": 1.0})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(AnalysisError, match="no_such_knob"):
        load_campaign_config(path)

    path.write_text(json.dumps({"name": "x"}))
    with pytest.raises(AnalysisError, match="no \\[axes\\]"):
        load_campaign_config(path)

    path.write_text(json.dumps(dict(
        TINY_CONFIG, axes={"vtune": {"start": 0.0, "stop": 1.0}})))
    config = load_campaign_config(path)        # default num, linear spacing
    assert len(config.campaign.space.axes["vtune"]) == 10

    path.write_text(json.dumps(dict(
        TINY_CONFIG,
        axes={"vtune": {"start": -1.0, "stop": 1.0, "spacing": "log"}})))
    with pytest.raises(AnalysisError, match="positive bounds"):
        load_campaign_config(path)


def test_solver_table_selects_backend(tmp_path):
    config = dict(TINY_CONFIG,
                  solver={"backend": "direct", "gmin": 1e-11})
    path = tmp_path / "solver.json"
    path.write_text(json.dumps(config))
    campaign = load_campaign_config(path).campaign
    solver = campaign.options.flow.solver
    assert solver.backend == "direct"
    assert solver.gmin == 1e-11
    # The sidecar-bound description records the solver table verbatim.
    assert campaign.describe()["options"]["solver"] == {"backend": "direct",
                                                        "gmin": 1e-11}


def test_solver_table_rejects_unknown_keys_and_backends(tmp_path):
    path = tmp_path / "bad_solver.json"
    path.write_text(json.dumps(dict(TINY_CONFIG,
                                    solver={"no_such_option": 1})))
    with pytest.raises(AnalysisError, match="no_such_option"):
        load_campaign_config(path)
    path.write_text(json.dumps(dict(TINY_CONFIG,
                                    solver={"backend": "cholesky"})))
    with pytest.raises(Exception, match="cholesky"):
        load_campaign_config(path)
    # Configs written for the retired backends and their knobs fail with a
    # named error, not a TypeError traceback.
    path.write_text(json.dumps(dict(TINY_CONFIG,
                                    solver={"cg_rtol": 1e-11})))
    with pytest.raises(AnalysisError, match="cg_rtol"):
        load_campaign_config(path)
    for retired in ("reuse-lu", "multigrid"):
        path.write_text(json.dumps(dict(TINY_CONFIG,
                                        solver={"backend": retired})))
        with pytest.raises(SimulationError,
                           match=f"unknown solver backend '{retired}'"):
            load_campaign_config(path)
    # A wrong-typed value (a quoted number) is a clean config error, not a
    # TypeError traceback.
    path.write_text(json.dumps(dict(TINY_CONFIG,
                                    solver={"gmin": "1e-12"})))
    with pytest.raises(AnalysisError, match="invalid \\[solver\\]"):
        load_campaign_config(path)


@pytest.mark.parametrize("gmin", [float("nan"), float("inf"), -1e-12])
def test_solver_table_rejects_non_finite_or_negative_gmin(tmp_path, gmin):
    # TOML admits `gmin = nan` / `inf`: the config must fail at load time,
    # not late inside the MNA solves.
    path = tmp_path / "gmin.json"
    path.write_text(json.dumps(dict(TINY_CONFIG, solver={"gmin": gmin})))
    with pytest.raises(AnalysisError, match="invalid \\[solver\\] value.*gmin"):
        load_campaign_config(path)


@pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs Python 3.11+")
def test_toml_solver_gmin_nan_is_rejected(tmp_path):
    path = tmp_path / "gmin.toml"
    path.write_text('name = "nan"\n[axes]\nvtune = [0.0]\n'
                    '[solver]\ngmin = nan\n')
    with pytest.raises(AnalysisError, match="invalid \\[solver\\] value.*gmin"):
        load_campaign_config(path)


@pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs Python 3.11+")
@pytest.mark.parametrize("table, field", [
    ('max_workers = "2"', "max_workers"),
    ('retries = "1"', "retries"),
    ('backend = "process-pool"\ntask_timeout = "5"', "task_timeout"),
    ('backend = "process-pool"\ntask_timeout = nan', "task_timeout"),
    ("checkpoint_seconds = nan", "checkpoint_seconds"),
    ("checkpoint_corners = 1.5", "checkpoint_corners"),
    ('backend = "threads"', "backend"),
    ('on_error = "ignore"', "on_error"),
], ids=["max_workers-quoted", "retries-quoted", "task_timeout-quoted",
        "task_timeout-nan", "checkpoint_seconds-nan",
        "checkpoint_corners-float", "backend-unknown", "on_error-unknown"])
def test_cli_rejects_bad_execution_values(tmp_path, capsys, table, field):
    # A quoted number or a NaN in [execution] is a named config error
    # (exit 2), not a TypeError traceback or a silently broken bound.
    path = tmp_path / "campaign.toml"
    path.write_text('name = "bad"\n[axes]\nvtune = [0.0]\n'
                    "noise_frequency = [1e6]\n[options.mesh]\nnx = 12\n"
                    f"ny = 12\n[execution]\n{table}\n")
    assert main(["run", str(path), "--result",
                 str(tmp_path / "bad.npz")]) == 2
    assert f"[execution] {field} must be" in capsys.readouterr().err


def test_solver_table_changes_campaign_fingerprint(tmp_path):
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(TINY_CONFIG))
    tuned_path = tmp_path / "tuned.json"
    tuned_path.write_text(json.dumps(dict(
        TINY_CONFIG, solver={"gmin": 1e-9})))
    base = load_campaign_config(base_path).campaign
    tuned = load_campaign_config(tuned_path).campaign
    assert base.fingerprint() != tuned.fingerprint()


def test_missing_config_is_a_clean_error(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "absent.toml")])
    assert rc == 2
    assert "does not exist" in capsys.readouterr().err


# -- end-to-end subcommands ---------------------------------------------------


def test_cli_run_twice_warm_starts_and_reproduces(config_path, tmp_path,
                                                  capsys):
    cache_dir = tmp_path / "cache"
    first_npz = tmp_path / "first.npz"
    second_npz = tmp_path / "second.npz"
    summary1 = tmp_path / "s1.json"
    summary2 = tmp_path / "s2.json"

    rc = main(["run", str(config_path), "--result", str(first_npz),
               "--cache-dir", str(cache_dir),
               "--summary-json", str(summary1)])
    assert rc == 0
    rc = main(["run", str(config_path), "--result", str(second_npz),
               "--cache-dir", str(cache_dir),
               "--summary-json", str(summary2)])
    assert rc == 0

    cold = json.loads(summary1.read_text())
    warm = json.loads(summary2.read_text())
    assert cold["extractions"] == 1
    # The acceptance criterion: the second run extracts zero layouts...
    assert warm["extractions"] == 0 and warm["cache_hits"] > 0
    # ... and reproduces the arrays bit-identically.
    with np.load(first_npz) as a, np.load(second_npz) as b:
        assert set(a.files) == set(b.files)
        for name in a.files:
            np.testing.assert_array_equal(a[name], b[name])


def test_cli_resume_completes_partial_result(config_path, tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    result_npz = tmp_path / "result.npz"
    rc = main(["run", str(config_path), "--result", str(result_npz),
               "--cache-dir", str(cache_dir)])
    assert rc == 0
    full = SweepResult.load(result_npz)

    # Keep only the first corner's points, as if the run had been killed.
    partial = full.subset(full.column("vtune") == 0.0)
    partial.save(result_npz)

    rc = main(["resume", str(config_path), "--result", str(result_npz),
               "--cache-dir", str(cache_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "resuming from" in out
    resumed = SweepResult.load(result_npz)
    assert len(resumed) == len(full)
    np.testing.assert_array_equal(resumed.column("spur_power_dbm"),
                                  full.column("spur_power_dbm"))


def test_cli_resume_without_result_errors(config_path, capsys):
    rc = main(["resume", str(config_path)])
    assert rc == 2
    assert "result path" in capsys.readouterr().err


def test_cli_show_and_cache_commands(config_path, tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    result_npz = tmp_path / "result.npz"
    assert main(["run", str(config_path), "--result", str(result_npz),
                 "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()

    assert main(["show", str(result_npz), "--rows", "2"]) == 0
    out = capsys.readouterr().out
    assert "cli_smoke" in out and "worst spur" in out and "vtune" in out

    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "entries        : 1" in out

    assert main(["cache", "prune", "--cache-dir", str(cache_dir),
                 "--all"]) == 0
    out = capsys.readouterr().out
    assert "pruned 1 entry" in out

    rc = main(["cache", "prune", "--cache-dir", str(cache_dir)])
    assert rc == 2                           # needs a criterion or --all


def test_cli_show_rows_builds_and_prints_only_the_first_n(
        config_path, tmp_path, capsys, monkeypatch):
    result_npz = tmp_path / "result.npz"
    assert main(["run", str(config_path), "--result", str(result_npz),
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    expected = SweepResult.load(result_npz).rows()
    assert len(expected) == 6
    capsys.readouterr()

    built = []
    real_rows = SweepResult.rows
    monkeypatch.setattr(SweepResult, "rows", lambda self: (
        built.append(len(self)) or real_rows(self)))
    for n in (2, 6, 50):
        assert main(["show", str(result_npz), "--rows", str(n)]) == 0
        out = capsys.readouterr().out
        printed = out.split(f"first {n} tidy rows:\n", 1)[1].splitlines()
        assert printed == [
            "  " + ", ".join(f"{key}={value:g}" for key, value in row.items()
                             if not key.startswith("entry:"))
            for row in expected[:n]]
    assert built == [2, 6, 6]


@pytest.mark.parametrize("criterion", [
    ["--max-age-days", "-1"],      # cutoff in the future: would drop all
    ["--max-entries", "-1"],       # silently pruned nothing
    ["--max-age-days", "nan"],
    ["--max-age-days", "inf"],
], ids=["negative-age", "negative-entries", "nan-age", "inf-age"])
def test_cli_cache_prune_rejects_out_of_range_criteria(tmp_path, capsys,
                                                       criterion):
    from repro.studies import DiskExtractionCache

    cache_dir = tmp_path / "cache"
    DiskExtractionCache(cache_dir).store("aa" * 32, {"payload": 1})
    rc = main(["cache", "prune", "--cache-dir", str(cache_dir), *criterion])
    assert rc == 2
    assert "cache prune needs" in capsys.readouterr().err
    assert len(DiskExtractionCache(cache_dir)) == 1   # nothing deleted


def test_cli_cache_stats_rejects_missing_directory(tmp_path, capsys):
    missing = tmp_path / "no-such-cache"
    rc = main(["cache", "stats", "--cache-dir", str(missing)])
    assert rc == 2
    assert "does not exist" in capsys.readouterr().err
    assert not missing.exists()              # no directory conjured up
import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from kgzsim import cli, export, resonance, strichartz
from kgzsim.cli import EXIT_BLOWUP, EXIT_CONFIG, EXIT_GUARD, EXIT_OK, DEFAULTS, main, resolve_config
from kgzsim.kgz import SimConfig, gaussian_data, run_simulation
from kgzsim.normalform import duhamel_residual, estimate_sweep
from kgzsim.strichartz import resolution_norm, sharpness_witness, strichartz_scan

SCATTER_ARGS = [
    "--set",
    "grid.R=40.0",
    "--set",
    "grid.M=128",
    "--set",
    "sim.T=8.0",
    "--set",
    "sim.dt=0.005",
    "--set",
    "scatter.checkpoints=2,4,8",
]
SCAN_ARGS = [
    "--set",
    "grid.R=16.0",
    "--set",
    "grid.M=512",
    "--set",
    "scan.window=2.0",
    "--set",
    "scan.k_min=1",
    "--set",
    "scan.k_max=3",
    "--set",
    "scan.samples=64",
]


def run(args):
    return main(args)


def no_run(*args, **kwargs):
    raise AssertionError("the simulation ran")


def test_params_prints_constants(capsys):
    assert run(["params", "--set", "resonance.alpha=0.5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "c_alpha     = 1.3333333333333333" in out
    assert "delta_alpha = 0.33333333333333331" in out
    assert "r0          = 0.57735" in out
    # the alpha line says which branch applies: no line restates it
    assert [line.split()[0] for line in out.splitlines()] == ["alpha", "r0", "c_alpha", "delta_alpha", "k_alpha", "rho"]


def test_simulate_zero_horizon(tmp_path):
    code = run(
        [
            "simulate",
            "--out",
            str(tmp_path),
            "--set",
            "sim.T=0.0",
            "--set",
            "grid.M=64",
            "--set",
            "grid.R=10.0",
        ]
    )
    assert code == EXIT_OK
    diag = (tmp_path / "diagnostics.csv").read_text().strip().splitlines()
    assert len(diag) == 2  # header + single snapshot
    assert (tmp_path / "manifest.txt").is_file()
    assert len(list((tmp_path / "snapshots").glob("U_*.fld"))) == 1


def test_deterministic_outputs(tmp_path):
    args = ["--set", "sim.T=0.05", "--set", "grid.M=64", "--set", "grid.R=10.0", "--set", "sim.dt=0.005"]
    assert run(["simulate", "--out", str(tmp_path / "a")] + args) == EXIT_OK
    assert run(["simulate", "--out", str(tmp_path / "b")] + args) == EXIT_OK
    a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert a == b
    fa = sorted((tmp_path / "a" / "snapshots").iterdir())
    fb = sorted((tmp_path / "b" / "snapshots").iterdir())
    assert [f.read_bytes() for f in fa] == [f.read_bytes() for f in fb]


def test_unknown_key_rejected(tmp_path):
    assert run(["simulate", "--out", str(tmp_path), "--set", "sim.bogus=1"]) == EXIT_CONFIG


def test_malformed_value_rejected(tmp_path):
    assert run(["simulate", "--out", str(tmp_path), "--set", "sim.T=abc"]) == EXIT_CONFIG


def test_invalid_sim_config_rejected(tmp_path):
    assert run(["simulate", "--out", str(tmp_path / "a"), "--set", "sim.dt=0"]) == EXIT_CONFIG
    assert run(["simulate", "--out", str(tmp_path / "b"), "--set", "sim.T=1.0", "--set", "sim.dt=0.3"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "setting, message",
    [
        ("grid.R=inf", "domain radius must be positive and finite"),
        ("sim.alpha=inf", "alpha must be positive and finite"),
        ("sim.dt=inf", "dt must be positive and finite"),
        ("sim.T=inf", "T must be nonnegative and finite"),
        ("sim.T=nan", "T must be nonnegative and finite"),
        ("data.eps0=inf", "data.eps0, data.width: amplitude eps0 must be finite"),
        ("data.width=0", "data.eps0, data.width: width must be positive and finite"),
        # finite settings whose derived scales are not: T / dt overflows, or its 1e300 steps make a
        # snapshot schedule no array can hold, and the grid's xi_M^2 overflows (tiny R) or underflows
        # (huge R), as do its transform scalings
        ("sim.dt=1e-320", "T / dt must be finite"),
        ("sim.dt=1e-300", "snapshots than an array can address"),
        ("grid.R=1e-300", "gives xi_M^2 = inf, not finite and positive"),
        ("grid.R=1e300", "gives xi_M^2 = 0.0, not finite and positive"),
    ],
    ids=[
        "R-inf", "alpha-inf", "dt-inf", "T-inf", "T-nan", "eps0-inf", "width-0",
        "dt-tiny", "dt-unaddressable", "R-tiny", "R-huge",
    ],
)
def test_non_finite_settings_rejected_before_any_work(tmp_path, monkeypatch, capsys, setting, message):
    monkeypatch.setattr(cli, "run_simulation", no_run)
    assert run(["simulate", "--out", str(tmp_path), "--set", setting]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "subcommand, settings",
    [
        ("simulate", ["--set", "grid.M=64", "--set", "sim.T=0"]),
        ("simulate", ["--set", "grid.M=64", "--set", "sim.T=0.01", "--set", "sim.dt=0.01"]),
        ("scatter-diag", SCATTER_ARGS),
    ],
    ids=["simulate-T0", "simulate", "scatter-diag"],
)
def test_alpha_whose_square_overflows_rejected_before_any_work(tmp_path, capsys, subcommand, settings):
    # the run itself is not stubbed: past this check, the energy's alpha**2 overflowed, the
    # blow-up guard fired on the first step, or the horizon R/(2 alpha) shrank to 5e-199
    assert run([subcommand, "--out", str(tmp_path), "--set", "sim.alpha=1e200"] + settings) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: alpha must be positive and finite") and "got 1e+200" in err
    assert list(tmp_path.iterdir()) == []


def _default(function, name: str):
    return inspect.signature(function).parameters[name].default


# each default that the CLI restates, beside the library's own
LIBRARY_DEFAULTS = [
    ("quad.n_angular", _default(duhamel_residual, "n_angular")),
    ("quad.n_angular", _default(estimate_sweep, "n_angular")),
    ("sweep.trials", _default(estimate_sweep, "trials")),
    ("sweep.sizes", ",".join(map(str, _default(estimate_sweep, "sizes")))),
    ("scan.samples", _default(strichartz_scan, "n_samples")),
    ("scan.seed", _default(strichartz_scan, "seed")),
    ("scan.alpha", _default(strichartz_scan, "alpha")),
    ("sharp.R", _default(sharpness_witness, "R")),
    ("sharp.samples", _default(sharpness_witness, "n_samples")),
    ("scatter.eps", _default(resolution_norm, "eps")),
    ("data.width", _default(gaussian_data, "width")),
    ("sim.model", _default(SimConfig, "model")),
    ("sim.dealias", _default(SimConfig, "dealias")),
]


@pytest.mark.parametrize("key, library", LIBRARY_DEFAULTS, ids=[key for key, _ in LIBRARY_DEFAULTS])
def test_cli_defaults_match_the_library(key, library):
    # a default's type is the key's schema, so the type must agree as well as the value
    found = {name: d[key] for name, d in DEFAULTS.items() if key in d}
    assert found and all(v == library and type(v) is type(library) for v in found.values()), (library, found)


def test_computation_modules_do_not_import_export():
    # the CLI lays out every file: the modules that compute return values and write nothing
    package = Path(cli.__file__).parent
    found = []
    for name in ("radial", "kgz", "resonance", "strichartz", "normalform"):
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                # "from . import export", "from .export import x" and "from kgzsim import export" alike
                module = ".".join(filter(None, ["kgzsim" if node.level else None, node.module]))
                imported = [module] + [f"{module}.{a.name}" for a in node.names]
            else:
                continue
            if "kgzsim.export" in imported:
                found.append(f"{name}:{node.lineno}")
    assert found == [], found


@pytest.mark.parametrize(
    "subcommand, entry, settings, message",
    [
        ("scatter-diag", "run_simulation", SCATTER_ARGS + ["--set", "scatter.checkpoints=2,nan,8"], "no snapshot near checkpoint t=nan"),
        ("strichartz-scan", "strichartz_scan", SCAN_ARGS + ["--set", "scan.window=nan"], "scan.window: window (0.0, nan) is not finite"),
        ("sharpness", "sharpness_witness", ["--set", "sharp.R=inf"], "sharp.R: domain radius must be positive and finite"),
        ("resonance", "verify_lemma_bounds", ["--set", "resonance.alpha=inf"], "resonance.alpha: alpha must be positive and finite"),
        ("params", None, ["--set", "resonance.alpha=inf"], "resonance.alpha: alpha must be positive and finite"),
    ],
    ids=["checkpoint-nan", "scan-window-nan", "sharp-R-inf", "resonance-alpha-inf", "params-alpha-inf"],
)
def test_non_finite_analysis_settings_rejected_before_any_work(tmp_path, monkeypatch, capsys, subcommand, entry, settings, message):
    if entry is not None:
        monkeypatch.setattr(cli, entry, no_run)
    assert run([subcommand, "--out", str(tmp_path)] + settings) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file(tmp_path):
    assert run(["simulate", "--out", str(tmp_path), "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nsim.T = 0.0\ngrid.M = 64\ngrid.R = 10.0\n")
    resolved = resolve_config("simulate", str(cfg), ["data.eps0=0.02"])
    assert resolved["sim.T"] == 0.0
    assert resolved["grid.M"] == 64
    assert resolved["data.eps0"] == 0.02
    assert resolved["sim.model"] == "full"


def test_blowup_exit_code(tmp_path):
    code = run(
        [
            "simulate",
            "--out",
            str(tmp_path),
            "--set",
            "grid.M=64",
            "--set",
            "grid.R=10.0",
            "--set",
            "sim.dt=0.01",
            "--set",
            "sim.T=5.0",
            "--set",
            "data.eps0=100.0",
        ]
    )
    assert code == EXIT_BLOWUP


def test_guard_exit_code(tmp_path):
    code = run(
        [
            "strichartz-scan",
            "--out",
            str(tmp_path),
            "--set",
            "grid.R=8.0",
            "--set",
            "grid.M=128",
            "--set",
            "scan.window=6.0",
        ]
    )
    assert code == EXIT_GUARD


def test_missing_out_rejected():
    assert run(["simulate", "--set", "sim.T=0.0"]) == EXIT_CONFIG


def test_manifest_echoes_every_key(tmp_path):
    settings = ["sim.T=0.0", "grid.M=64", "grid.R=10.0", "sim.dealias=false"]
    assert run(["simulate", "--out", str(tmp_path)] + [a for s in settings for a in ("--set", s)]) == EXIT_OK
    manifest = (tmp_path / "manifest.txt").read_text()
    for key in DEFAULTS["simulate"]:
        assert key in manifest
    assert "sim.dealias=false" in manifest.splitlines()


@pytest.mark.parametrize(
    "subcommand, config, overrides, message",
    [
        ("normalform-check", None, ["sweep.enabled=maybe"], "cannot parse value for key 'sweep.enabled': 'maybe'"),
        ("simulate", "grid.M 64\n", [], "malformed line 1 in"),
        ("simulate", None, ["grid.M"], "malformed --set 'grid.M', expected key=value"),
    ],
    ids=["bool-value", "config-line", "set-item"],
)
def test_unreadable_settings_create_no_out_directory(tmp_path, capsys, subcommand, config, overrides, message):
    args = [subcommand, "--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        args += ["--config", str(tmp_path / "run.cfg")]
    assert run(args + [a for s in overrides for a in ("--set", s)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_resonance_outputs(tmp_path):
    code = run(["resonance", "--out", str(tmp_path), "--set", "resonance.alpha=2.0", "--set", "lemma.n_xi=60"])
    assert code == EXIT_OK
    assert (tmp_path / "lemma_bounds.csv").is_file()
    summary = (tmp_path / "summary.txt").read_text()
    assert "passed=true" in summary
    assert [line.split("=", 1)[0] for line in summary.splitlines()] == [
        "alpha", "c_alpha", "delta_alpha", "k_alpha", "rho", "sign_change", "resonant_index", "passed",
        "min|w1|/|xi|", "min|w3|/<xi>", "min|w2|/<xi>", "min|w4|/<xi>", "max|w3|/scale", "profile_bound_margin",
    ]


def test_failed_resonance_verdict_leaves_its_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(resonance.LemmaReport, "passed", property(lambda self: False))
    code = run(["resonance", "--out", str(tmp_path), "--set", "lemma.n_xi=60"])
    assert code == EXIT_GUARD
    assert "resonance lower-bound verification failed" in capsys.readouterr().err
    assert {p.name for p in tmp_path.iterdir()} == {"lemma_bounds.csv", "summary.txt", "manifest.txt"}
    assert "passed=false" in (tmp_path / "summary.txt").read_text().splitlines()
    assert "lemma.n_xi=60" in (tmp_path / "manifest.txt").read_text().splitlines()


def test_normalform_check_outputs(tmp_path):
    code = run(
        [
            "normalform-check",
            "--out",
            str(tmp_path),
            "--set",
            "grid.M=128",
            "--set",
            "sim.T=0.2",
            "--set",
            "sim.snapshot_stride=5",
            "--set",
            "quad.n_angular=16",
        ]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "residuals.csv").read_text().strip().splitlines()
    assert lines[0] == "t,component,residual,n_angular"
    assert len(lines) == 3
    for line in lines[1:]:
        assert float(line.split(",")[2]) < 1e-3


def test_normalform_check_writes_the_ratio_of_a_zero_constant(tmp_path):
    # at alpha = 0.5 and M=8 the high-low symbols act on nothing, so bd_U reads 0 there and not at M=16
    settings = ["sweep.enabled=true", "sweep.sizes=8,16", "grid.M=64", "sim.T=0.5"]
    code = run(["normalform-check", "--out", str(tmp_path)] + [a for s in settings for a in ("--set", s)])
    assert code == EXIT_OK
    assert (tmp_path / "manifest.txt").is_file()
    ratios = dict(line.split(",") for line in (tmp_path / "estimate_stability.csv").read_text().splitlines()[1:])
    assert ratios["bd_U"] == "inf"
    assert 1.0 <= float(ratios["bi_HH"]) < 2.0


def test_scatter_diag_outputs(tmp_path):
    code = run(["scatter-diag", "--out", str(tmp_path)] + SCATTER_ARGS + ["--set", "scatter.eps=0.1"])
    assert code == EXIT_OK
    assert (tmp_path / "cauchy.csv").is_file()
    assert (tmp_path / "diagnostics.csv").is_file()
    lines = (tmp_path / "resolution_norms.csv").read_text().splitlines()
    assert lines[0] == "window,x_linf_l2,x_l2_besov,y_linf_h1,y_l2_besov,n_linf_l2,n_l2_besov,total"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [4.0, 8.0]
    # the same run through the library; 17-digit CSV values round-trip exactly
    sim = SimConfig(0.5, 40.0, 128, dt=0.005, T=8.0, snapshot_stride=10)
    traj = run_simulation(sim, gaussian_data(sim.grid, 0.01, 1.0))
    for row in rows:
        assert row[-1] == resolution_norm(traj, 0.1, (0.0, row[0])).total


@pytest.mark.parametrize(
    "setting, message",
    [
        ("scatter.eps=0.5", "eps must lie in (0, 0.3)"),
        ("scatter.eps=0.2", "exponent chain"),
        ("scatter.checkpoints=2,4.003,8", "no snapshot near checkpoint t=4.003"),
        ("scatter.checkpoints=2,x", "could not convert"),
        # one checkpoint gives no Cauchy row and so no resolution-norm window
        ("scatter.checkpoints=8", "scatter.checkpoints: a Cauchy row needs at least 2 checkpoints, got 1"),
        # a repeated or backward checkpoint, or two within dt/2 of one snapshot, give a row that compares nothing
        ("scatter.checkpoints=2,2,8", "checkpoints must fall on increasing snapshots, got t=2.0"),
        ("scatter.checkpoints=4,2", "checkpoints must fall on increasing snapshots, got t=2.0"),
        ("scatter.checkpoints=3,2,8", "checkpoints must fall on increasing snapshots, got t=2.0"),
        ("scatter.checkpoints=2,2.002,8", "checkpoints must fall on increasing snapshots, got t=2.002"),
    ],
)
def test_scatter_diag_rejects_analysis_settings_before_the_run(tmp_path, monkeypatch, capsys, setting, message):
    monkeypatch.setattr(cli, "run_simulation", no_run)
    code = run(["scatter-diag", "--out", str(tmp_path)] + SCATTER_ARGS + ["--set", setting])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_scatter_diag_checks_the_horizon_before_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_simulation", no_run)
    # alpha = 0.5 and R = 40 put the reflection-safe horizon at 20; the last checkpoint is 24
    args = ["--set", "grid.R=40", "--set", "grid.M=64", "--set", "sim.T=24", "--set", "sim.dt=0.01"]
    code = run(["scatter-diag", "--out", str(tmp_path)] + args + ["--set", "scatter.checkpoints=6,12,24"])
    assert code == EXIT_GUARD
    assert "reflection-safe horizon" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("last", ["8.002", "7.998"])
def test_scatter_diag_windows_end_on_the_checkpoint_snapshots(tmp_path, last):
    # snapshots every 0.05 and dt/2 = 0.0025: both checkpoints read the snapshot at t=8, and so must their windows
    args = ["--set", "grid.R=40", "--set", "grid.M=64", "--set", "sim.T=8", "--set", "sim.dt=0.005"]
    for name, cps in (("on", "2,4,8"), ("near", f"2,4,{last}")):
        assert run(["scatter-diag", "--out", str(tmp_path / name)] + args + ["--set", f"scatter.checkpoints={cps}"]) == EXIT_OK
    for name in ("resolution_norms.csv", "cauchy.csv"):
        assert (tmp_path / "near" / name).read_text() == (tmp_path / "on" / name).read_text()
    assert [row[0] for row in _csv_rows(tmp_path / "near" / "resolution_norms.csv")] == ["4", "8"]
    assert [row[:2] for row in _csv_rows(tmp_path / "near" / "cauchy.csv")] == [["2", "4"], ["4", "8"]]


def test_scatter_diag_checks_the_horizon_at_the_snapshot_times(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_simulation", no_run)
    # alpha = 0.5 and R = 3.9992 put the horizon at 1.9996: the checkpoint 1.9996 lies on it, but
    # reads the snapshot at 2, which lies past it
    args = ["--set", "grid.R=3.9992", "--set", "grid.M=64", "--set", "sim.T=2"]
    code = run(["scatter-diag", "--out", str(tmp_path)] + args + ["--set", "scatter.checkpoints=1,1.9996"])
    assert code == EXIT_GUARD
    assert "time 2.0 is beyond the reflection-safe horizon" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "sizes, message",
    [
        ("64,1x", "invalid literal for int()"),
        ("64,2", "need at least 4 modes"),
        # one size compares no refinement: every stability ratio would read 1
        ("128", "a sweep needs at least two distinct sizes, got (128,)"),
        ("128,128", "a sweep needs at least two distinct sizes, got (128, 128)"),
        ("64,128,64", "a sweep's sizes must not repeat, got (64, 128, 64)"),
    ],
)
def test_normalform_check_rejects_sweep_sizes_before_the_run(tmp_path, monkeypatch, capsys, sizes, message):
    monkeypatch.setattr(cli, "run_simulation", no_run)
    code = run(["normalform-check", "--out", str(tmp_path), "--set", "sweep.enabled=true", "--set", f"sweep.sizes={sizes}"])
    assert code == EXIT_CONFIG
    assert f"sweep.sizes: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "setting, message",
    [
        ("sweep.trials=-1", "sweep.trials: trials must be at least 1, got -1"),
        ("sweep.trials=0", "sweep.trials: trials must be at least 1, got 0"),
        ("quad.n_angular=0", "quad.n_angular: n_angular must be at least 1, got 0"),
    ],
)
def test_normalform_check_rejects_counts_before_the_run(tmp_path, monkeypatch, capsys, setting, message):
    monkeypatch.setattr(cli, "run_simulation", no_run)
    code = run(["normalform-check", "--out", str(tmp_path), "--set", "sweep.enabled=true", "--set", setting])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_scatter_diag_checks_the_snapshot_windows_before_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_simulation", no_run)
    # snapshots every 0.01: the window [0, 0.4] holds 41 of them, fewer than the 64 a norm needs
    args = ["--set", "grid.M=64", "--set", "sim.T=4", "--set", "scatter.checkpoints=0.2,0.4,4"]
    code = run(["scatter-diag", "--out", str(tmp_path)] + args)
    assert code == EXIT_GUARD
    assert "only 41 snapshots in window" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "subcommand, entry, settings, message",
    [
        ("strichartz-scan", "strichartz_scan", ["scan.k_min=5", "scan.k_max=4"], "scan.k_min=5 exceeds scan.k_max=4"),
        # the default grid (R=16, M=1024) resolves the blocks -3..8
        ("strichartz-scan", "strichartz_scan", ["scan.k_min=12", "scan.k_max=13"], "resolved blocks -3..8"),
        # one block fits a slope to one point
        ("strichartz-scan", "strichartz_scan", ["scan.k_min=3", "scan.k_max=3"], "scan.k_min, scan.k_max: a slope needs"),
        ("strichartz-scan", "strichartz_scan", ["scan.q=1"], "scan.q, scan.r, scan.flavor: exponents must lie"),
        ("strichartz-scan", "strichartz_scan", ["scan.r=3"], "is not wave-admissible"),
        ("sharpness", "sharpness_witness", ["sharp.k_min=0"], "sharp.k_min: witness needs k >= 1"),
        ("sharpness", "sharpness_witness", ["sharp.q=1"], "sharp.q, sharp.r: exponents must lie"),
        ("sharpness", "sharpness_witness", ["sharp.k_min=3", "sharp.k_max=2"], "sharp.k_min=3 exceeds sharp.k_max=2"),
        ("resonance", "verify_lemma_bounds", ["resonance.alpha=1.0"], "resonance.alpha: alpha must be positive"),
        ("params", None, ["resonance.alpha=-1"], "resonance.alpha: alpha must be positive"),
        # alpha^2 overflows
        ("params", None, ["resonance.alpha=1e200"], "resonance.alpha: alpha must be positive and finite"),
        ("resonance", "verify_lemma_bounds", ["resonance.alpha=1e200"], "got 1e+200"),
        ("resonance", "verify_lemma_bounds", ["lemma.n_xi=0"], "grid counts must be >= 1"),
        # one sample time makes a trapezoid over the window zero
        ("strichartz-scan", "strichartz_scan", ["scan.samples=1"], "scan.samples: need at least 2 sample times"),
        ("sharpness", "sharpness_witness", ["sharp.samples=1"], "sharp.samples: need at least 2 sample times"),
        # the scan's window is [0, scan.window]
        ("strichartz-scan", "strichartz_scan", ["scan.window=0"], "scan.window: window end 0.0 must come after its start 0.0"),
        ("strichartz-scan", "strichartz_scan", ["scan.window=-1"], "scan.window: window end -1.0 must come after its start 0.0"),
        # dt = 1e-3 and snapshot_stride = 10 leave 2 snapshots in T = 0.01
        ("normalform-check", "run_simulation", ["sim.T=0.01", "grid.M=64"], "need at least three snapshots"),
        ("normalform-check", "run_simulation", ["sim.alpha=2.0"], "the transformed equations are assembled for alpha < 1"),
    ],
    ids=[
        "scan-empty",
        "scan-unresolved",
        "scan-one-block",
        "scan-q",
        "scan-r",
        "sharp-k0",
        "sharp-q",
        "sharp-empty",
        "resonance",
        "params",
        "params-huge",
        "resonance-huge",
        "lemma-count",
        "scan-samples",
        "sharp-samples",
        "scan-window-empty",
        "scan-window-reversed",
        "residual-snapshots",
        "residual-alpha",
    ],
)
def test_bad_settings_rejected_before_any_work(tmp_path, monkeypatch, capsys, subcommand, entry, settings, message):
    if entry is not None:
        monkeypatch.setattr(cli, entry, no_run)
    args = [subcommand, "--out", str(tmp_path)]
    for setting in settings:
        args += ["--set", setting]
    assert run(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand, entry", [("params", None), ("resonance", "verify_lemma_bounds")], ids=["params", "resonance"])
def test_broken_profile_bound_rejected_before_any_work(tmp_path, monkeypatch, capsys, subcommand, entry):
    # compute_params' own re-verification of the profile bound fails when rho is set too high
    monkeypatch.setattr(resonance, "_SAFETY", 1.2)
    if entry is not None:
        monkeypatch.setattr(cli, entry, no_run)
    assert run([subcommand, "--out", str(tmp_path), "--set", "resonance.alpha=0.5"]) == EXIT_CONFIG
    assert "resonance.alpha: off-annulus profile bound failed (margin -1.324e-02)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_large_alpha_params_accepted(tmp_path):
    assert run(["params", "--out", str(tmp_path), "--set", "resonance.alpha=1e8"]) == EXIT_OK


def test_params_where_the_annulus_fills_its_radius(capsys):
    # delta/c = 1 - O(1/alpha) rounds to 1 at alpha = 5.9e15, and happens to stay below it at 1e16
    assert run(["params", "--set", "resonance.alpha=5.9e15"]) == EXIT_CONFIG
    message = "resonance.alpha: alpha=5900000000000000.0 is too large: the annulus half-width delta rounds up to c_alpha"
    assert message in capsys.readouterr().err
    assert run(["params", "--set", "resonance.alpha=1e16"]) == EXIT_OK


def test_sharpness_checks_the_horizon_before_any_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "sharpness_witness", no_run)
    # sharp.R = 64 puts the horizon at 32, and the window of k = 7 ends at 2^6 = 64
    code = run(["sharpness", "--out", str(tmp_path), "--set", "sharp.k_max=7"])
    assert code == EXIT_GUARD
    assert "reflection-safe horizon" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_scan_checks_the_horizon_before_any_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(strichartz, "measure_spacetime_norm", no_run)
    # the default wave flow (speed 1) on R=16: a window ending at 10 passes R/2 = 8
    code = run(["strichartz-scan", "--out", str(tmp_path), "--set", "scan.window=10"])
    assert code == EXIT_GUARD
    assert "reflection-safe horizon" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sharpness_outputs(tmp_path):
    code = run(
        [
            "sharpness",
            "--out",
            str(tmp_path),
            "--set",
            "sharp.k_min=2",
            "--set",
            "sharp.k_max=3",
            "--set",
            "sharp.samples=48",
        ]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "sharpness.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert all(float(line.split(",")[-1]) > 0 for line in lines[1:])


def test_scan_outputs(tmp_path):
    code = run(["strichartz-scan", "--out", str(tmp_path)] + SCAN_ARGS)
    assert code == EXIT_OK
    assert (tmp_path / "scan.csv").is_file()
    assert (tmp_path / "manifest.txt").is_file()


@pytest.mark.parametrize("flavor, expected", [("schrodinger", EXIT_OK), ("wave", EXIT_GUARD)])
def test_scan_guard_follows_flow_speed(tmp_path, flavor, expected):
    # window 4 on R=16: the Klein-Gordon flow (speed 1) stays inside R/2, the
    # wave flow at speed alpha=3 does not
    code = run(
        [
            "strichartz-scan",
            "--out",
            str(tmp_path),
            "--set",
            "grid.R=16",
            "--set",
            "grid.M=256",
            "--set",
            f"scan.flavor={flavor}",
            "--set",
            "scan.r=4.5",
            "--set",
            "scan.alpha=3",
            "--set",
            "scan.window=4",
            "--set",
            "scan.k_max=3",
            "--set",
            "scan.samples=64",
        ]
    )
    assert code == expected
    assert (tmp_path / "scan.csv").is_file() == (expected == EXIT_OK)


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().strip().splitlines()[1:] if not line.startswith("#")]


def test_sharpness_at_a_large_time_exponent(tmp_path):
    # at q = 400 the sample norms near 90 (k = 3) overflowed when raised to q, and the CSV read inf
    args = ["--set", "sharp.q=400", "--set", "sharp.k_min=2", "--set", "sharp.k_max=3"]
    assert run(["sharpness", "--out", str(tmp_path)] + args) == EXIT_OK
    rows = _csv_rows(tmp_path / "sharpness.csv")
    assert [row[0] for row in rows] == ["2", "3"]
    assert all(math.isfinite(float(x)) for row in rows for x in row)
    assert float(rows[0][1]) == pytest.approx(1.699001424739931, rel=1e-12)


def test_scan_at_a_large_time_exponent(tmp_path):
    # at q = 2000 the sample norms below 1 underflowed to 0, and the log2 column raised
    args = ["--set", "grid.M=256", "--set", "scan.samples=64", "--set", "scan.q=2000"]
    assert run(["strichartz-scan", "--out", str(tmp_path)] + args) == EXIT_OK
    norms = [float(row[1]) for row in _csv_rows(tmp_path / "scan.csv")]
    assert len(norms) == 5 and all(math.isfinite(n) and n > 0 for n in norms)


def test_sharpness_with_an_overflowing_space_norm(tmp_path, capsys):
    # |v|^r overflows at r = 1e300: a guard violation, not a CSV of inf
    with np.errstate(over="ignore"):
        code = run(["sharpness", "--out", str(tmp_path), "--set", "sharp.r=1e300", "--set", "sharp.k_max=2"])
    assert code == EXIT_GUARD
    assert "r=1e+300" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


NORMALFORM_ARGS = ["grid.M=128", "sim.T=0.2", "sim.snapshot_stride=5", "quad.n_angular=16"]
SWEEP_ARGS = ["sweep.enabled=true", "sweep.sizes=64,128", "sweep.trials=2"]


@pytest.mark.parametrize(
    "subcommand, settings, files",
    [
        ("simulate", ["sim.T=0.05", "grid.M=64", "grid.R=10.0", "sim.dt=0.005"], ["diagnostics.csv"]),
        ("resonance", ["lemma.n_xi=60"], ["lemma_bounds.csv", "summary.txt"]),
        ("params", [], ["params.txt"]),
        ("normalform-check", NORMALFORM_ARGS, ["residuals.csv"]),
        ("normalform-check", NORMALFORM_ARGS + SWEEP_ARGS, ["residuals.csv", "estimate_sweep.csv", "estimate_stability.csv"]),
        ("strichartz-scan", SCAN_ARGS[1::2], ["scan.csv"]),
        ("sharpness", ["sharp.k_min=2", "sharp.k_max=3", "sharp.samples=48"], ["sharpness.csv"]),
        ("scatter-diag", SCATTER_ARGS[1::2], ["cauchy.csv", "diagnostics.csv", "resolution_norms.csv"]),
    ],
    ids=["simulate", "resonance", "params", "normalform-check", "normalform-check-sweep", "strichartz-scan", "sharpness", "scatter-diag"],
)
def test_each_run_writes_its_file_set(tmp_path, monkeypatch, subcommand, settings, files):
    read = set()

    class Recorded(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    monkeypatch.setattr(cli, "resolve_config", lambda *args: Recorded(resolve_config(*args)))
    # no file repeats what another file of the same run holds
    assert run([subcommand, "--out", str(tmp_path)] + [a for s in settings for a in ("--set", s)]) == EXIT_OK
    # and no config key goes unread
    assert read == set(DEFAULTS[subcommand])
    written = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()}
    expected = {"manifest.txt", *files}
    if subcommand == "simulate":  # snapshots at t = 0 and 0.05
        expected |= {f"snapshots/{c}_{i:06d}.fld" for c in "UN" for i in range(2)}
    assert written == expected


def test_text_outputs_written_atomically(tmp_path, monkeypatch):
    written = set()
    atomic_write_text = export.atomic_write_text

    def spy(path, text):
        written.add(str(path))
        atomic_write_text(path, text)

    monkeypatch.setattr(export, "atomic_write_text", spy)
    monkeypatch.setattr(cli, "atomic_write_text", spy)
    runs = {
        "resonance": ["--set", "lemma.n_xi=60"],
        "strichartz-scan": SCAN_ARGS,
        "normalform-check": [
            "--set",
            "grid.M=128",
            "--set",
            "sim.T=0.2",
            "--set",
            "sim.snapshot_stride=5",
            "--set",
            "quad.n_angular=16",
            "--set",
            "sweep.enabled=true",
            "--set",
            "sweep.sizes=64,128",
            "--set",
            "sweep.trials=2",
        ],
        "scatter-diag": SCATTER_ARGS,
    }
    for name, args in runs.items():
        assert run([name, "--out", str(tmp_path / name)] + args) == EXIT_OK
    outputs = {str(p) for p in tmp_path.rglob("*") if p.suffix in (".csv", ".txt")}
    assert sorted(outputs - written) == []
    assert len(outputs) == 13

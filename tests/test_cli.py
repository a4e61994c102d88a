import pytest

from kgzsim import cli, export
from kgzsim.cli import EXIT_BLOWUP, EXIT_CONFIG, EXIT_GUARD, EXIT_OK, DEFAULTS, main, resolve_config
from kgzsim.kgz import SimConfig, gaussian_data, run_simulation
from kgzsim.strichartz import resolution_norm

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
    assert "rho" in out and "k_alpha" in out


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
    ],
    ids=["R-inf", "alpha-inf", "dt-inf", "T-inf", "T-nan", "eps0-inf", "width-0"],
)
def test_non_finite_settings_rejected_before_any_work(tmp_path, monkeypatch, capsys, setting, message):
    monkeypatch.setattr(cli, "run_simulation", no_run)
    assert run(["simulate", "--out", str(tmp_path), "--set", setting]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "subcommand, entry, settings, message",
    [
        ("scatter-diag", "run_simulation", SCATTER_ARGS + ["--set", "scatter.checkpoints=2,nan,8"], "no snapshot near checkpoint t=nan"),
        ("strichartz-scan", "strichartz_scan", SCAN_ARGS + ["--set", "scan.window=nan"], "scan.window: time t=nan is not finite"),
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
    assert (
        run(["simulate", "--out", str(tmp_path), "--set", "sim.T=0.0", "--set", "grid.M=64", "--set", "grid.R=10.0"])
        == EXIT_OK
    )
    manifest = (tmp_path / "manifest.txt").read_text()
    for key in DEFAULTS["simulate"]:
        assert key in manifest


def test_resonance_outputs(tmp_path):
    code = run(["resonance", "--out", str(tmp_path), "--set", "resonance.alpha=2.0", "--set", "lemma.n_xi=60"])
    assert code == EXIT_OK
    assert (tmp_path / "lemma_bounds.csv").is_file()
    summary = (tmp_path / "summary.txt").read_text()
    assert "passed=true" in summary


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


def test_scatter_diag_outputs(tmp_path):
    code = run(["scatter-diag", "--out", str(tmp_path)] + SCATTER_ARGS + ["--set", "scatter.eps=0.1"])
    assert code == EXIT_OK
    assert (tmp_path / "cauchy.csv").is_file()
    assert (tmp_path / "cauchy_plot.csv").is_file()
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
        ("scatter.checkpoints=8", "scatter.checkpoints: need at least 2 sample times, got 1"),
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
        ("strichartz-scan", "strichartz_scan", ["scan.q=1"], "scan.q, scan.r, scan.flavor: exponents must lie"),
        ("strichartz-scan", "strichartz_scan", ["scan.r=3"], "is not wave-admissible"),
        ("sharpness", "sharpness_witness", ["sharp.k_min=0"], "sharp.k_min: witness needs k >= 1"),
        ("sharpness", "sharpness_witness", ["sharp.q=1"], "sharp.q, sharp.r: exponents must lie"),
        ("sharpness", "sharpness_witness", ["sharp.k_min=3", "sharp.k_max=2"], "sharp.k_min=3 exceeds sharp.k_max=2"),
        ("resonance", "verify_lemma_bounds", ["resonance.alpha=1.0"], "resonance.alpha: alpha must be positive"),
        ("params", None, ["resonance.alpha=-1"], "resonance.alpha: alpha must be positive"),
        ("resonance", "verify_lemma_bounds", ["lemma.n_xi=0"], "grid counts must be >= 1"),
        # one sample time makes a trapezoid over the window zero
        ("strichartz-scan", "strichartz_scan", ["scan.samples=1"], "scan.samples: need at least 2 sample times"),
        ("sharpness", "sharpness_witness", ["sharp.samples=1"], "sharp.samples: need at least 2 sample times"),
    ],
    ids=[
        "scan-empty",
        "scan-unresolved",
        "scan-q",
        "scan-r",
        "sharp-k0",
        "sharp-q",
        "sharp-empty",
        "resonance",
        "params",
        "lemma-count",
        "scan-samples",
        "sharp-samples",
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


def test_sharpness_checks_the_horizon_before_any_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "sharpness_witness", no_run)
    # sharp.R = 64 puts the horizon at 32, and the window of k = 7 ends at 2^6 = 64
    code = run(["sharpness", "--out", str(tmp_path), "--set", "sharp.k_max=7"])
    assert code == EXIT_GUARD
    assert "reflection-safe horizon" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_scan_checks_the_horizon_before_any_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "strichartz_scan", no_run)
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
    assert (tmp_path / "scan_plot.csv").is_file()
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
    assert len(outputs) == 15

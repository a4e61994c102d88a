from kgzsim.cli import EXIT_BLOWUP, EXIT_CONFIG, EXIT_GUARD, EXIT_OK, DEFAULTS, main, resolve_config


def run(args):
    return main(args)


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
    assert "passed=True" in summary


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
    code = run(
        [
            "scatter-diag",
            "--out",
            str(tmp_path),
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
    )
    assert code == EXIT_OK
    assert (tmp_path / "cauchy.csv").is_file()
    assert (tmp_path / "cauchy_plot.csv").is_file()
    assert (tmp_path / "diagnostics.csv").is_file()


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
    code = run(
        [
            "strichartz-scan",
            "--out",
            str(tmp_path),
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
    )
    assert code == EXIT_OK
    assert (tmp_path / "scan.csv").is_file()
    assert (tmp_path / "scan_plot.csv").is_file()
    assert (tmp_path / "manifest.txt").is_file()

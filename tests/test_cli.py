import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghznet
from ghznet.cli import EXIT_CONFIG, EXIT_OK, main
from ghznet.config import ConfigError, load_config, parse_kv_text, resolve_scenario

BASE_CFG = """
# memory-network demo
network.N = 3
network.d_A_km = 50
network.d_B_km = 4
noise.f_D = 0.01
memory.T2_s = 1.0
memory.Tp_s = 2e-6
protocol.family = mQSS,mCKA
protocol.memories = true
mc.samples = 500
mc.seed = 7
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(BASE_CFG)
    return str(path)


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_kv_text("network.N = 3\nnetwork.Q = 1\n", "inline")
    assert "inline:2" in str(err.value)
    assert "unknown configuration key" in str(err.value)


def test_parse_rejects_duplicates_and_empty_values():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("mc.seed = 1\nmc.seed = 2\n", "x")
    with pytest.raises(ConfigError, match="empty value"):
        parse_kv_text("mc.seed =\n", "x")
    with pytest.raises(ConfigError, match="key=value"):
        parse_kv_text("what is this\n", "x")


def test_resolve_validates_values():
    with pytest.raises(ConfigError, match="bad value"):
        resolve_scenario(parse_kv_text("network.N = three\n", "x"))
    with pytest.raises(ConfigError, match="basis switching"):
        resolve_scenario(
            parse_kv_text(
                "protocol.family = mQSS\nprotocol.basis_strategy = preshared\n", "x"
            )
        )
    with pytest.raises(ConfigError, match="excludes"):
        resolve_scenario(parse_kv_text("network.d_km = 4\nnetwork.d_A_km = 2\n", "x"))
    with pytest.raises(ConfigError, match="only one"):
        resolve_scenario(parse_kv_text("finite.L = 1e6\nfinite.block_size = 1e4\n", "x"))
    with pytest.raises(ConfigError, match="sweep"):
        resolve_scenario(parse_kv_text("sweep.from = 1\n", "x"))


def test_overrides_win():
    items = load_config(None, ["mc.seed = 3", "mc.seed=4"])
    assert resolve_scenario(items).seed == 4


def test_cli_unknown_key_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("network.N = 3\nnet.d = 1\n")
    code = main(["rate", "--config", str(bad)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{bad}:2" in captured.err


def test_cli_rate_runs_and_is_reproducible(config_file, capsys):
    assert main(["rate", "--config", config_file]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["rate", "--config", config_file]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    lines = [l for l in first.splitlines() if l and not l.startswith("#")]
    assert lines[0].startswith("family,")
    assert len(lines) == 3  # header + two protocol rows
    assert "# config.mc.seed = 7" in first


def test_cli_rate_finite_regime(config_file, capsys):
    code = main(
        ["rate", "--config", config_file, "--set", "finite.block_size=1e8",
         "--set", "protocol.p_key=0.96", "--set", "protocol.family=mQSS"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("mQSS")][0]
    assert ",finite," in row
    assert ",ok," in row


def test_cli_rate_writes_file(config_file, tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    assert main(["rate", "--config", config_file, "--out", str(out_path)]) == EXIT_OK
    text = out_path.read_text()
    assert text.startswith("# config.")
    assert "mCKA" in text


def test_cli_sweep(config_file, capsys):
    code = main(
        ["sweep", "--config", config_file, "--set", "protocol.family=mQSS",
         "--set", "sweep.parameter=noise.f_D", "--set", "sweep.from=0",
         "--set", "sweep.to=0.04", "--set", "sweep.steps=5"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0].startswith("noise.f_D,family")
    assert len(rows) == 6


def test_cli_sweep_without_sweep_keys_fails(config_file, capsys):
    assert main(["sweep", "--config", config_file]) == EXIT_CONFIG


def test_cli_threshold_matches_analytic(capsys):
    code = main(
        ["threshold", "--target", "distance", "--task", "QSS", "--n", "3",
         "--fixed", "0.0", "--bracket", "1", "30"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("distance")][0]
    threshold = float(row.split(",")[7])
    assert threshold == pytest.approx(15.0515, abs=1e-3)


def test_cli_optimize_pkey(config_file, capsys):
    code = main(
        ["optimize-pkey", "--config", config_file, "--set", "finite.block_size=1e6",
         "--set", "protocol.family=mQSS"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("mQSS")][0]
    p_opt = float(row.split(",")[5])
    assert 0.8 < p_opt < 1.0


def test_cli_optimize_pkey_needs_finite(config_file, capsys):
    assert main(["optimize-pkey", "--config", config_file]) == EXIT_CONFIG


@pytest.mark.parametrize("setting", ["finite.block_size=nan", "finite.block_size=inf", "finite.L=nan"])
def test_cli_rejects_non_finite_sizes(config_file, capsys, setting):
    assert main(["rate", "--config", config_file, "--set", setting]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err
    assert main(["sweep", "--config", config_file, "--set", setting, "--set", "sweep.parameter=noise.f_D",
                 "--set", "sweep.from=0", "--set", "sweep.to=0.01", "--set", "sweep.steps=2"]) == EXIT_CONFIG


@pytest.mark.parametrize("setting", ["network.d_A_km=nan", "network.d_B_km=inf", "network.d_km=nan"])
def test_cli_rejects_non_finite_distances(capsys, setting):
    assert main(["rate", "--set", setting]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["network.d_A_km=2", "mc.samples=0", "network.d_A_km=20000"])
def test_cli_memory_settings_are_config_errors(capsys, setting):
    # memory yields assume d_A >= d_B; zero samples leave the dephasing
    # undefined; at 20000 km p_a underflows to 0 and no trial ever succeeds
    assert main(["rate", "--set", setting, "--set", "protocol.memories=true"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: --set[1]:1: ")


def test_cli_rejects_p_key_out_of_range(capsys):
    assert main(["rate", "--set", "protocol.p_key=1.5"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: --set[1]:1: protocol.p_key must lie in [0, 1]")
    sweep = ["sweep", "--set", "sweep.parameter=protocol.p_key", "--set", "sweep.from=0.5",
             "--set", "sweep.to=1.5", "--set", "sweep.steps=3"]
    assert main(sweep) == EXIT_CONFIG
    assert "protocol.p_key must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["rate", "--out", "{missing}"], "error: --out: cannot write {missing}: "),
        (["rate", "--set", "output.path={missing}"], "error: --set[1]:1: cannot write {missing}: "),
        (["reproduce", "--figure", "fig2", "--outdir", "{file}"], "error: --outdir: cannot write {file}: "),
        (
            ["rate", "--set", "finite.block_size=1e8", "--set", "finite.epsilon=1e-300"],
            "error: --set[2]:1: finite.epsilon must lie in [1e-100, 1)",
        ),
    ],
    ids=["out", "output.path", "outdir", "epsilon"],
)
def test_cli_unwritable_output_and_tiny_epsilon(tmp_path, capsys, argv, message):
    paths = {"missing": str(tmp_path / "missing" / "x.csv"), "file": str(tmp_path / "file")}
    (tmp_path / "file").write_text("")
    assert main([arg.format(**paths) for arg in argv]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(message.format(**paths))


@pytest.mark.parametrize(
    "argv",
    [
        ["--target", "distance", "--bracket", "5", "1"],
        ["--target", "noise", "--bracket", "0", "2"],
        ["--target", "distance", "--n", "1"],
        ["--target", "noise", "--fixed", "nan"],
        ["--target", "noise", "--fixed", "-1"],
        ["--target", "distance", "--fixed", "2"],
    ],
)
def test_cli_threshold_rejects_bad_arguments(capsys, argv):
    assert main(["threshold", *argv]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {argv[2]} ")


def test_cli_reproduce_fig2(tmp_path):
    outdir = tmp_path / "rep"
    assert main(["reproduce", "--figure", "fig2", "--outdir", str(outdir)]) == EXIT_OK
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["MANIFEST_fig2.txt", "fig2_rates_vs_distance.csv"]
    manifest = (outdir / "MANIFEST_fig2.txt").read_text()
    assert "fig2_rates_vs_distance.csv" in manifest


def test_cli_oracle_check_fast(capsys):
    code = main(["oracle-check", "--max-n", "2", "--sift-rounds", "20000"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "oracle-check: PASS" in out
    assert "all-bobs" in out


def test_cli_oracle_check_guards(capsys):
    assert main(["oracle-check", "--max-n", "5"]) == EXIT_CONFIG
    assert "oracle supports N <= 4" in capsys.readouterr().err
    assert main(["oracle-check", "--max-n", "4"]) == EXIT_CONFIG
    assert "--widen-guard" in capsys.readouterr().err
    assert main(["oracle-check", "--max-n", "2", "--sift-rounds", "0"]) == EXIT_CONFIG
    assert "sift-rounds >= 1" in capsys.readouterr().err
    for tol in ("-1", "nan"):
        assert main(["oracle-check", "--max-n", "2", "--tol", tol]) == EXIT_CONFIG
        assert "finite tol > 0" in capsys.readouterr().err


def test_cli_oracle_check_four_parties(capsys):
    assert main(["oracle-check", "--max-n", "4", "--widen-guard"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "168/168 grid points passed" in out
    assert "oracle-check: PASS" in out


def test_python_m_ghznet_runs_the_cli():
    src = str(Path(ghznet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "ghznet", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == f"ghznet {ghznet.__version__}"

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ghznet.analysis import advantage_profile
from ghznet.finite import FiniteSizeParams
from ghznet.network import NetworkConfig
from ghznet.noise import NoiseParams
from ghznet.reproduce import RECIPES

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args, cwd=ROOT):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("block", [None, 1e8])
def test_advantage_scan_prints_the_profile_extents(block):
    args = ["--d-a", "30", "--t2", "1", "--n-max", "6", "--samples", "50"]
    if block is not None:
        args += ["--block", str(block)]
    done = _run("advantage_scan.py", *args)
    assert done.returncode == 0, done.stderr
    header, row, *rest = done.stdout.splitlines()
    assert header.startswith("d_A_km") and not rest
    cfg, noise = NetworkConfig(2, 30.0, 4.0), NoiseParams(0.01, t2_s=1.0, prep_time_s=2e-6)
    fsp = None if block is None else FiniteSizeParams(epsilon=1e-10, block_size=block)
    mem, plain = (
        advantage_profile(cfg, noise, 6, memories=memories, fsp=fsp, mc_samples=50)
        for memories in (True, False)
    )
    cells = [str(mem.max_n_advantage), str(mem.max_n_linear), str(plain.max_n_advantage)]
    assert row.split() == ["30.0", "1.00", *cells]


def test_run_all_figures_writes_the_unskipped_figure(tmp_path):
    skipped = [figure for figure in RECIPES if figure != "fig2"]
    done = _run("run_all_figures.py", "--outdir", str(tmp_path / "out"), "--skip", *skipped)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "MANIFEST_fig2.txt", "fig2_rates_vs_distance.csv",
    ]
    lines = done.stdout.splitlines()
    assert lines[0].startswith("fig2: 1 table(s) in ")
    assert lines[1:] == [f"{figure}: skipped" for figure in skipped]


@pytest.mark.parametrize("script", ["advantage_scan.py", "run_all_figures.py"])
def test_scripts_reject_a_negative_seed(tmp_path, script):
    # rejected before any table is written, as the CLI's --seed is
    done = _run(script, "--seed", "-1", cwd=tmp_path)
    assert done.returncode == 2
    assert "--seed must be >= 0, got -1" in done.stderr
    assert done.stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args,message",
    [
        (["--n-max", "1"], "argument --n-max: need at least 2 players, got 1"),
        (["--samples", "0"], "argument --samples: must be >= 1, got 0"),
        (["--d-b", "60", "--d-a", "30"], "argument --d-a: memory-assisted networks need d_A >= d_B = 60, got 30"),
        (["--d-a", "20000"], "argument --d-a: memory-assisted networks need p_a > 0"),
        (["--block", "0.5"], "argument --block: block_size must be finite and >= 1"),
        (["--block", "1e8", "--epsilon", "2"], "argument --epsilon: epsilon must lie in (0, 1)"),
        (["--f-depol", "2"], "argument --f-depol: f_depol must lie in [0, 1]"),
        (["--t2", "0"], "argument --t2: dephasing time must be positive"),
    ],
    ids=["n-max", "samples", "d-b-above-d-a", "d-a-dark", "block", "epsilon", "f-depol", "t2"],
)
def test_advantage_scan_rejects_inputs_the_model_cannot_use(args, message):
    # a usage error naming the argument before the header, not a traceback
    done = _run("advantage_scan.py", *args)
    assert done.returncode == 2
    assert message in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""

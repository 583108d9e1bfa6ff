import argparse
import hashlib
import math
import os
import subprocess
import sys
import warnings
from enum import Enum, IntEnum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import ghznet
from ghznet import reproduce
from ghznet.analysis import advantage_profile
from ghznet.cli import COMMAND_KEYS, EXIT_CONFIG, EXIT_OK, RATE_COLUMNS, build_parser, command_rows, main
from ghznet.config import DEFAULTS, SCHEMA, ConfigError, load_config, parse_kv_text, resolve_scenario
from ghznet.finite import FiniteSizeParams
from ghznet.network import NetworkConfig
from ghznet.noise import NoiseParams
from ghznet.tables import SIGNIFICANT_DIGITS, ResultTable, format_cell

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


@pytest.mark.parametrize("command", ["rate", "sweep", "profile", "threshold"])
def test_cli_non_utf8_config_names_its_line(tmp_path, capsys, command):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"network.N = 3\n\xff = 2\n")
    argv = [command, "--config", str(bad)] + (["--target", "noise"] if command == "threshold" else [])
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}:2: ")
    assert captured.out == "" and "Traceback" not in captured.err


# command, its arguments, the keys every run of it sets and the keys it
# refuses besides: a threshold's scanned quantity
DEFAULTS_RUNS = [
    pytest.param(command, [], base, (), id=f"{command}-{name}")
    for command in ("rate", "sweep", "profile")
    for name, base in (("memoryless", ()), ("memories", ("protocol.memories=true",)))
] + [
    pytest.param("threshold", ["--target", "noise"], (), ("noise.f_D",), id="threshold-noise"),
    pytest.param(
        "threshold", ["--target", "distance"], (), ("network.d_km", "network.d_B_km"),
        id="threshold-distance",
    ),
]


@pytest.mark.parametrize("command,arguments,base,refused", DEFAULTS_RUNS)
def test_cli_defaults_table_is_what_unset_keys_take(capsys, command, arguments, base, refused):
    # every DEFAULTS key the command takes, set to its default, prints the
    # rows of a run that sets none of them; finite.epsilon needs a block size
    base = ("finite.block_size=1e8", *base)
    if command == "sweep":
        base += ("sweep.parameter=noise.f_D", "sweep.from=0", "sweep.to=0.02", "sweep.steps=3")
    set_keys = {setting.split("=")[0] for setting in base} | set(refused)
    defaults = [
        f"{key}={value}"
        for key, value in DEFAULTS.items()
        if key in COMMAND_KEYS[command] and key not in set_keys
    ]
    assert defaults
    rows = []
    for settings in (base, (*base, *defaults)):
        argv = [command, *arguments]
        for setting in settings:
            argv += ["--set", setting]
        assert main(argv) == EXIT_OK
        rows.append(_data_rows(capsys.readouterr().out))
    assert rows[0] and rows[0] == rows[1]


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


FAMILIES = ("mQSS", "mCKA", "bQSS", "bCKA")
N_SWEEP = [
    "--set", "protocol.family=" + ",".join(FAMILIES), "--set", "finite.block_size=1e8",
    "--set", "protocol.p_key=0.9", "--set", "sweep.parameter=network.N",
    "--set", "sweep.from=2", "--set", "sweep.to=6", "--set", "sweep.steps=5",
]


def _data_rows(out):
    return [l for l in out.splitlines() if l and not l.startswith("#")][1:]


# (settings, sweep settings) per sweepable key: each point runs the checks
# of the one object its key sets, and a full resolve must agree with it
SWEEP_ROW_CASES = {
    "network.N": (("protocol.memories=true", "finite.block_size=1e8", "protocol.p_key=0.9"),
                  ("sweep.parameter=network.N", "sweep.from=2", "sweep.to=6", "sweep.steps=5")),
    "network.d_km": ((), ("sweep.parameter=network.d_km", "sweep.from=1", "sweep.to=41", "sweep.steps=5")),
    "network.d_A_km": (("protocol.memories=true", "finite.block_size=1e8"),
                       ("sweep.parameter=network.d_A_km", "sweep.from=4", "sweep.to=100", "sweep.steps=5")),
    "network.d_B_km": (("finite.block_size=1e8",),
                       ("sweep.parameter=network.d_B_km", "sweep.from=1", "sweep.to=20", "sweep.steps=4")),
    "noise.f_D": (("protocol.memories=true",),
                  ("sweep.parameter=noise.f_D", "sweep.from=0", "sweep.to=0.08", "sweep.steps=5")),
    "protocol.p_key": (("finite.block_size=1e6",),
                       ("sweep.parameter=protocol.p_key", "sweep.from=0.5", "sweep.to=0.9", "sweep.steps=3")),
    "finite.block_size": (("protocol.memories=true", "protocol.p_key=opt"),
                          ("sweep.parameter=finite.block_size", "sweep.from=1e4", "sweep.to=1e10",
                           "sweep.steps=4", "sweep.log=true")),
}


@pytest.mark.parametrize("key", SWEEP_ROW_CASES)
def test_cli_sweep_rows_equal_single_family_rates(capsys, key):
    settings, sweep = SWEEP_ROW_CASES[key]
    settings += ("protocol.family=" + ",".join(FAMILIES), "mc.samples=500", "mc.seed=7")
    assert main(_argv("sweep", *settings, *sweep)) == EXIT_OK
    swept = [row.split(",", 1) for row in _data_rows(capsys.readouterr().out)]
    assert len(swept) == int(sweep[3].partition("=")[2]) * len(FAMILIES)
    for i, (text, cells) in enumerate(swept):
        family = FAMILIES[i % len(FAMILIES)]
        assert main(_argv("rate", *settings, f"{key}={text}", f"protocol.family={family}")) == EXIT_OK
        assert [cells] == _data_rows(capsys.readouterr().out), (text, family)


def test_cli_sweep_resolves_the_scenario_once(capsys, monkeypatch):
    # a point rebuilds only the object its key sets, never the scenario
    calls = []
    resolve = ghznet.config.resolve_scenario

    def counted(items):
        calls.append(1)
        return resolve(items)

    monkeypatch.setattr(ghznet.config, "resolve_scenario", counted)
    monkeypatch.setattr(ghznet.cli, "resolve_scenario", counted)
    sweep = ("sweep.parameter=network.d_A_km", "sweep.from=4", "sweep.to=100", "sweep.steps=97")
    assert main(_argv("sweep", "protocol.family=mQSS", *sweep)) == EXIT_OK
    assert len(_data_rows(capsys.readouterr().out)) == 97
    assert len(calls) == 1


def test_cli_sweep_draws_each_memory_sample_once(config_file, capsys, memory_draws):
    # the N = 2 multipartite sample is the two-party sample every bipartite
    # row reuses, so one draw per N
    assert main(["sweep", "--config", config_file, *N_SWEEP]) == EXIT_OK
    assert memory_draws == [2, 3, 4, 5, 6]


def test_cli_second_sweep_reuses_every_draw(config_file, capsys, memory_draws):
    # the memo outlives the command: a repeated sweep in the same process
    # draws nothing and prints the same bytes
    argv = ["sweep", "--config", config_file, *N_SWEEP]
    assert main(argv) == EXIT_OK
    first_out, first_calls = capsys.readouterr().out, len(memory_draws)
    assert first_calls > 0
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first_out
    assert len(memory_draws) == first_calls


def test_cli_rate_runs_past_a_thousand_parties(capsys):
    # 2^(N-1) * (f/4)^N once overflowed the int-to-float conversion at N >= 1025
    argv = ["rate", "--set", "network.N=1100", "--set", "protocol.memories=true", "--set", "mc.samples=10"]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    (row,) = _data_rows(captured.out)
    assert row.split(",")[3] == "1100" and "Traceback" not in captured.err


# sha256 of the stdout of sweeps over all four families: the benchmark's nine
# cli-sweeps sweeps (every N from 2 to 30, and the N <= 3 draws at each
# distance and noise), a finite sweep of p_key up to 1 and an optimised
# p_key = opt block-size sweep, so every row shape the key-length columns
# serve is pinned; a change that moves them on purpose re-pins the digest
# and says why.
PINNED_SWEEP_COMMON = [
    "protocol.family=mQSS,mCKA,bQSS,bCKA", "protocol.p_key=0.95", "network.d_A_km=50",
    "network.d_B_km=4", "noise.f_D=0.01", "memory.T2_s=1", "memory.Tp_s=2e-06",
    "mc.samples=1000", "protocol.memories=true",
]
MEMORYLESS = "protocol.memories=false"
PINNED_SWEEPS = {
    "d_A/asymptotic": (
        [*PINNED_SWEEP_COMMON, "sweep.parameter=network.d_A_km", "sweep.from=4", "sweep.to=100",
         "sweep.steps=97"],
        "2a574f6d3c45b9a8083eb6b45ca7c5ab161d8cd6456f5b33e5473fbd25b70878",
    ),
    "N/asymptotic": (
        [*PINNED_SWEEP_COMMON, "sweep.parameter=network.N", "sweep.from=2", "sweep.to=30",
         "sweep.steps=29"],
        "fef11323923121d773f129b3e3832b1deea335c253e5b88caa8a809ef0bce7b0",
    ),
    "N/finite-memoryless": (
        [*PINNED_SWEEP_COMMON, MEMORYLESS, "finite.block_size=1e8", "sweep.parameter=network.N",
         "sweep.from=2", "sweep.to=30", "sweep.steps=29"],
        "76cdf42712a091c3b10f5f5397fce6e94a14ede400ad2dab3f8ba2789b65224a",
    ),
    "f_D/finite-memoryless": (
        [*PINNED_SWEEP_COMMON, MEMORYLESS, "finite.block_size=1e8", "sweep.parameter=noise.f_D",
         "sweep.from=0", "sweep.to=0.08", "sweep.steps=81"],
        "7d15276829ffddf7cb093355963769541a8aa7f628e6fe50fe94b0d65d4d9128",
    ),
    "block/memoryless": (
        [*PINNED_SWEEP_COMMON, MEMORYLESS, "sweep.parameter=finite.block_size", "sweep.from=1e4",
         "sweep.to=1e12", "sweep.steps=65", "sweep.log=true"],
        "637dc6c060b2a60960fb1796d87706d342a591e7f4749539ab4d821ad7bd3100",
    ),
    # a p_key column per row, out to the switching rows with no checks at 1
    "p_key/finite": (
        [*PINNED_SWEEP_COMMON, "finite.block_size=1e6", "sweep.parameter=protocol.p_key",
         "sweep.from=0.5", "sweep.to=1", "sweep.steps=11"],
        "4e442b217ebe09dfa6a59c7097a553fbb0d559894afb2b45e41e3482f66547ed",
    ),
    # each row at its own optimum, indeterminate ones at p_key = 1/2
    "block/opt": (
        [*PINNED_SWEEP_COMMON, "protocol.p_key=opt", "sweep.parameter=finite.block_size",
         "sweep.from=1e3", "sweep.to=1e11", "sweep.steps=9", "sweep.log=true"],
        "b0e5c15b12610647a311d1cd329759f03279ebb00a880a96a94094e902af5afb",
    ),
    "N/finite": (
        [*PINNED_SWEEP_COMMON, "finite.block_size=1e8", "sweep.parameter=network.N",
         "sweep.from=2", "sweep.to=30", "sweep.steps=29"],
        "7d7f50d334620c985f9c962e9039d29e0ffc62746c26f1aa124a0c5caaf262e5",
    ),
    "block/memory": (
        [*PINNED_SWEEP_COMMON, "sweep.parameter=finite.block_size", "sweep.from=1e4",
         "sweep.to=1e12", "sweep.steps=65", "sweep.log=true"],
        "b8bbc60d249794d2fcf833e33757477c4cfe60b29655766dd6e0a06b3c3b115a",
    ),
    "d_A/finite": (
        [*PINNED_SWEEP_COMMON, "finite.block_size=1e8", "sweep.parameter=network.d_A_km",
         "sweep.from=4", "sweep.to=100", "sweep.steps=97"],
        "20a39d117cae317cc10382aa90454d50f9cbaca45bd360e8e273aa7c578dee3c",
    ),
    "f_D/asymptotic": (
        [*PINNED_SWEEP_COMMON, "sweep.parameter=noise.f_D", "sweep.from=0", "sweep.to=0.08",
         "sweep.steps=81"],
        "96f3d2fad118b34465800675636b24bff9a53c8cea0e708d78152786b6b3290d",
    ),
}


# sha256 of `ghznet oracle-check` stdout: the density-matrix grid, the
# fixed-seed parity enumeration and the exact sifting count, whose rows must
# not move when their code does.
PINNED_ORACLE_CHECKS = {
    "default": ([], "c7a991e950038bbd3089cf3bef91ba39012317eab2e6c4f7dd83d147fd1253d3"),
    "four-parties": (
        ["--max-n", "4", "--widen-guard"],
        "3fd7ddf5cda909887fe19b492f8671cc2bedd5aa78ffefb3182baa1f121663ea",
    ),
    # --verbose adds every grid point's max|err| and GHZ residual and each
    # pair count's worst parity error
    "default-verbose": (
        ["--verbose"],
        "f55edb59c88e6a3cf15fdb82fb47b2da74f3d4c3bd668f140c85620e163eb553",
    ),
    "four-parties-verbose": (
        ["--max-n", "4", "--widen-guard", "--verbose"],
        "98c6644768e1812d24e11b8c3a2d7e9f488aa0a9ca02a49a77f6364db6174073",
    ),
}


def test_sweep_tables_are_pinned(capsys):
    changed = []
    for name, (settings, digest) in PINNED_SWEEPS.items():
        argv = ["sweep"]
        for setting in settings:
            argv += ["--set", setting]
        assert main(argv) == EXIT_OK
        if hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() != digest:
            changed.append(name)
    assert not changed, f"sweep tables differ from their pinned digests: {changed}"


@pytest.mark.parametrize("name", sorted(PINNED_ORACLE_CHECKS))
def test_oracle_check_output_is_pinned(capsys, name):
    argv, digest = PINNED_ORACLE_CHECKS[name]
    assert main(["oracle-check", *argv]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# `ghznet rate` rows on key-length branches that nothing else pins: the
# cells after `regime`, from `rounds` to `preshared_term`
DEGENERATE_RATE_ROWS = {
    # switching at p_key = 1: k = 0 checks, and the breakdown saturates
    "no-checks": (
        ["finite.block_size=1e6", "protocol.p_key=1"],
        ["14454397.7075,1000000,0,1000000,0,0,0,insufficient-detections,"
         "0.0148505,0.0148505,1000000,1000000,104.657842847,0"],
    ),
    # a one-detection block: m = 1 and k < 1
    "one-detection": (
        ["finite.block_size=1", "protocol.p_key=0.9"],
        ["19.8277060459,1,0.0137174211248,1,0,0,0,insufficient-detections,"
         "4.88506590699,10.1048189959,1,1,104.657842847,0"],
    ),
    # the epsilon floor, and its split over the bipartite links
    "epsilon-floor": (
        ["finite.block_size=1e10", "finite.epsilon=1e-100", "protocol.family=mQSS,bQSS", "protocol.p_key=opt"],
        ["153220203645,10000000000,3925285.69383,10000000000,3925285,7320893294.47,0.0477802086169,ok,"
         "0.0150024709369,0.0225512564678,1555349433.27,1123756270.68,1001.57842847,0",
         "252154911720,10000000000,5781253.80813,10000000000,5781253,7984546360.99,0.0316652422375,ok,"
         "0.0101019709369,0.0162912459635,1200768813.44,814683824.988,1000.57842847,0"],
    ),
}


@pytest.mark.parametrize("name", DEGENERATE_RATE_ROWS)
def test_cli_rate_pins_degenerate_key_length_branches(capsys, name):
    settings, expected = DEGENERATE_RATE_ROWS[name]
    assert main(_argv("rate", *settings)) == EXIT_OK
    rows = _data_rows(capsys.readouterr().out)
    start = RATE_COLUMNS.index("rounds")
    assert [",".join(row.split(",")[start:]) for row in rows] == expected


def test_cli_threshold_matches_analytic(capsys):
    code = main(
        ["threshold", "--target", "distance", "--set", "network.N=3", "--set", "noise.f_D=0",
         "--bracket", "1", "30"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("distance")][0]
    threshold = float(row.split(",")[7])
    assert threshold == pytest.approx(15.0515, abs=1e-3)


@pytest.mark.parametrize("f_depol", ["0.2", "1"])
def test_cli_threshold_needs_key_on_one_side(capsys, f_depol):
    # at this noise neither side yields key at any distance: the raw,
    # negative rates still cross, but the clamped ones do not
    assert main(["threshold", "--target", "distance", "--set", f"noise.f_D={f_depol}"]) == EXIT_OK
    header, row = (l for l in capsys.readouterr().out.splitlines() if not l.startswith("#"))
    cells = dict(zip(header.split(","), row.split(",")))
    assert (cells["threshold"], cells["status"]) == ("", "no-sign-change")


def _opt_rows(capsys, *settings, config=None):
    """The data rows of `rate` with protocol.p_key = opt, split into cells."""
    argv = ["rate"] + (["--config", config] if config else []) + ["--set", "protocol.p_key=opt"]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == EXIT_OK
    return [row.split(",") for row in _data_rows(capsys.readouterr().out)]


P_KEY, SECRET_FRACTION, STATUS = (RATE_COLUMNS.index(c) for c in ("p_key", "secret_fraction", "status"))


def test_cli_rate_optimizes_p_key(config_file, capsys):
    (row,) = _opt_rows(capsys, "finite.block_size=1e6", "protocol.family=mQSS", config=config_file)
    assert 0.8 < float(row[P_KEY]) < 1.0
    assert row[STATUS] == "ok"


# Rows of the former `optimize-pkey` command, taken before protocol.p_key =
# opt replaced it: family, memories, strategy, block size, p_key_opt (empty
# for an indeterminate optimum) and secret_fraction, on the default star
# (N = 3, d_A = 50 km, d_B = 4 km, f_D = 0.01, 1000 memory samples).  The
# last row of each block is mCKA with basis switching.
OPTIMUM_PINS = """
mQSS,false,switching,1e3,,0
mCKA,false,preshared,1e3,,0
bQSS,false,switching,1e3,,0
bCKA,false,preshared,1e3,,0
mCKA,false,switching,1e3,,0
mQSS,false,switching,1e6,0.8949068314,0.0272443761664
mCKA,false,preshared,1e6,0.998766655132,0.00228845973853
bQSS,false,switching,1e6,0.876105360171,0.019811364852
bCKA,false,preshared,1e6,,0
mCKA,false,switching,1e6,0.8949068314,0.0272443761664
mQSS,false,switching,1e8,0.965639246687,0.043438054399
mCKA,false,preshared,1e8,0.999638522748,0.0394543257357
bQSS,false,switching,1e8,0.958483852437,0.0292809608675
bCKA,false,preshared,1e8,0.999748991854,0.0243619601633
mCKA,false,switching,1e8,0.965639246687,0.043438054399
mQSS,false,switching,1e10,0.988793402359,0.0502216134312
mCKA,false,preshared,1e10,0.999921397085,0.0502827674838
bQSS,false,switching,1e10,0.986313842571,0.0329990495338
bCKA,false,preshared,1e10,0.999943056331,0.0322744660111
mCKA,false,switching,1e10,0.988793402359,0.0502216134312
mQSS,true,switching,1e3,,0
mCKA,true,preshared,1e3,,0
bQSS,true,switching,1e3,,0
bCKA,true,preshared,1e3,,0
mCKA,true,switching,1e3,,0
mQSS,true,switching,1e6,0.892639320225,0.0375671792099
mCKA,true,preshared,1e6,0.998287925088,0.0091214152928
bQSS,true,switching,1e6,0.874736705091,0.0232613044993
bCKA,true,preshared,1e6,,0
mCKA,true,switching,1e6,0.892639320225,0.0375671792099
mQSS,true,switching,1e8,0.964965121924,0.0603613075483
mCKA,true,preshared,1e8,0.999533845909,0.0572268835417
bQSS,true,switching,1e8,0.958046984691,0.0344832117844
bCKA,true,preshared,1e8,0.999717037453,0.0294521357004
mCKA,true,switching,1e8,0.964965121924,0.0603613075483
mQSS,true,switching,1e10,0.98859240241,0.0699651944739
mCKA,true,preshared,1e10,0.999899606842,0.0707290528308
bQSS,true,switching,1e10,0.986175669586,0.0389039844793
bCKA,true,preshared,1e10,0.999935807161,0.0382814973601
mCKA,true,switching,1e10,0.98859240241,0.0699651944739
"""
OPTIMA = [line.split(",") for line in OPTIMUM_PINS.split()]


@pytest.mark.parametrize("memories,block", sorted({(pin[1], pin[3]) for pin in OPTIMA}))
def test_cli_rate_opt_rows_equal_the_optimize_pkey_pins(capsys, memories, block):
    # an indeterminate optimum (every grid fraction <= 0) prints its
    # evaluation at p_key = 1/2, so every row re-runs as a numeric rate
    common = (f"protocol.memories={memories}", f"finite.block_size={block}")
    rows = _opt_rows(capsys, "protocol.family=mQSS,mCKA,bQSS,bCKA", *common)
    rows += _opt_rows(capsys, "protocol.family=mCKA", "protocol.basis_strategy=switching", *common)
    pins = [pin for pin in OPTIMA if (pin[1], pin[3]) == (memories, block)]
    assert [row[:3] for row in rows] == [pin[:3] for pin in pins]
    for row, (*_, p_key_opt, fraction) in zip(rows, pins):
        assert row[SECRET_FRACTION] == fraction
        if p_key_opt:
            assert (row[P_KEY], row[STATUS]) == (p_key_opt, "ok")
        else:
            assert (row[P_KEY], row[STATUS]) == ("0.5", "indeterminate")


def test_cli_rate_opt_p_key_needs_finite_size(config_file, tmp_path, capsys):
    assert main(["rate", "--config", config_file, "--set", "protocol.p_key=opt"]) == EXIT_CONFIG
    message = "protocol.p_key = opt needs finite.block_size"
    assert capsys.readouterr().err.startswith(f"error: --set[1]:1: {message}")
    config = tmp_path / "scenario.cfg"
    config.write_text("network.N = 4\nprotocol.p_key = opt\n")
    assert main(["rate", "--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {config}:2: {message}")


def test_cli_sweep_refuses_opt_under_a_p_key_sweep(capsys):
    # opt chooses p_key itself, so each point's p_key would go unread
    argv = ["sweep", "--set", "finite.block_size=1e6", "--set", "protocol.p_key=opt",
            "--set", "sweep.parameter=protocol.p_key", "--set", "sweep.from=0.5",
            "--set", "sweep.to=0.9", "--set", "sweep.steps=3"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: --set[2]:1: protocol.p_key = opt cannot be swept")


def test_cli_block_size_sweep_with_opt_rows_equal_rate_rows(capsys):
    # the optimal key-basis probability against the block size, as in figC2
    argv = ["sweep", "--set", "protocol.family=mQSS", "--set", "protocol.p_key=opt",
            "--set", "sweep.parameter=finite.block_size", "--set", "sweep.from=1e4",
            "--set", "sweep.to=1e10", "--set", "sweep.steps=4", "--set", "sweep.log=true"]
    assert main(argv) == EXIT_OK
    swept = [row.split(",") for row in _data_rows(capsys.readouterr().out)]
    assert [row[0] for row in swept] == ["10000.0", "1000000.0", "100000000.0", "10000000000.0"]
    for block, *cells in swept:
        assert [cells] == _opt_rows(capsys, "protocol.family=mQSS", f"finite.block_size={block}")
    p_keys = [float(cells[1 + P_KEY]) for cells in swept]
    assert p_keys == sorted(p_keys)


def _argv(command, *settings):
    return [command] + [arg for setting in settings for arg in ("--set", setting)]


BLOCK_SWEEP = ("sweep.parameter=finite.block_size", "sweep.from=1e4", "sweep.to=1e8",
               "sweep.steps=3", "sweep.log=true")


def test_cli_block_size_sweep_takes_finite_epsilon(capsys):
    # the sweep supplies finite.block_size at every point, so finite.epsilon
    # needs no block size of its own
    common = ("finite.epsilon=1e-6", "protocol.p_key=0.95", "protocol.family=mQSS,bCKA")
    assert main(_argv("sweep", *common, *BLOCK_SWEEP)) == EXIT_OK
    swept = _data_rows(capsys.readouterr().out)
    assert [row.split(",", 1)[0] for row in swept[::2]] == ["10000.0", "1000000.0", "100000000.0"]
    for i, row in enumerate(swept):
        block, cells = row.split(",", 1)
        assert main(_argv("rate", *common, f"finite.block_size={block}")) == EXIT_OK
        assert cells == _data_rows(capsys.readouterr().out)[i % 2]
    # at the default epsilon the rows differ: the sweep read 1e-6
    assert main(_argv("rate", *common[1:], "finite.block_size=1e8")) == EXIT_OK
    assert swept[-1].split(",", 1)[1] != _data_rows(capsys.readouterr().out)[1]
    assert main(_argv("sweep", "finite.epsilon=0", *BLOCK_SWEEP)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: --set[1]:1: finite.epsilon must lie in")


def test_cli_rate_opt_p_key_follows_the_basis_strategy(capsys):
    # a conference key run with basis switching is the secret-sharing
    # protocol, so its optimum is the mQSS one
    rows = {}
    for family, strategy in (("mQSS", "switching"), ("mCKA", "switching"), ("mCKA", "preshared")):
        (row,) = _opt_rows(capsys, f"protocol.family={family}", "finite.block_size=1e6",
                           f"protocol.basis_strategy={strategy}")
        assert row[:3] == [family, "false", strategy]
        rows[family, strategy] = row[3:]
    assert rows["mCKA", "switching"] == rows["mQSS", "switching"]
    assert rows["mCKA", "switching"] != rows["mCKA", "preshared"]


def test_cli_has_no_optimize_pkey_command(capsys):
    # optimized rows are rate rows: protocol.p_key = opt
    with pytest.raises(SystemExit) as exited:
        main(["optimize-pkey"])
    assert exited.value.code == EXIT_CONFIG


def test_cli_rejects_the_rounds_key(capsys):
    # a finite run is stated by its block size alone
    assert main(["rate", "--set", "finite.block_size=1e8", "--set", "finite.L=1e9"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: --set[2]:1: unknown configuration key 'finite.L'")


@pytest.mark.parametrize("key", ["finite.eps_rob", "finite.eps_EC"])
def test_cli_threshold_rejects_unused_epsilon_overrides(capsys, key):
    # one security parameter: no robustness or error-correction epsilon of
    # its own, for threshold as for every other command
    for command in (["threshold", "--target", "noise"], ["rate"]):
        argv = [*command, "--set", "finite.block_size=1e8", "--set", f"{key}=1e-3"]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: --set[2]:1: unknown configuration key '{key}'")


@pytest.mark.parametrize(
    "setting",
    [
        "protocol.memories=true",
        "network.d_A_km=80",
        "protocol.basis_strategy=switching",
        "protocol.p_key=0.5",
        "memory.T2_s=5",
        "memory.Tp_s=1e-6",
        "mc.samples=10",
        "mc.seed=3",
        "sweep.parameter=noise.f_D",
    ],
)
def test_cli_threshold_rejects_settings_it_would_ignore(tmp_path, capsys, setting):
    # the scanned star is memoryless and symmetric and compares the best
    # protocols of each side, whatever these say
    argv = ["threshold", "--target", "noise", "--set", "finite.block_size=1e8", "--set", setting]
    assert main(argv) == EXIT_CONFIG
    key = setting.split("=")[0]
    assert capsys.readouterr().err.startswith(f"error: --set[2]:1: threshold takes no {key}")
    config = tmp_path / "scenario.cfg"
    config.write_text(f"finite.block_size = 1e8\n{setting.replace('=', ' = ')}\n")
    assert main(["threshold", "--target", "noise", "--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {config}:2: threshold takes no {key}")


@pytest.mark.parametrize(
    "arguments,setting,argument",
    [
        (["--target", "noise"], "noise.f_D=0.3", "--target noise"),
        (["--target", "distance"], "network.d_km=10", "--target distance"),
        (["--target", "distance"], "network.d_B_km=10", "--target distance"),
    ],
)
def test_cli_threshold_rejects_settings_its_arguments_override(
    tmp_path, capsys, arguments, setting, argument
):
    # the scanned quantity replaces its key, which would be resolved,
    # printed in the header and unused
    key = setting.split("=")[0]
    assert main(["threshold", *arguments, "--set", setting]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: --set[1]:1: {argument} overrides {key}")
    config = tmp_path / "scenario.cfg"
    config.write_text(f"finite.block_size = 1e8\n{setting.replace('=', ' = ')}\n")
    assert main(["threshold", *arguments, "--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {config}:2: {argument} overrides {key}")


@pytest.mark.parametrize(
    "target,setting,column,value",
    [
        ("noise", "network.N=7", "n_parties", "7"),
        ("distance", "network.N=7", "n_parties", "7"),
        ("noise", "network.d_km=10", "fixed_value", "10"),
        ("noise", "network.d_B_km=10", "fixed_value", "10"),
        ("distance", "noise.f_D=0.3", "fixed_value", "0.3"),
        ("noise", "protocol.family=mCKA", "task", "CKA"),
        ("noise", "protocol.family=mQSS", "task", "QSS"),
    ],
)
def test_cli_threshold_reads_its_query_from_the_keys(capsys, target, setting, column, value):
    # the player count, the held quantity and the task are scenario keys
    assert main(["threshold", "--target", target, "--set", setting]) == EXIT_OK
    header, row = (l for l in capsys.readouterr().out.splitlines() if not l.startswith("#"))
    assert dict(zip(header.split(","), row.split(",")))[column] == value


def test_cli_threshold_takes_only_target_and_bracket():
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for a in subparsers.choices["threshold"]._actions for o in a.option_strings}
    assert options == {"-h", "--help", "--config", "--set", "--out", "--target", "--bracket"}


@pytest.mark.parametrize(
    "command,setting",
    [
        ("rate", "sweep.parameter=noise.f_D"),
        ("rate", "sweep.log=true"),
        ("rate", "sweep.steps=3"),
        ("profile", "protocol.p_key=0.5"),
        ("profile", "protocol.basis_strategy=switching"),
        ("profile", "sweep.steps=3"),
    ],
)
def test_cli_commands_reject_settings_they_would_ignore(capsys, command, setting):
    # rate evaluates one point, also where it chooses p_key itself; a
    # profile picks p_key and the conference-key strategy itself
    argv = [command, "--set", "finite.block_size=1e6", "--set", setting]
    if command == "rate":
        argv += ["--set", "protocol.p_key=opt"]
    assert main(argv) == EXIT_CONFIG
    key = setting.split("=")[0]
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --set[2]:1: {command} takes no {key}")
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_non_finite_preparation_time(capsys, value):
    argv = ["rate", "--set", "protocol.memories=true", "--set", f"memory.Tp_s={value}"]
    assert main(argv) == EXIT_CONFIG
    assert "preparation time must be finite" in capsys.readouterr().err


def test_negative_zero_prints_as_zero(capsys):
    assert format_cell(-0.0) == "0" and format_cell(-1e-300) == "-1e-300"
    # zero yield times a negative key fraction is -0.0 in both rate columns
    assert main(["rate", "--set", "network.d_A_km=20000", "--set", "noise.f_D=0.5"]) == EXIT_OK
    (row,) = _data_rows(capsys.readouterr().out)
    assert ",asymptotic,0,0," in row and "-0" not in row


def _reference_format_cell(value):
    # format_cell as first written, with the float test after None and bool
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value + 0.0:.{12}g}"
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


class _Level(IntEnum):
    HIGH = 5


class _Tag(str, Enum):
    QUOTED = 'tag,"q"'


FORMAT_VALUES = [
    0.0, -0.0, 1e-300, 1e300, float("inf"), float("-inf"), float("nan"), 0.1 + 0.2,
    np.float64(-0.0), np.float64(1 / 3), np.float32(0.5), True, False, 0, -3, None, "a,b",
    'say "hi"', "x\ny", _Level.HIGH, _Tag.QUOTED, np.int64(7), np.bool_(True),
]


@pytest.mark.parametrize("value", FORMAT_VALUES)
def test_format_cell_matches_reference(value):
    assert format_cell(value) == _reference_format_cell(value)


def _render_by_cell(table):
    lines = [",".join(table.columns)] + [",".join(map(format_cell, row)) for row in table.rows]
    return "\n".join(lines) + "\n"


def test_render_formats_each_cell_as_format_cell():
    # render picks a formatter by each cell's exact type; any other type,
    # a numpy scalar or an enum, must print as format_cell prints it
    table = ResultTable([f"c{i}" for i in range(len(FORMAT_VALUES))])
    table.add_row(*FORMAT_VALUES)
    row = ",".join(map(format_cell, FORMAT_VALUES))
    assert table.render() == ",".join(table.columns) + "\n" + row + "\n"
    # a column of one exact type formats each distinct value once: equal
    # values must still print as each cell prints, both zeros as 0 and
    # each NaN object as nan; mixed and numpy columns go cell by cell
    nan, other_nan = float("nan"), float("nan")
    columns = {
        "float": [0.0, -0.0, nan, other_nan, math.inf, -math.inf, 1e-300, 0.1 + 0.2, 0.1 + 0.2, -0.0, nan],
        "int_and_bool": [1, True, 1, False, 0, True, 1, 1, 0, True, False],
        "float_and_int": [1.0, 1, 1.0, 1, 2.0, 2, 1.0, 0, 0.0, 1, -0.0],
        "float64": list(map(np.float64, (0.0, -0.0, nan, 1.0, 1.0, 1e-300, -1e300, 0.5, 0.5, math.inf, -0.0))),
    }
    table = ResultTable(list(columns))
    for cells in zip(*columns.values()):
        table.add_row(*cells)
    assert table.render() == _render_by_cell(table)
    assert ResultTable(["a", "b"]).render() == _render_by_cell(ResultTable(["a", "b"])) == "a,b\n"


# rate and sweep tables in every regime: finite, asymptotic and p_key = opt
RATE_ARGV = ["rate", "--set", "protocol.family=mQSS,mCKA,bQSS,bCKA", "--set", "protocol.memories=true"]
PYTHON_CELL_ARGVS = {
    "rate/asymptotic": RATE_ARGV,
    "rate/finite": [*RATE_ARGV, "--set", "finite.block_size=1e6"],
    "rate/opt": [*RATE_ARGV, "--set", "finite.block_size=1e6", "--set", "protocol.p_key=opt"],
    **{f"sweep/{name}": _argv("sweep", *PINNED_SWEEPS[name][0]) for name in ("N/asymptotic", "p_key/finite")},
    "sweep/block/opt": _argv("sweep", *PINNED_SWEEPS["block/opt"][0]),
}


@pytest.mark.parametrize("name", PYTHON_CELL_ARGVS)
def test_rate_and_sweep_cells_are_python_scalars(name):
    # the key-length columns leave numpy through tolist: a numpy scalar
    # would print the same but take the renderer's per-cell path
    for row in command_rows(PYTHON_CELL_ARGVS[name]):
        for column, value in row.items():
            assert type(value) in (str, int, float, bool, type(None)), (column, type(value))


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(float("nan"))
@example(float("inf"))
@example(float("-inf"))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072014e-308)
def test_percent_float_format_equals_format(x):
    assert f"%.{SIGNIFICANT_DIGITS}g" % x == format(x, f".{SIGNIFICANT_DIGITS}g")


def test_cli_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    rate = ["rate", "--set", "protocol.memories=true", "--set", "mc.samples=200"]
    assert main(rate) == EXIT_OK
    first = capsys.readouterr().out
    # a sweep with no sweep keys is a configuration error
    assert main(["sweep", "--set", "network.N=3"]) == EXIT_CONFIG
    with pytest.raises(SystemExit) as version:
        main(["--version"])
    assert version.value.code == 0
    capsys.readouterr()
    assert main(rate) == EXIT_OK
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("setting", ["finite.block_size=nan", "finite.block_size=inf"])
def test_cli_rejects_non_finite_sizes(config_file, capsys, setting):
    assert main(["rate", "--config", config_file, "--set", setting]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err
    assert main(["sweep", "--config", config_file, "--set", setting, "--set", "sweep.parameter=noise.f_D",
                 "--set", "sweep.from=0", "--set", "sweep.to=0.01", "--set", "sweep.steps=2"]) == EXIT_CONFIG


@pytest.mark.parametrize("setting", ["network.d_A_km=nan", "network.d_B_km=inf", "network.d_km=nan"])
def test_cli_rejects_non_finite_distances(capsys, setting):
    assert main(["rate", "--set", setting]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err


MEMORY_SETTINGS = ["network.d_A_km=2", "mc.samples=0", "network.d_A_km=20000", "memory.T2_s=0"]


@pytest.mark.parametrize(
    "command,setting",
    [pytest.param("rate", setting, id=setting) for setting in MEMORY_SETTINGS]
    + [pytest.param("profile", setting, id=f"profile-{setting}") for setting in MEMORY_SETTINGS],
)
def test_cli_memory_settings_are_config_errors(capsys, command, setting):
    # memory yields assume d_A >= d_B; zero samples leave the dephasing
    # undefined; at 20000 km p_a underflows to 0 and no trial ever succeeds;
    # a zero dephasing time leaves no coherence to store
    assert main([command, "--set", setting, "--set", "protocol.memories=true"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --set[1]:1: ")
    assert captured.out == "" and "Traceback" not in captured.err


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
        (["rate", "--set", "network.N=5", "--set", "network.d_A_km=nan"], "error: --set[2]:1: link distances"),
        (["rate", "--set", "noise.f_D=0.01", "--set", "memory.T2_s=nan"], "error: --set[2]:1: dephasing time"),
        (["rate", "--set", "finite.epsilon=1e-3", "--set", "finite.block_size=nan"], "error: --set[2]:1: block_size"),
        (["rate", "--set", "network.N=-1"], "error: --set[1]:1: need at least 2 parties"),
        (["rate", "--set", "network.N=3", "--set", "finite.epsilon=1e-3"], "error: --set[2]:1: finite.* keys need"),
        (["sweep", "--set", "sweep.steps=3", "--set", "sweep.to=3"], "error: --set[1]:1: sweep.* keys need"),
        (["rate", "--set", "mc.seed=-1"], "error: --set[1]:1: mc.seed must be >= 0"),
        (["sweep", "--set", "mc.seed=-1", "--set", "protocol.memories=true"], "error: --set[1]:1: mc.seed"),
        (["rate", "--set", "mc.seed=-2", "--set", "finite.block_size=1e6", "--set", "protocol.p_key=opt"],
         "error: --set[1]:1: mc.seed"),
        pytest.param(["profile", "--set", "network.N=1"], "error: --set[1]:1: need at least 2 parties, got 1",
                     id="profile-n-max"),
        pytest.param(["profile", "--set", "finite.block_size=0.5"],
                     "error: --set[1]:1: block_size must be finite and >= 1", id="profile-block"),
        pytest.param(["profile", "--set", "finite.block_size=1e8", "--set", "finite.epsilon=2"],
                     "error: --set[2]:1: finite.epsilon must lie in [1e-100, 1)", id="profile-epsilon"),
        pytest.param(["profile", "--set", "noise.f_D=2"], "error: --set[1]:1: f_depol must lie in [0, 1]",
                     id="profile-f-depol"),
        pytest.param(["profile", "--set", "mc.seed=-1"], "error: --set[1]:1: mc.seed must be >= 0, got -1",
                     id="profile-seed"),
        pytest.param(["profile", "--set", "protocol.family=bQSS"],
                     "error: --set[1]:1: profile takes one family, mQSS or mCKA, got 'bQSS'",
                     id="profile-bQSS"),
        pytest.param(["profile", "--set", "protocol.family=mQSS,mCKA"],
                     "error: --set[1]:1: profile takes one family, mQSS or mCKA, got 'mQSS,mCKA'",
                     id="profile-two-families"),
        pytest.param(["threshold", "--target", "distance", "--set", "network.N=1"],
                     "error: --set[1]:1: need at least 2 parties, got 1", id="threshold-n"),
        pytest.param(["threshold", "--target", "noise", "--set", "network.d_km=nan"],
                     "error: --set[1]:1: link distances must be finite and >= 0, got nan",
                     id="threshold-d-km-nan"),
        pytest.param(["threshold", "--target", "noise", "--set", "network.d_B_km=-1"],
                     "error: --set[1]:1: link distances must be finite and >= 0, got -1.0",
                     id="threshold-d-b-negative"),
        pytest.param(["threshold", "--target", "distance", "--set", "noise.f_D=2"],
                     "error: --set[1]:1: f_depol must lie in [0, 1], got 2.0", id="threshold-f-depol"),
        pytest.param(["threshold", "--target", "noise", "--set", "protocol.family=bCKA"],
                     "error: --set[1]:1: threshold takes one family, mQSS or mCKA, got 'bCKA'",
                     id="threshold-bCKA"),
        pytest.param(["threshold", "--target", "noise", "--set", "protocol.family=mQSS,mCKA"],
                     "error: --set[1]:1: threshold takes one family, mQSS or mCKA, got 'mQSS,mCKA'",
                     id="threshold-two-families"),
        # each model rule, raised once by the model: a two-key rule blames
        # the same key in either --set order, and a flag names itself
        *(
            pytest.param(["rate", "--set", first, "--set", second],
                         f"error: --set[{index}]:1: {text}", id=f"{rule}-{order}")
            for rule, blamed, other, text in (
                ("memory-short-alice", "network.d_A_km=2", "protocol.memories=true",
                 "memory-assisted networks need d_A_km >= d_B_km"),
                ("memory-no-alice", "network.d_km=20000", "protocol.memories=true",
                 "memory-assisted networks need p_a > 0; d_A_km = 20000 gives 0"),
                ("preshared-mQSS", "protocol.basis_strategy=preshared", "protocol.family=mCKA,mQSS",
                 "mQSS requires active basis switching"),
            )
            for order, (first, second, index) in (("blamed-first", (blamed, other, 1)),
                                                  ("blamed-second", (other, blamed, 2)))
        ),
        pytest.param(["rate", "--set", "protocol.p_key=1.5"],
                     "error: --set[1]:1: protocol.p_key must lie in [0, 1], got 1.5", id="p-key-range"),
        pytest.param(["rate", "--set", "mc.samples=0"],
                     "error: --set[1]:1: mc.samples must be >= 1", id="mc-samples"),
        pytest.param(["threshold", "--target", "noise", "--bracket", "0", "2"],
                     "error: --bracket: f_depol must lie in [0, 1], got 2.0", id="bracket-noise-above-one"),
        pytest.param(["threshold", "--target", "distance", "--bracket", "5", "1"],
                     "error: --bracket: need a finite bracket with lo < hi, got (5.0, 1.0)",
                     id="bracket-reversed"),
        pytest.param(["threshold", "--target", "distance", "--bracket", "-1", "5"],
                     "error: --bracket: link distances must be finite and >= 0, got -1.0",
                     id="bracket-negative-distance"),
        pytest.param(["oracle-check", "--max-n", "1"],
                     "error: --max-n: oracle supports 2 <= N <= 4, got 1", id="oracle-max-n-1"),
        pytest.param(["oracle-check", "--max-n", "5"],
                     "error: --max-n: oracle supports 2 <= N <= 4, got 5", id="oracle-max-n-5"),
        pytest.param(["reproduce", "--figure", "fig2", "--seed", "-1", "--outdir", "/nonexistent/out"],
                     "error: --seed must be >= 0, got -1", id="reproduce-seed"),
        # a sweep point the model rejects: the whole line, blamed on
        # sweep.parameter as a full resolve of the point would blame it
        *(
            pytest.param(_argv("sweep", *settings), f"error: {line}\n", id=f"sweep-point-{name}")
            for name, settings, line in (
                ("one-player", ("sweep.parameter=network.N", "sweep.from=1", "sweep.to=3", "sweep.steps=3"),
                 "--set[1]:1: need at least 2 parties, got 1"),
                ("noise-above-one", ("sweep.parameter=noise.f_D", "sweep.from=0.5", "sweep.to=1.5", "sweep.steps=3"),
                 "--set[1]:1: f_depol must lie in [0, 1], got 1.5"),
                ("p-key-above-one",
                 ("sweep.parameter=protocol.p_key", "sweep.from=0.5", "sweep.to=1.5", "sweep.steps=3"),
                 "--set[1]:1: protocol.p_key must lie in [0, 1], got 1.5"),
                ("block-below-one", ("protocol.family=mQSS", "sweep.parameter=finite.block_size",
                                     "sweep.from=0.5", "sweep.to=10", "sweep.steps=3"),
                 "--set[2]:1: block_size must be finite and >= 1"),
                ("memory-short-alice", ("protocol.memories=true", "sweep.parameter=network.d_A_km",
                                        "sweep.from=10", "sweep.to=1", "sweep.steps=3"),
                 "--set[2]:1: memory-assisted networks need d_A_km >= d_B_km"),
                ("memory-no-alice", ("protocol.memories=true", "sweep.parameter=network.d_km",
                                     "sweep.from=10000", "sweep.to=20000", "sweep.steps=2"),
                 "--set[2]:1: memory-assisted networks need p_a > 0; d_A_km = 20000 gives 0"),
            )
        ),
    ],
)
def test_cli_model_errors_name_the_rejected_key(capsys, argv, message):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "settings,message",
    [
        (["sweep.parameter=network.N", "sweep.from=nan", "sweep.to=3", "sweep.steps=2"],
         "error: --set[2]:1: sweep.from must be finite, got nan"),
        (["sweep.parameter=noise.f_D", "sweep.from=0", "sweep.to=inf", "sweep.steps=2"],
         "error: --set[3]:1: sweep.to must be finite, got inf"),
        (["sweep.parameter=noise.f_D", "sweep.log=true", "sweep.from=0", "sweep.to=0.1", "sweep.steps=2"],
         "error: --set[3]:1: log sweeps need positive endpoints, got sweep.from = 0.0"),
    ],
    ids=["nan-player-count", "inf-noise", "log-from-zero"],
)
def test_cli_sweep_endpoints_must_be_finite(capsys, settings, message):
    # a non-finite endpoint is blamed on its own key, before any point is
    # built: no integer conversion of nan, no numpy warning, no "sweep:0"
    argv = ["sweep"]
    for setting in settings:
        argv += ["--set", setting]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(message) and "sweep:0" not in err


@pytest.mark.parametrize(
    "settings,message",
    [
        (["sweep.parameter=network.N", "sweep.from=2", "sweep.to=3", "sweep.steps=5"],
         "error: --set[4]:1: sweep.steps = 5 repeats network.N values: 2 distinct"),
        (["sweep.parameter=network.N", "sweep.log=true", "sweep.from=2", "sweep.to=30", "sweep.steps=29"],
         "error: --set[5]:1: sweep.steps = 29 repeats network.N values: 20 distinct"),
        (["network.N=3", "sweep.parameter=noise.f_D", "sweep.from=0.01", "sweep.to=0.01", "sweep.steps=3"],
         "error: --set[5]:1: sweep.steps = 3 repeats noise.f_D values: 1 distinct"),
    ],
    ids=["linear-player-count", "log-player-count", "empty-noise-range"],
)
def test_cli_sweep_prints_no_repeated_rows(capsys, settings, message):
    # rounding the grid to whole player counts, or an empty range, must not
    # print one point twice
    argv = ["sweep"]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.out == ""


@pytest.mark.parametrize(
    "settings,message",
    [
        (["sweep.parameter=network.N", "sweep.from=1", "sweep.to=3", "sweep.steps=3"],
         "error: --set[1]:1: need at least 2 parties, got 1"),
        (["network.N=3", "sweep.parameter=noise.f_D", "sweep.from=0", "sweep.to=2", "sweep.steps=3"],
         "error: --set[2]:1: f_depol must lie in [0, 1], got 2.0"),
    ],
    ids=["one-player", "noise-above-one"],
)
def test_cli_sweep_point_errors_name_the_sweep_parameter(capsys, settings, message):
    # a point the model rejects is blamed on the sweep.parameter setting
    argv = ["sweep"]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(message) and "sweep:0" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "--figure", "fig4", "--seed", "-1"],
        ["reproduce", "--figure", "fig2", "--seed", "-5"],
        ["reproduce", "--figure", "all", "--seed", "-1"],
    ],
    ids=["fig4", "fig2", "all"],
)
def test_cli_rejects_a_negative_seed(tmp_path, capsys, argv):
    # rejected before anything runs or is written, as mc.seed < 0 is
    outdir = tmp_path / "out"
    assert main([*argv, "--outdir", str(outdir)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: --seed must be >= 0, got {argv[-1]}\n"
    assert captured.out == "" and not outdir.exists()


NUMERIC_KEYS = sorted(key for key, parse in SCHEMA.items() if type(parse("1")) in (int, float))


# protocol.memories and the p_key settings: the default p_key, or opt at a
# finite block size (the probed key's bad value comes after them)
PROBE_PROTOCOLS = [
    pytest.param(memories, p_key, id=memories + suffix)
    for p_key, suffix in (((), ""), (("protocol.p_key=opt", "finite.block_size=1e6"), "-opt"))
    for memories in ("true", "false")
]


@pytest.mark.parametrize("memories,p_key", PROBE_PROTOCOLS)
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_cli_rate_probe_of_invalid_settings(capsys, key, value, memories, p_key):
    # every numeric setting at a bad value either runs cleanly or is a
    # sourced config error: no traceback, no nan and no -0 in the table
    argv = ["rate", "--set", "mc.samples=50", "--set", f"protocol.memories={memories}"]
    for setting in [*p_key, f"{key}={value}"]:
        argv += ["--set", setting]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_CONFIG:
        assert "--set[" in captured.err
    else:
        cells = [cell for row in _data_rows(captured.out) for cell in row.split(",")]
        assert cells and not any("nan" in cell.lower() or cell == "-0" for cell in cells)


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


def test_cli_reproduce_fig2(tmp_path):
    outdir = tmp_path / "rep"
    assert main(["reproduce", "--figure", "fig2", "--outdir", str(outdir)]) == EXIT_OK
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["MANIFEST_fig2.txt", "fig2_rates_vs_distance.csv"]
    manifest = (outdir / "MANIFEST_fig2.txt").read_text()
    assert "fig2_rates_vs_distance.csv" in manifest


def test_cli_reproduce_takes_every_recipe_and_all(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(reproduce, "run_reproduce", lambda figure, outdir, seed: ran.append(figure))
    outdir = str(tmp_path / "out")
    for figure in reproduce.RECIPES:
        assert main(["reproduce", "--figure", figure, "--outdir", outdir]) == EXIT_OK
        assert ran.pop() == figure and not ran
    assert main(["reproduce", "--figure", "all", "--outdir", outdir]) == EXIT_OK
    assert ran == list(reproduce.RECIPES)
    ran.clear()
    assert main(["reproduce", "--figure", "fig9", "--outdir", outdir]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --figure: unknown figure 'fig9'")
    assert captured.out == "" and not ran


PROFILE_SETTINGS = [
    # fig7: d_A = 50 km, d_B = 4 km, N up to 20, finite blocks
    *(
        (memories, 50.0, 20, block, task)
        for memories in (True, False)
        for block in (1e6, 1e8, 1e10)
        for task in ("QSS", "CKA")
    ),
    # fig4: asymptotic, N up to 25
    *((memories, d_a, 25, None, "QSS") for d_a in (30.0, 50.0) for memories in (True, False)),
]


@pytest.mark.parametrize("memories,d_a,n_max,block,task", PROFILE_SETTINGS)
def test_cli_profile_cells_equal_advantage_profile(capsys, memories, d_a, n_max, block, task):
    settings = [f"network.N={n_max}", f"network.d_A_km={d_a}", f"protocol.memories={memories}",
                f"protocol.family=m{task}", "mc.seed=1"]
    if block is not None:
        settings.append(f"finite.block_size={block}")
    assert main(_argv("profile", *settings)) == EXIT_OK
    rows = [row.split(",") for row in _data_rows(capsys.readouterr().out)]
    fsp = None if block is None else FiniteSizeParams(epsilon=1e-10, block_size=block)
    noise = NoiseParams(0.01, t2_s=1.0, prep_time_s=2e-6)
    profile = advantage_profile(
        NetworkConfig(2, d_a, 4.0), noise, n_max, memories=memories, fsp=fsp, task=task, seed=1
    )
    expected = [
        [
            format_cell(value)
            for value in (
                row.n_parties, row.multi_rate, row.bi_rate, row.ratio, row.status,
                profile.max_n_linear is not None and row.n_parties <= profile.max_n_linear,
                profile.max_n_advantage is not None and row.n_parties <= profile.max_n_advantage,
            )
        ]
        for row in profile.rows
    ]
    assert rows == expected
    # each extent is the last row its column marks
    for column, extent in ((5, profile.max_n_linear), (6, profile.max_n_advantage)):
        marked = [int(row[0]) for row in rows if row[column] == "true"]
        assert (marked[-1] if marked else None) == extent


def test_cli_oracle_check_fast(capsys):
    code = main(["oracle-check", "--max-n", "2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "oracle-check: PASS" in out
    assert "all-bobs" in out


def test_cli_oracle_check_takes_no_seed(capsys):
    # the sifting rows are an exact count and the parity rows use a fixed
    # seed, so nothing in oracle-check is left to seed
    with pytest.raises(SystemExit) as exited:
        main(["oracle-check", "--seed", "1"])
    assert exited.value.code == EXIT_CONFIG


def test_cli_oracle_check_guards(capsys):
    assert main(["oracle-check", "--max-n", "5"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --max-n: oracle supports 2 <= N <= 4, got 5\n"
    assert main(["oracle-check", "--max-n", "4"]) == EXIT_CONFIG
    assert "--widen-guard" in capsys.readouterr().err
    assert main(["oracle-check", "--max-n", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --max-n: oracle supports 2 <= N <= 4, got 1\n"


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


def test_cli_import_leaves_the_recipes_and_numpy_ma_unloaded():
    # what a fresh `ghznet` process imports before it parses its arguments:
    # the recipes load with `reproduce` only, and numpy.ma, which np.unique
    # pulls in, stays out of start-up
    src = str(Path(ghznet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ghznet.cli; print(*(m for m in ('ghznet.reproduce', 'numpy.ma') if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""

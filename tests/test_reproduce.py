import ast
import contextlib
import csv
import hashlib
import io
import re
from pathlib import Path

import pytest

from ghznet import reproduce
from ghznet.cli import main
from ghznet.reproduce import BLOCK_GRID, RECIPES, run_reproduce

# sha256 of every table `run_reproduce` writes at seed 1.  A change that
# moves an output on purpose re-pins the affected digests and says why.
PINNED_DIGESTS = {
    "fig2_rates_vs_distance.csv": "42c69801f24235eadde2a6a512fdd0295618192c99c763128620f41e44dfbb9a",
    "fig3_distance_thresholds.csv": "db995b125e2c4b5272ec485ff6dd517222bb15c61df6fb0bcce653481dd5963f",
    "fig3_noise_thresholds.csv": "c6ec2d1ddad7d0f23e42f1bada7f6a5ac3fe559770010907691075dfc73264ee",
    "fig4_advantage_profiles.csv": "a9026786e9f2e83da3be0719703833799a620700fc55d5d9c36327592e11f4f8",
    "fig5_blocksize.csv": "c2fecf58f7aa0c8e9619032e1ea22eace414ddab6e6b843ff82b8260752418d0",
    "fig6_distance_thresholds_cka.csv": "2019c3ede9bc445ac6d6c7477d2b60bca18d98426b668403c894ee416e197a22",
    "fig6_distance_thresholds_qss.csv": "d3806c42c7e64246c9f6217724aff8eb54702d14f6f04127745f44f74c4e0cfd",
    "fig6_noise_thresholds_cka.csv": "8e295b0e4c289773a66d661dc2ec214b4b0b7e0159f5061c2e5475bd9d4c4b86",
    "fig6_noise_thresholds_qss.csv": "41213e4fadf33a09ec917a13960eef2cf972c99af380411a76a75bd0fea4be63",
    "fig7_player_scaling.csv": "9e59987d7caf5372b58f0834155ab6b4c9fdc54fce881be5acb564f20fac2b2d",
    "figC1_blocksize_full.csv": "a756df479576e9ec168b2ab58e17fb0957e3ce3e8b6c1360bcd700f7d3e5bb19",
    "figC2_optimal_pkey.csv": "8e4d5661fc2654f66859acc1ce70afe5aa432e10838dea6820a6b09581e4eb71",
}


def _read_table(path):
    text = path.read_text()
    data = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    return list(csv.DictReader(io.StringIO(data)))


def _header(path):
    """The `# key = value` lines of a table, as a dict."""
    lines = (l[2:].split(" = ", 1) for l in path.read_text().splitlines() if l.startswith("# "))
    return dict(lines)


def _printed(*argv):
    """The rows, as text, that `ghznet <argv>` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return list(csv.DictReader(l for l in out.getvalue().splitlines() if not l.startswith("#")))


def _set(settings):
    """The --set arguments of a {key: value} dict."""
    return [arg for key, value in settings.items() for arg in ("--set", f"{key}={value}")]


def test_fig2_tables(tmp_path):
    files = run_reproduce("fig2", str(tmp_path))
    assert files == ["fig2_rates_vs_distance.csv"]
    rows = _read_table(tmp_path / files[0])
    assert len(rows) == 81
    first = rows[0]
    # at zero distance every protocol family still pays its noise penalty
    assert float(first["d_km"]) == 0.0
    assert 0.0 < float(first["mQSS_N3"]) < 1.0
    # rates fall with distance
    assert float(rows[-1]["mQSS_N3"]) < float(first["mQSS_N3"])


def test_fig3_distance_table_hits_analytic_anchor(tmp_path):
    files = run_reproduce("fig3", str(tmp_path))
    rows = _read_table(tmp_path / "fig3_distance_thresholds.csv")
    noiseless_n3 = [
        r for r in rows if r["f_depol"] == "0" and r["n_parties"] == "3"
    ][0]
    assert float(noiseless_n3["d_km_threshold"]) == pytest.approx(15.0515, abs=1e-3)


def test_fig5_conference_key_dominates_secret_sharing(tmp_path):
    files = run_reproduce("fig5", str(tmp_path), seed=3)
    rows = _read_table(tmp_path / files[0])
    saw_preshared = False
    for row in rows:
        qss = float(row["mQSS"])
        cka = float(row["mCKA"])
        assert cka >= qss - 1e-15
        if row["mCKA_strategy"] == "preshared":
            saw_preshared = True
            assert cka > qss
        else:
            assert cka == pytest.approx(qss, rel=1e-12)
    assert saw_preshared
    # fractions grow with block size toward the asymptote
    fractions = [float(r["mQSS"]) for r in rows if float(r["mQSS"]) > 0]
    assert fractions == sorted(fractions)
    assert fractions[-1] < float(rows[-1]["asymptote_multi"])


def test_block_size_figures_agree(tmp_path):
    for figure in ("fig5", "figC1", "figC2"):
        run_reproduce(figure, str(tmp_path))
    fig5 = _read_table(tmp_path / "fig5_blocksize.csv")
    full = _read_table(tmp_path / "figC1_blocksize_full.csv")
    pkey = _read_table(tmp_path / "figC2_optimal_pkey.csv")
    assert len(fig5) == len(full) == len(pkey) == 17
    # both write an indeterminate link optimum as an empty cell
    assert any(row["p_key_b_preshared"] == "" for row in full)
    for row5, row_full, row_pkey in zip(fig5, full, pkey):
        assert row5["block_size"] == row_full["block_size"] == row_pkey["block_size"]
        assert row_pkey["p_key_mQSS"] == row_full["p_key_mQSS"]
        for short, long in (("bCKA", "b_preshared"), ("bQSS", "b_switching")):
            assert row_pkey[f"p_key_{short}"] == row_full[f"p_key_{long}"]
        best = max(float(row_full["b_preshared"]), float(row_full["b_switching"]))
        assert float(row5["bipartite_optimal"]) == best


@pytest.fixture(scope="module")
def figures(tmp_path_factory):
    """Every figure at seed 1, one run_reproduce call each, into one
    directory; returns the directory and the table names written."""
    outdir = tmp_path_factory.mktemp("figures")
    written = []
    for figure in RECIPES:
        written += run_reproduce(figure, str(outdir))
    return outdir, written


def test_reproduce_tables_are_pinned(figures):
    outdir, written = figures
    assert sorted(written) == sorted(PINNED_DIGESTS)
    changed = [
        name
        for name in written
        if hashlib.sha256((outdir / name).read_bytes()).hexdigest() != PINNED_DIGESTS[name]
    ]
    assert not changed, f"reproduce tables differ from their pinned digests: {changed}"


def test_reproduce_tables_have_no_nan_inf_or_negative_zero(figures):
    # an undefined value is an empty cell; `--figure all` writes these same
    # files (test_reproduce_all_writes_what_single_figures_write)
    outdir, written = figures
    bad = re.compile(r"[+-]?(nan|inf(inity)?)|-0(\.0*)?(e[+-]?\d+)?", re.I)
    found = [
        (name, row[0], cell)
        for name in written
        for row in csv.reader(
            l for l in (outdir / name).read_text().splitlines() if not l.startswith("#")
        )
        for cell in row
        if bad.fullmatch(cell)
    ]
    assert found == []


def test_reproduce_all_writes_what_single_figures_write(figures, tmp_path):
    outdir, _ = figures
    assert main(["reproduce", "--figure", "all", "--outdir", str(tmp_path)]) == 0
    names = sorted(path.name for path in outdir.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    assert len([name for name in names if name.startswith("MANIFEST_")]) == len(RECIPES)
    for name in names:
        assert (tmp_path / name).read_bytes() == (outdir / name).read_bytes(), name


def test_finite_thresholds_recover_their_asymptotes(figures):
    # at a 1e10 block every fig6 threshold lies within 5% of its asymptotic
    # fig3 value; the asymptotic CKA and QSS thresholds coincide
    outdir, _ = figures
    noise = {row["n_parties"]: row for row in _read_table(outdir / "fig3_noise_thresholds.csv")}
    distance = {
        row["n_parties"]: row
        for row in _read_table(outdir / "fig3_distance_thresholds.csv")
        if row["f_depol"] == "0.01"
    }
    checked = 0
    for panel, asymptotic, column in (
        ("noise", noise, "f_depol_threshold"),
        ("distance", distance, "d_km_threshold"),
    ):
        for task in ("qss", "cka"):
            for row in _read_table(outdir / f"fig6_{panel}_thresholds_{task}.csv"):
                if float(row["block_size"]) != 1e10:
                    continue
                reference = asymptotic[row["n_parties"]]
                assert row["status"] == reference["status"] == "ok"
                value, limit = float(row[column]), float(reference[column])
                assert abs(value - limit) <= 0.05 * limit, (panel, task, row["n_parties"])
                checked += 1
    assert checked == 4 * 6


def test_manifest_lists_tables(tmp_path):
    files = run_reproduce("fig2", str(tmp_path), seed=5)
    manifest = (tmp_path / "MANIFEST_fig2.txt").read_text()
    assert "seed: 5" in manifest
    for name in files:
        assert name in manifest


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_reproduce("fig99", str(tmp_path))


# every threshold table: file -> (target, threshold column)
THRESHOLD_TABLES = {
    "fig3_noise_thresholds.csv": ("noise", "f_depol_threshold"),
    "fig3_distance_thresholds.csv": ("distance", "d_km_threshold"),
    **{
        f"fig6_{target}_thresholds_{task}.csv": (target, column)
        for target, column in (("noise", "f_depol_threshold"), ("distance", "d_km_threshold"))
        for task in ("qss", "cka")
    },
}


def test_threshold_cells_are_what_the_threshold_command_prints(figures):
    # each row's query, read from the row and its table's header, put to
    # `ghznet threshold` with its default bracket and tolerance
    outdir, _ = figures
    differ, checked = [], 0
    for name, (target, column) in THRESHOLD_TABLES.items():
        header = _header(outdir / name)
        for row in _read_table(outdir / name):
            settings = {"network.N": row["n_parties"]}
            if target == "noise":
                settings["network.d_km"] = header["param.fixed_d_km"]
            else:
                settings["noise.f_D"] = row.get("f_depol", header.get("param.fixed_f_depol"))
            if "task" in row:
                settings["protocol.family"] = f"m{row['task']}"
                settings["finite.block_size"] = row["block_size"]
                settings["finite.epsilon"] = header["param.epsilon"]
            (printed,) = _printed("threshold", "--target", target, *_set(settings))
            if (printed["threshold"], printed["status"]) != (row[column], row["status"]):
                differ.append((name, settings, row[column], printed["threshold"]))
            checked += 1
    assert checked == 96
    assert differ == []


def test_player_and_distance_cells_are_command_rows(figures):
    outdir, _ = figures
    # fig2 at 5 km and N = 4: the first point of a sweep from 5 km
    fig2 = _read_table(outdir / "fig2_rates_vs_distance.csv")[20]
    sweep = {
        "network.N": 4, "noise.f_D": 0.02, "protocol.family": "mQSS,bQSS",
        "sweep.parameter": "network.d_km", "sweep.from": 5, "sweep.to": 20, "sweep.steps": 2,
    }
    multi, bi, *_ = _printed("sweep", *_set(sweep))
    assert fig2["d_km"] == "5" and multi["network.d_km"] == "5.0"
    assert (fig2["mQSS_N4"], fig2["bQSS_N4"]) == (multi["rate"], bi["rate"])
    # fig4 at d_A = 30 km with memories, N = 10 of a profile up to 10
    fig4 = next(
        row for row in _read_table(outdir / "fig4_advantage_profiles.csv")
        if (row["d_a_km"], row["n_parties"]) == ("30", "10")
    )
    *_, profile = _printed("profile", *_set({"network.N": 10, "network.d_A_km": 30, "protocol.memories": "true"}))
    assert profile["n_parties"] == "10"
    cells = [fig4["ratio_memory"], fig4["rate_multi_memory"], fig4["rate_bi_memory"]]
    assert cells == [profile["ratio"], profile["multi_rate"], profile["bi_rate"]]
    # fig7 without memories at a 1e8 block, conference keys, N = 5
    fig7 = next(
        row for row in _read_table(outdir / "fig7_player_scaling.csv")
        if (row["memories"], row["block_size"], row["task"], row["n_parties"]) == ("false", "100000000", "CKA", "5")
    )
    *_, profile = _printed("profile", *_set({"network.N": 5, "finite.block_size": 1e8, "protocol.family": "mCKA"}))
    cells = [fig7["multi_fraction"], fig7["bi_fraction"], fig7["ratio"], fig7["status"]]
    assert cells == [profile["multi_rate"], profile["bi_rate"], profile["ratio"], profile["status"]]


def test_reproduce_all_sweeps_the_blocks_once(monkeypatch, tmp_path):
    # fig5, figC1 and figC2 project one block sweep: `--figure all`
    # optimises mQSS once per block, not once per figure.  Seed 13 is one
    # no other test computes, so the sweep starts uncomputed
    optimized = []
    real = reproduce.optimized_fraction

    def counting(*args, **kwargs):
        optimized.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(reproduce, "optimized_fraction", counting)
    assert main(["reproduce", "--figure", "all", "--outdir", str(tmp_path), "--seed", "13"]) == 0
    sweeps = len(optimized) / len(BLOCK_GRID)
    assert sweeps == 1


def test_recipes_search_and_profile_only_through_the_commands():
    # the threshold and profile numbers have one code path, the commands'
    banned = {"find_threshold", "ThresholdQuery", "advantage_profile", "memoryless_qber"}
    tree = ast.parse(Path(reproduce.__file__).read_text(encoding="utf-8"))
    used = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert used & banned == set()

import csv
import hashlib
import io
import re

import pytest

from ghznet.cli import main
from ghznet.reproduce import RECIPES, run_reproduce

# sha256 of every table `run_reproduce` writes at seed 1.  A change that
# moves an output on purpose re-pins the affected digests and says why.
PINNED_DIGESTS = {
    "fig2_rates_vs_distance.csv": "42c69801f24235eadde2a6a512fdd0295618192c99c763128620f41e44dfbb9a",
    "fig3_distance_thresholds.csv": "1acda4216ed150557af343a148cd3c2ca0309aec7eaa46f697c2882137cc5e9e",
    "fig3_noise_thresholds.csv": "8396ac2556140e1b85e61d2b81b8c9e8589187e07835f11db5d1428a244cbcff",
    "fig4_advantage_profiles.csv": "a9026786e9f2e83da3be0719703833799a620700fc55d5d9c36327592e11f4f8",
    "fig5_blocksize.csv": "c2fecf58f7aa0c8e9619032e1ea22eace414ddab6e6b843ff82b8260752418d0",
    "fig6_distance_thresholds_cka.csv": "740543e245f66f6d186bd3015b1cbb3caae7c50725f83dc5cfb211f128d49754",
    "fig6_distance_thresholds_qss.csv": "db648126c90d170fc62b77d443b22e40c98a33a467f02e5763bf1a7a1338a36b",
    "fig6_noise_thresholds_cka.csv": "e8536966c616a6619def05f3ebd1549078430e8a27ae40e9c107df7279b03bc0",
    "fig6_noise_thresholds_qss.csv": "455f34282cc0026fb8a48da6c9bfc72cef70249ecd764059e8963c6aa40530b7",
    "fig7_player_scaling.csv": "9e59987d7caf5372b58f0834155ab6b4c9fdc54fce881be5acb564f20fac2b2d",
    "figC1_blocksize_full.csv": "a756df479576e9ec168b2ab58e17fb0957e3ce3e8b6c1360bcd700f7d3e5bb19",
    "figC2_optimal_pkey.csv": "8e4d5661fc2654f66859acc1ce70afe5aa432e10838dea6820a6b09581e4eb71",
}


def _read_table(path):
    text = path.read_text()
    data = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    return list(csv.DictReader(io.StringIO(data)))


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

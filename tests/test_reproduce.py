import csv
import hashlib
import io

import pytest

from ghznet.reproduce import RECIPES, run_reproduce

# sha256 of every table `run_reproduce` writes at seed 1.  A change that
# moves an output on purpose re-pins the affected digests and says why.
PINNED_DIGESTS = {
    "fig2_rates_vs_distance.csv": "42c69801f24235eadde2a6a512fdd0295618192c99c763128620f41e44dfbb9a",
    "fig3_distance_thresholds.csv": "3297b9ef381937f57fc29b5f8d737ba40d528f98de6ee8d186972a28d3f0f7cd",
    "fig3_noise_thresholds.csv": "fd996a3550ccf32acddec1dc7be2ba92c9e5bba81fdca7a439211ce9edadc317",
    "fig4_advantage_profiles.csv": "a9026786e9f2e83da3be0719703833799a620700fc55d5d9c36327592e11f4f8",
    "fig5_blocksize.csv": "c2fecf58f7aa0c8e9619032e1ea22eace414ddab6e6b843ff82b8260752418d0",
    "fig6_distance_thresholds_cka.csv": "d747217cb4cf0e1cae110572934b9f758138a8265b9731e2006528613c748e51",
    "fig6_distance_thresholds_qss.csv": "b9c0ce1dec19ff5f9de5c70d8e8f5d7b62ee05992382bc4dfb7927b0914486c6",
    "fig6_noise_thresholds_cka.csv": "840eb79bec68499094f149f99eeb42633592857a3ad29d07761781e310425b95",
    "fig6_noise_thresholds_qss.csv": "0595cf6b92a85c102208aa74ff1548397fabfb6723ed8356c5cf274d378a2d03",
    "fig7_player_scaling.csv": "9e59987d7caf5372b58f0834155ab6b4c9fdc54fce881be5acb564f20fac2b2d",
    "figC1_blocksize_full.csv": "dcfb1188c164cdeebb718ce1d27dd6125ef579028e0b6312b0e864853fe30be2",
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
    assert any(row["p_key_b_preshared"] == "nan" for row in full)
    for row5, row_full, row_pkey in zip(fig5, full, pkey):
        assert row5["block_size"] == row_full["block_size"] == row_pkey["block_size"]
        assert row_pkey["p_key_mQSS"] == row_full["p_key_mQSS"]
        # figC1 writes an indeterminate link optimum as nan, figC2 as an empty cell
        for short, long in (("bCKA", "b_preshared"), ("bQSS", "b_switching")):
            p_full = row_full[f"p_key_{long}"]
            assert row_pkey[f"p_key_{short}"] == ("" if p_full == "nan" else p_full)
        best = max(float(row_full["b_preshared"]), float(row_full["b_switching"]))
        assert float(row5["bipartite_optimal"]) == best


def test_reproduce_tables_are_pinned(tmp_path):
    written = []
    for figure in RECIPES:
        written += run_reproduce(figure, str(tmp_path))
    assert sorted(written) == sorted(PINNED_DIGESTS)
    changed = [
        name
        for name in written
        if hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() != PINNED_DIGESTS[name]
    ]
    assert not changed, f"reproduce tables differ from their pinned digests: {changed}"


def test_manifest_lists_tables(tmp_path):
    files = run_reproduce("fig2", str(tmp_path), seed=5)
    manifest = (tmp_path / "MANIFEST_fig2.txt").read_text()
    assert "seed: 5" in manifest
    for name in files:
        assert name in manifest


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_reproduce("fig99", str(tmp_path))

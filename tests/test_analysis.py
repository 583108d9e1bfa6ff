import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ghznet
from ghznet import analysis
from ghznet.analysis import (
    TASK_FAMILIES,
    ThresholdQuery,
    _gap,
    advantage_profile,
    best_cka_fraction,
    find_threshold,
    multi_models,
    optimized_fraction,
    scenario_qbers,
)
from ghznet.finite import (
    BestFraction,
    FiniteSizeParams,
    KeyLengthModel,
    best_link,
    bipartite_models,
    bipartite_optimal,
)
from ghznet.network import Family, NetworkConfig, ProtocolSpec
from ghznet.noise import NoiseParams, memoryless_qber
from ghznet.optimize import UNIT_GRID, maximize_unit_interval
from ghznet.rates import asymptotic_rate
from ghznet.reproduce import run_reproduce


def test_noiseless_distance_thresholds():
    res3 = find_threshold(ThresholdQuery("distance", 3, fixed_noise=0.0), (1.0, 30.0))
    res4 = find_threshold(ThresholdQuery("distance", 4, fixed_noise=0.0), (1.0, 30.0))
    assert res3.value == pytest.approx(15.0515, abs=1e-3)
    assert res4.value == pytest.approx(25.0 * math.log10(3.0), abs=1e-3)


def test_threshold_gap_refinement():
    query = ThresholdQuery("distance", 3, fixed_noise=0.0)
    res = find_threshold(query, (1.0, 30.0), xtol=1e-12)
    cfg = NetworkConfig.make_symmetric(3, res.value)
    multi = asymptotic_rate(cfg, ProtocolSpec(Family.MQSS), memoryless_qber(0.0, 3))
    bi = asymptotic_rate(cfg, ProtocolSpec(Family.BQSS), memoryless_qber(0.0, 2))
    assert abs(multi.raw - bi.raw) < 1e-9 * max(multi.raw, bi.raw)


def test_noise_threshold_matches_grid_scan():
    query = ThresholdQuery("noise", 3, fixed_distance_km=0.0)
    res = find_threshold(query, (1e-9, 0.5), xtol=1e-8)
    grid = np.linspace(1e-6, 0.2, 4001)

    def gap(f):
        cfg = NetworkConfig.make_symmetric(3, 0.0)
        multi = asymptotic_rate(cfg, ProtocolSpec(Family.MQSS), memoryless_qber(f, 3))
        bi = asymptotic_rate(cfg, ProtocolSpec(Family.BQSS), memoryless_qber(f, 2))
        return multi.raw - bi.raw

    values = np.array([gap(f) for f in grid])
    crossing = grid[np.argmax(values < 0.0)]
    assert res.value == pytest.approx(crossing, abs=grid[1] - grid[0])


def test_threshold_requires_sign_change():
    res = find_threshold(ThresholdQuery("distance", 3, fixed_noise=0.0), (1.0, 5.0))
    assert res.value is None
    assert res.status == "no-sign-change"


def test_threshold_query_validation():
    with pytest.raises(ValueError):
        ThresholdQuery("noise", 3)
    with pytest.raises(ValueError):
        ThresholdQuery("frequency", 3, fixed_noise=0.0)


def test_finite_noise_threshold_below_asymptotic():
    asym = find_threshold(
        ThresholdQuery("noise", 3, fixed_distance_km=4.0), (1e-9, 0.5), xtol=1e-6
    )
    finite = find_threshold(
        ThresholdQuery("noise", 3, fixed_distance_km=4.0, block_size=1e8),
        (1e-9, 0.5),
        xtol=1e-6,
    )
    assert finite.value < asym.value
    assert finite.value > 0.5 * asym.value


def test_finite_cka_threshold_at_least_qss():
    # conference keys can fall back to the switching protocol, so their
    # noise tolerance is never below the secret-sharing one
    qss = find_threshold(
        ThresholdQuery("noise", 3, fixed_distance_km=4.0, task="QSS", block_size=1e10),
        (1e-9, 0.5),
        xtol=1e-6,
    )
    cka = find_threshold(
        ThresholdQuery("noise", 3, fixed_distance_km=4.0, task="CKA", block_size=1e10),
        (1e-9, 0.5),
        xtol=1e-6,
    )
    assert cka.value >= qss.value - 1e-6
    assert cka.value > qss.value + 1e-4  # pre-shared key helps at this block size


# fig6's brackets and tolerance, those of `ghznet threshold`, with scanned
# values from end to end: the noise end 0.5 and the long distances leave
# both sides dead, and the bracket ends show where a query has no sign change
FIG6_SCANS = {
    "noise": ((1e-9, 0.5), 1e-6, (1e-9, 1e-4, 2e-3, 0.01, 0.02, 0.04, 0.07, 0.1, 0.15, 0.25, 0.5)),
    "distance": ((1e-3, 60.0), 1e-6, (1e-3, 0.5, 2.0, 5.0, 8.0, 12.0, 16.0, 20.0, 25.0, 30.0, 40.0, 50.0, 60.0)),
}


def _eager_multi(cfg, task, fsp, qbers, memories=False):
    # the task's best multipartite fraction, every p_key refined
    if task == "CKA":
        _, multi, _ = best_cka_fraction(cfg, fsp, qbers, memories)
    else:
        _, multi = optimized_fraction(cfg, Family.MQSS, fsp, qbers, memories)
    return multi.secret_fraction


def _fully_optimized(query, x):
    # every p_key refined on both sides, through the public entry points
    distance = x if query.target == "distance" else query.fixed_distance_km
    f_depol = x if query.target == "noise" else query.fixed_noise
    cfg = NetworkConfig.make_symmetric(query.n_parties, distance)
    fsp = FiniteSizeParams(epsilon=query.epsilon, block_size=query.block_size)
    multi = _eager_multi(cfg, query.task, fsp, memoryless_qber(f_depol, query.n_parties))
    bi = bipartite_optimal(cfg, NoiseParams(f_depol=f_depol), fsp)
    return multi, bi.result.secret_fraction


@pytest.mark.parametrize("target", sorted(FIG6_SCANS))
@pytest.mark.parametrize("task", ["QSS", "CKA"])
def test_bound_decided_verdict_matches_full_optimization(task, target):
    # the gap from one stacked grid is the fully optimised multi - bi, so
    # its sign is the fully optimised verdict
    bracket, xtol, xs = FIG6_SCANS[target]
    fixed = {"fixed_distance_km": 4.0} if target == "noise" else {"fixed_noise": 0.01}
    verdicts, statuses = set(), set()
    for n in (2, 3, 5, 10):
        for block in (1e4, 1e6, 1e8, 1e10):
            query = ThresholdQuery(target, n, task=task, block_size=block, **fixed)
            gap = _gap(query)
            scan = list(xs)
            res = find_threshold(query, bracket, xtol=xtol)
            statuses.add(res.status)
            if res.value is not None:
                # the verdict flips between these, where the two sides are closest
                scan += [res.value - xtol, res.value, res.value + xtol]
            for x in scan:
                multi, bi = _fully_optimized(query, x)
                value = gap(x)
                assert value == multi - bi, (n, block, x, multi, bi)
                assert (value > 0.0) == (multi > bi), (n, block, x, multi, bi)
                verdicts.add("both-dead" if multi == bi == 0.0 else multi > bi)
    assert statuses == {"ok", "no-sign-change"}
    # no block leaves both sides dead within 60 km at 1% noise
    assert verdicts == ({True, False, "both-dead"} if target == "noise" else {True, False})


@pytest.mark.parametrize("task", ["QSS", "CKA"])
def test_dead_sides_keep_the_half_evaluation(task):
    # a side whose every model is dead reports one fallback model at
    # p_key = 1/2; its value must be what the best of the multipartite
    # models at 1/2 and the memoryless bQSS link at 1/2 gave before
    dead = set()
    for n in (2, 3, 5, 10):
        for block in (1e4, 1e6, 1e8, 1e10):
            fsp = FiniteSizeParams(epsilon=1e-10, block_size=block)
            fsp_link = FiniteSizeParams(epsilon=1e-10 / (n - 1), block_size=block)
            for target, (_, _, xs) in FIG6_SCANS.items():
                for x in xs:
                    distance, f_depol = (4.0, x) if target == "noise" else (x, 0.01)
                    cfg = NetworkConfig.make_symmetric(n, distance)
                    qb_bi = memoryless_qber(f_depol, 2)
                    multi = BestFraction(multi_models(cfg, task, fsp, memoryless_qber(f_depol, n)))
                    bi = best_link(bipartite_models(cfg, fsp, [(False, qb_bi)]))
                    if all(opt.indeterminate for opt in multi.optima):
                        dead.add(("multi", target))
                        half = max(model.result(0.5).secret_fraction for model in multi.models)
                        assert multi.exact() == half == 0.0
                        assert multi.result().secret_fraction == half
                    if all(opt.indeterminate for opt in bi.optima):
                        dead.add(("bi", target))
                        link = KeyLengthModel(cfg, Family.BQSS, fsp_link, qb_bi).result(0.5)
                        assert bi.exact() == link.secret_fraction == 0.0
                        assert bi.result() == link
    # at 1% noise every distance up to 40 km leaves both sides a live model
    assert dead == {("multi", "noise"), ("bi", "noise")}


def test_grid_peak_bounds_the_refined_maximum():
    def hump(p):
        return np.maximum(0.0, 0.3 - (p - 0.6180339) ** 2)

    values = hump(UNIT_GRID)
    bound = hump(float(UNIT_GRID[values.argmax()]))
    assert maximize_unit_interval(hump, values).value >= bound
    # a peak that golden-section refinement cannot find keeps its grid point
    peak = float(UNIT_GRID[200])

    def spike(p):
        return 1.0 if p == peak else 0.5

    best = maximize_unit_interval(spike, np.where(UNIT_GRID == peak, 1.0, 0.5))
    assert (best.x, best.value, best.indeterminate) == (peak, 1.0, False)
    assert maximize_unit_interval(hump, np.zeros_like(UNIT_GRID)).indeterminate


def test_optimize_pkey_grid_guarantee():
    # the refined optimum can never undercut the coarse grid
    def spiky(p):
        return np.maximum(0.0, 1.0 - 400.0 * (p - 0.731) ** 2)

    best = maximize_unit_interval(spiky, spiky(UNIT_GRID))
    assert not best.indeterminate
    assert best.value >= spiky(0.731) - 1e-6
    assert best.x == pytest.approx(0.731, abs=1e-4)


def test_optimize_pkey_flags_dead_objective():
    best = maximize_unit_interval(lambda p: 0.0, np.zeros_like(UNIT_GRID))
    assert best.indeterminate
    assert best.value == 0.0
    assert math.isnan(best.x)


def test_optimize_pkey_near_boundary_optimum():
    def near_one(p):
        return np.maximum(0.0, 1.0 - np.abs(np.log(np.maximum(1.0 - p, 1e-300)) + math.log(1e4)))

    best = maximize_unit_interval(near_one, near_one(UNIT_GRID))
    assert best.x == pytest.approx(1.0 - 1e-4, rel=1e-2)


def test_optimal_pkey_approaches_one_for_large_blocks():
    cfg = NetworkConfig(3, 50.0, 4.0)
    qb = memoryless_qber(0.01, 3)
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=1e12)
    opt, _ = optimized_fraction(cfg, Family.MQSS, fsp, qb)
    assert opt.x > 0.99


def test_conference_key_strategy_structure():
    # trusted players can always fall back to the switching protocol, so the
    # best conference rate coincides with secret sharing at small blocks and
    # rises above it once the pre-shared basis string pays off
    from ghznet.analysis import best_cka_fraction
    from ghznet.network import BasisStrategy

    cfg = NetworkConfig(3, 50.0, 4.0)
    noise = NoiseParams(0.01, t2_s=1.0, prep_time_s=2e-6)
    qb = scenario_qbers(cfg, ProtocolSpec(Family.MQSS, memories=True), noise, 1000, 1)
    for exponent, expect in ((5, BasisStrategy.SWITCHING), (12, BasisStrategy.PRESHARED)):
        fsp = FiniteSizeParams(epsilon=1e-10, block_size=10.0**exponent)
        _, res_qss = optimized_fraction(cfg, Family.MQSS, fsp, qb, memories=True)
        _, res_cka, strategy = best_cka_fraction(cfg, fsp, qb, memories=True)
        assert strategy is expect
        assert res_cka.secret_fraction >= res_qss.secret_fraction - 1e-15
        if expect is BasisStrategy.SWITCHING:
            assert res_cka.secret_fraction == pytest.approx(
                res_qss.secret_fraction, rel=1e-12
            )


def test_scenario_qbers_dispatch():
    cfg = NetworkConfig(4, 50.0, 4.0)
    noise = NoiseParams(0.01, t2_s=1.0, prep_time_s=2e-6)
    plain = scenario_qbers(cfg, ProtocolSpec(Family.MQSS), noise)
    assert plain == memoryless_qber(0.01, 4)
    bi = scenario_qbers(cfg, ProtocolSpec(Family.BQSS), noise)
    assert bi == memoryless_qber(0.01, 2)
    mem = scenario_qbers(cfg, ProtocolSpec(Family.MQSS, memories=True), noise, 500, 3)
    again = scenario_qbers(cfg, ProtocolSpec(Family.MQSS, memories=True), noise, 500, 3)
    assert mem == again
    assert mem.q_x > plain.q_x - 0.01


MEMO_BASE = {"N": 3, "d_A": 50.0, "d_B": 4.0, "f_D": 0.01, "T2": 1.0, "Tp": 2e-6, "samples": 200, "seed": 7}


def _memo_qbers(N, d_A, d_B, f_D, T2, Tp, samples, seed):
    cfg = NetworkConfig(N, d_A, d_B)
    noise = NoiseParams(f_D, t2_s=T2, prep_time_s=Tp)
    return scenario_qbers(cfg, ProtocolSpec(Family.MQSS, memories=True), noise, samples, seed)


@pytest.mark.parametrize(
    "key, value",
    [("N", 4), ("d_A", 60.0), ("d_B", 5.0), ("f_D", 0.02), ("T2", 2.0), ("Tp", 3e-6), ("samples", 201), ("seed", 8)],
)
def test_memory_draw_memo_keys_on_every_input(memory_draws, key, value):
    base = _memo_qbers(**MEMO_BASE)
    assert len(memory_draws) == 1
    assert _memo_qbers(**MEMO_BASE) is base
    assert len(memory_draws) == 1
    moved = _memo_qbers(**{**MEMO_BASE, key: value})
    assert len(memory_draws) == 2
    assert moved != base


def test_memory_draw_memo_is_bounded():
    maxsize = analysis._memory_qbers.cache_info().maxsize
    assert isinstance(maxsize, int) and 0 < maxsize < 1_000_000


def test_fig7_draws_each_distinct_sample_once(memory_draws, tmp_path):
    # six memory profiles (three blocks, two tasks) of N = 2..20 share 19 draws
    run_reproduce("fig7", str(tmp_path))
    assert sorted(memory_draws) == list(range(2, 21))


def test_advantage_ratio_with_ideal_memories():
    # noiseless, dephasing-free memory network: the ratio is exactly N-1
    cfg = NetworkConfig(2, 50.0, 4.0)
    noise = NoiseParams(0.0, t2_s=math.inf)
    profile = advantage_profile(cfg, noise, 8, memories=True, seed=2)
    for row in profile.rows:
        assert row.status == "ok"
        assert row.ratio == pytest.approx(row.n_parties - 1, rel=1e-12)
    assert profile.max_n_advantage == 8
    assert profile.max_n_linear == 8


def test_advantage_profile_dead_network_rows():
    cfg = NetworkConfig(2, 400.0, 400.0)
    noise = NoiseParams(0.45)
    profile = advantage_profile(cfg, noise, 4, memories=False)
    assert all(row.status == "both-zero" for row in profile.rows)
    assert profile.max_n_advantage is None
    assert profile.max_n_linear is None


def test_linear_growth_extent_anchor_points():
    # at a 30 km long link the ratio grows monotonically up to ~11 players
    # with memories and only ~5 without
    cfg = NetworkConfig(2, 30.0, 4.0)
    noise = NoiseParams(0.01, t2_s=1.0, prep_time_s=2e-6)
    with_mem = advantage_profile(cfg, noise, 16, memories=True, mc_samples=1000, seed=1)
    without = advantage_profile(cfg, noise, 16, memories=False, mc_samples=1000, seed=1)
    assert with_mem.max_n_linear == pytest.approx(11, abs=1)
    assert without.max_n_linear == pytest.approx(5, abs=1)


def test_memories_dominate_for_long_coherence():
    cfg = NetworkConfig(2, 30.0, 4.0)
    noise = NoiseParams(0.01, t2_s=100.0, prep_time_s=2e-6)
    with_mem = advantage_profile(cfg, noise, 12, memories=True, seed=5)
    without = advantage_profile(cfg, noise, 12, memories=False, seed=5)
    for row_m, row_n in zip(with_mem.rows, without.rows):
        if row_m.status == "ok" and row_n.status == "ok":
            assert row_m.ratio >= row_n.ratio - 1e-9


# fig7's network, and one whose 1 ms memories and 7% noise leave whole
# sides dead: every multipartite model, and at small blocks every link too
PROFILE_NOISES = {
    "fig7": NoiseParams(0.01, t2_s=1.0, prep_time_s=2e-6),
    "short-T2": NoiseParams(0.07, t2_s=1e-3, prep_time_s=2e-6),
}


@pytest.mark.parametrize("network", sorted(PROFILE_NOISES))
@pytest.mark.parametrize("memories", [True, False])
@pytest.mark.parametrize("task", ["QSS", "CKA"])
def test_finite_profile_equals_the_eager_path(task, memories, network):
    # one stack per N gives exactly the fractions of the public entry points
    cfg, noise = NetworkConfig(2, 50.0, 4.0), PROFILE_NOISES[network]
    multi_spec = ProtocolSpec(Family.MQSS if task == "QSS" else Family.MCKA, memories=memories)
    qb_link = scenario_qbers(cfg, ProtocolSpec(Family.BQSS, memories=True), noise) if memories else None
    statuses = set()
    for block in (1e4, 1e6, 1e8, 1e10):
        fsp = FiniteSizeParams(epsilon=1e-10, block_size=block)
        profile = advantage_profile(cfg, noise, 12, memories=memories, fsp=fsp, task=task)
        for row in profile.rows:
            cfg_n = cfg.with_parties(row.n_parties)
            qbers = scenario_qbers(cfg_n, multi_spec, noise)
            assert row.multi_rate == _eager_multi(cfg_n, task, fsp, qbers, memories)
            bi = bipartite_optimal(cfg_n, noise, fsp, memory_qbers=qb_link)
            assert row.bi_rate == bi.result.secret_fraction
            statuses.add(row.status)
    assert ("both-zero" in statuses) is (network == "short-T2")


@pytest.mark.parametrize("block", [None, 1e4, 1e6, 1e10])
def test_two_party_multipartite_side_is_a_baseline_candidate(block):
    # at N = 2 without memories the multipartite models are baseline links:
    # the conference key's two strategies are both links, secret sharing one
    fsp = None if block is None else FiniteSizeParams(epsilon=1e-10, block_size=block)
    for d_b in (0.0, 2.0, 10.0):
        for f_depol in (0.0, 0.02, 0.05):
            cfg, noise = NetworkConfig(2, 30.0, d_b), NoiseParams(f_depol)
            (cka,) = advantage_profile(cfg, noise, 2, False, fsp, "CKA").rows
            (qss,) = advantage_profile(cfg, noise, 2, False, fsp, "QSS").rows
            assert cka.multi_rate == cka.bi_rate, (d_b, f_depol)
            assert qss.multi_rate <= qss.bi_rate, (d_b, f_depol)


@pytest.mark.parametrize("task", ["QSS", "CKA"])
def test_asymptotic_ratio_does_not_depend_on_alice_link(task):
    # without memories both yields carry Alice's transmission once, so it
    # cancels out of the ratio: the statuses and extents are the same
    for f_depol in (0.0, 0.01, 0.03):
        near, far = (
            advantage_profile(NetworkConfig(2, d_a, 4.0), NoiseParams(f_depol), 25, False, task=task)
            for d_a in (30.0, 50.0)
        )
        assert (near.max_n_linear, near.max_n_advantage) == (far.max_n_linear, far.max_n_advantage)
        assert [row.status for row in near.rows] == [row.status for row in far.rows]
        for a, b in zip(near.rows, far.rows):
            if a.status == "ok":
                assert a.ratio == pytest.approx(b.ratio, rel=1e-15, abs=0.0), (f_depol, a.n_parties)


def test_no_module_spells_the_task_list():
    # the tasks are the keys of TASK_FAMILIES; a literal list of them would
    # be a second vocabulary to keep in step
    tasks = set(TASK_FAMILIES)
    literals = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(ghznet.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Tuple, ast.List))
        and len(node.elts) == len(tasks)
        and {getattr(elt, "value", None) for elt in node.elts} == tasks
    ]
    assert literals == []


def _best_fraction(task, n, d_km, f_depol, block, epsilon):
    """The task's optimised multipartite secret fraction on a memoryless
    symmetric star."""
    cfg = NetworkConfig.make_symmetric(n, d_km)
    fsp = FiniteSizeParams(epsilon=epsilon, block_size=block)
    qbers = memoryless_qber(f_depol, n)
    if task == "CKA":
        _, result, _ = best_cka_fraction(cfg, fsp, qbers)
    else:
        _, result = optimized_fraction(cfg, Family.MQSS, fsp, qbers)
    return result.secret_fraction


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    task=st.sampled_from(sorted(TASK_FAMILIES)),
    n=st.integers(2, 11),
    d_km=st.floats(0.0, 15.0),
    f_depol=st.floats(0.0, 0.08),
    log_block=st.floats(4.0, 12.0),
    log_epsilon=st.floats(-14.0, -3.0),
)
def test_fraction_metamorphic_relations(task, n, d_km, f_depol, log_block, log_epsilon):
    block, epsilon = 10.0**log_block, 10.0**log_epsilon
    point = dict(task=task, n=n, d_km=d_km, f_depol=f_depol, block=block, epsilon=epsilon)
    base = _best_fraction(**point)
    # a longer block and less noise or distance never cost key
    assert _best_fraction(**{**point, "block": 1.5 * block}) >= base
    assert _best_fraction(**{**point, "f_depol": f_depol + 0.002}) <= base
    assert _best_fraction(**{**point, "d_km": d_km + 0.5}) <= base
    # a looser epsilon lowers every penalty but also the 1 - eps_c factor
    # (eps_c = epsilon/2), so only the fraction net of that factor never falls
    doubled = _best_fraction(**{**point, "epsilon": 2.0 * epsilon})
    assert doubled / (1.0 - epsilon) >= base / (1.0 - epsilon / 2.0)


def test_doubling_epsilon_can_lower_the_fraction():
    # the plain relation "a doubled epsilon never lowers the fraction" is
    # false: at a large block the penalties are already small, and the
    # 1 - eps_c factor falls by more than they do
    point = dict(task="CKA", n=2, d_km=0.0, f_depol=0.0, block=1e11)
    loose, looser = (_best_fraction(**point, epsilon=epsilon) for epsilon in (1e-3, 2e-3))
    assert looser < loose
    assert (round(loose, 6), round(looser, 6)) == (0.988464, 0.988231)

"""The ITP threshold search against plain bisection on the same gap.

Bisection on the sign of the multi - bi gap is the search `find_threshold`
used before ITP; it stays here as the oracle of every fig3 and fig6 query,
of the evaluation counts and of the reported digits.
"""

import inspect
import math

import pytest

from ghznet import analysis, cli, reproduce
from ghznet.analysis import ThresholdQuery, ThresholdResult, find_threshold
from ghznet.core import binary_entropy
from ghznet.noise import memoryless_qber
from ghznet.optimize import ITP_N0, itp_bracket


class _Counted:
    """A function that counts its evaluations."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def bisect_threshold(query, bracket, xtol):
    """Plain bisection on the gap's sign; returns the result and the
    number of gap evaluations."""
    gap = _Counted(analysis._gap(query))
    lo, hi = bracket
    adv_lo = gap(lo) > 0.0
    if adv_lo == (gap(hi) > 0.0):
        return ThresholdResult(None, "no-sign-change"), gap.calls
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if (gap(mid) > 0.0) == adv_lo:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(0.5 * (lo + hi), "ok"), gap.calls


# the tolerance of every `ghznet threshold` search, and so of fig3 and fig6
XTOL = inspect.signature(find_threshold).parameters["xtol"].default


@pytest.fixture(scope="module")
def searches(tmp_path_factory):
    """Every find_threshold call of the fig3 and fig6 recipes, all made by
    the threshold command: figure -> list of (query, bracket, xtol, result,
    gap evaluations)."""
    calls = {}
    real_search, real_gap = cli.find_threshold, analysis._gap
    counted = []

    def counting_gap(query):
        counted.append(_Counted(real_gap(query)))
        return counted[-1]

    outdir = tmp_path_factory.mktemp("thresholds")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_gap", counting_gap)
        for figure in ("fig3", "fig6"):
            records = calls[figure] = []

            def recording(query, bracket, xtol=XTOL, records=records):
                result = real_search(query, bracket, xtol=xtol)
                records.append((query, bracket, xtol, result, counted[-1].calls))
                return result

            patch.setattr(cli, "find_threshold", recording)
            reproduce.run_reproduce(figure, str(outdir))
    return calls


@pytest.fixture(scope="module")
def bisections(searches):
    """The oracle's (result, gap evaluations) of every recipe query."""
    return {
        figure: [bisect_threshold(query, bracket, xtol) for query, bracket, xtol, _, _ in records]
        for figure, records in searches.items()
    }


@pytest.mark.parametrize("figure,queries", [("fig3", 24), ("fig6", 72)])
def test_thresholds_agree_with_bisection(searches, bisections, figure, queries):
    assert len(searches[figure]) == queries
    for (query, bracket, xtol, result, _), (oracle, _) in zip(searches[figure], bisections[figure]):
        assert result.status == oracle.status, query
        if result.value is None:
            assert oracle.value is None
            continue
        assert abs(result.value - oracle.value) <= xtol, query
        gap = analysis._gap(query)
        below = max(result.value - xtol, bracket[0])
        above = min(result.value + xtol, bracket[1])
        assert (gap(below) > 0.0) != (gap(above) > 0.0), query


@pytest.mark.parametrize("figure", ["fig3", "fig6"])
def test_search_costs_at_most_one_evaluation_beyond_bisection(searches, bisections, figure):
    itp_total = bisection_total = 0
    for (query, _, _, _, evaluations), (_, bisection) in zip(searches[figure], bisections[figure]):
        assert evaluations <= bisection + 1, query
        itp_total += evaluations
        bisection_total += bisection
    if figure == "fig6":
        # the claim of the ITP search: the finite-size gap is smooth enough
        # near its sign change that interpolation saves about half. Bisection
        # needs 1,764 evaluations at the threshold command's xtol of 1e-6
        # and distance bracket of 60 km
        assert bisection_total == 1764
        assert itp_total <= 0.6 * bisection_total


def test_fig3_distance_thresholds_bracket_the_closed_form(searches):
    # on a symmetric memoryless star the asymptotic advantage condition is
    # (N-1) p^(N-2) K_N > K_2 with p = 10^(-0.02 d) and K = 1 - h(q_x) - h(q_z)
    def key_fraction(f_depol, n):
        qbers = memoryless_qber(f_depol, n)
        return 1.0 - binary_entropy(qbers.q_x) - binary_entropy(qbers.q_z)

    checked = 0
    for query, _, xtol, result, _ in searches["fig3"]:
        if query.target != "distance":
            continue
        n, f_depol = query.n_parties, query.fixed_noise
        ratio = (n - 1) * key_fraction(f_depol, n) / key_fraction(f_depol, 2)
        d_star = math.log10(ratio) / (0.02 * (n - 2))
        # the midpoint of a final bracket no wider than xtol that holds d*
        assert abs(result.value - d_star) <= 0.5 * xtol * (1 + 1e-9), (n, f_depol)
        checked += 1
    assert checked == 16


def _step(c):
    # +1 below c and -1 from c on: no slope information at all
    return lambda x: 1.0 if x < c else -1.0


def _plateau(c):
    # positive below c and 0 from c on, as where both sides are dead
    return lambda x: max(c - x, 0.0)


def _dip_then_plateau(c):
    # positive below c, negative up to c + 0.1, then 0
    return lambda x: c - x if x < c + 0.1 else 0.0


@pytest.mark.parametrize("shape", [_step, _plateau, _dip_then_plateau])
@pytest.mark.parametrize("c", [1e-9, 0.013, 0.25, 0.4999, 0.73])
@pytest.mark.parametrize("xtol", [1e-4, 1e-9])
def test_itp_bracket_holds_the_sign_change_within_its_budget(shape, c, xtol):
    lo, hi = 0.0, 1.0
    f = _Counted(shape(c))
    lo, hi = itp_bracket(f, (lo, hi), f.f(lo), f.f(hi), xtol)
    assert hi - lo <= xtol
    assert f.f(lo) > 0.0 >= f.f(hi)
    assert lo < c <= hi
    n_max = math.ceil(math.log2(1.0 / xtol)) + ITP_N0
    assert f.calls <= n_max


def test_itp_bracket_with_the_sign_change_reversed():
    f = _Counted(lambda x: x - 0.3)
    lo, hi = itp_bracket(f, (0.0, 1.0), -0.3, 0.7, 1e-12)
    assert lo <= 0.3 <= hi and hi - lo <= 1e-12
    # interpolation takes over once the bracket is narrow: bisection needs 40
    assert f.calls < 20


_QUERY = ThresholdQuery("distance", 3, fixed_noise=0.0)


@pytest.mark.parametrize("xtol", [0.0, -1e-6, math.nan, math.inf, -math.inf])
def test_threshold_rejects_a_bad_xtol(xtol):
    with pytest.raises(ValueError, match="xtol"):
        find_threshold(_QUERY, (1.0, 30.0), xtol=xtol)


@pytest.mark.parametrize(
    "bracket",
    [(math.nan, 30.0), (1.0, math.nan), (1.0, math.inf), (-math.inf, 30.0), (-1e308, 1e308)],
)
def test_threshold_rejects_a_non_finite_bracket(bracket):
    with pytest.raises(ValueError, match="finite bracket"):
        find_threshold(_QUERY, bracket)


def test_threshold_takes_a_tiny_xtol():
    # the budget is taken in logs, so a subnormal xtol cannot overflow it
    res = find_threshold(_QUERY, (1.0, 30.0), xtol=5e-324)
    assert res.value == pytest.approx(50.0 * math.log10(2.0), rel=1e-12)


def test_threshold_takes_a_bracket_as_wide_as_the_floats():
    # its first budget, xtol * 2^(n_max - 1), lies beyond the largest float
    res = find_threshold(_QUERY, (0.0, 1.7976931348623157e308))
    assert res.status == "ok"
    assert res.value == pytest.approx(50.0 * math.log10(2.0), abs=1e-6)

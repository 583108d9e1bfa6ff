"""Derivative-free scalar search: golden-section maxima, ITP root brackets."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Width of the final golden-section bracket.
TOL = 1e-5
# ITP (Oliveira & Takahashi, ACM Trans. Math. Softw. 47(1), 2020): the
# regula-falsi point moves ITP_K1 * width**2 / initial width towards the
# midpoint (kappa2 = 2), and ITP_N0 steps beyond bisection are allowed.  The
# paper's kappa1 = 0.2 / initial width stalls where a function is 0 over a
# whole end of the bracket; this one bisects early and interpolates late.
ITP_K1 = 2.0
ITP_N0 = 1


def golden_section_max(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximum of a unimodal f on [lo, hi], to within TOL."""
    c = hi - INV_GOLDEN * (hi - lo)
    d = lo + INV_GOLDEN * (hi - lo)
    f_c, f_d = f(c), f(d)
    while hi - lo > TOL:
        if f_c >= f_d:
            hi, d, f_d = d, c, f_c
            c = hi - INV_GOLDEN * (hi - lo)
            f_c = f(c)
        else:
            lo, c, f_c = c, d, f_d
            d = lo + INV_GOLDEN * (hi - lo)
            f_d = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)


@dataclass(frozen=True)
class ScalarMaximum:
    x: float
    value: float
    indeterminate: bool


# Coarse grid over (0, 1): linear spacing plus points crowding both
# endpoints, so near-boundary optima (common for basis probabilities) are
# bracketed tightly before refining.
# Sorted through a set: np.unique would import numpy.ma (about 1.2 MB) into
# every process that imports ghznet.
_EDGES = np.logspace(-8, math.log10(0.4), 60)
UNIT_GRID = np.array(
    sorted(set(np.concatenate([np.linspace(0.005, 0.995, 199), _EDGES, 1.0 - _EDGES]).tolist()))
)
UNIT_GRID.flags.writeable = False


def maximize_unit_interval(f: Callable[[float], float], values: np.ndarray) -> ScalarMaximum:
    """Coarse grid over (0, 1) followed by golden-section refinement.

    `values` is the objective over the whole of UNIT_GRID; `f` is the same
    objective at one point and drives the golden-section tail.  The refined
    value never falls below the best grid value, and the value returned is
    always one of `f`; an everywhere non-positive objective is flagged
    indeterminate.
    """
    best = int(values.argmax())
    if values[best] <= 0.0:
        return ScalarMaximum(math.nan, 0.0, True)
    v_grid = f(float(UNIT_GRID[best]))
    lo = float(UNIT_GRID[max(best - 1, 0)])
    hi = float(UNIT_GRID[min(best + 1, len(UNIT_GRID) - 1)])
    x_ref, v_ref = golden_section_max(f, lo, hi)
    if v_ref >= v_grid:
        return ScalarMaximum(float(x_ref), float(v_ref), False)
    return ScalarMaximum(float(UNIT_GRID[best]), float(v_grid), False)


def itp_bracket(
    f: Callable[[float], float], bracket: tuple[float, float], f_lo: float, f_hi: float, xtol: float
) -> tuple[float, float]:
    """Shrink a bracket of the sign change of f to width xtol by ITP search.

    The side of a point is f > 0 alone, which must differ between the ends
    (their values f_lo and f_hi given); magnitudes only choose the next
    point.  Returns the final (lo, hi): it holds the sign change and is no
    wider than xtol (or two adjacent floats), after at most one evaluation
    more than bisection.
    """
    lo, hi = bracket
    width0 = hi - lo
    n_max = math.ceil(math.log2(width0) - math.log2(xtol)) + ITP_N0  # width0 / xtol may overflow
    positive_lo = f_lo > 0.0
    step = 0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        x_f = (f_hi * lo - f_lo * hi) / (f_hi - f_lo)
        sigma = math.copysign(1.0, mid - x_f)
        # products, not ** or ldexp: near the float range they give inf, not an error
        delta = ITP_K1 * (hi - lo) * (hi - lo) / width0
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        radius = 2.0 * math.ldexp(xtol, n_max - step - 2) - 0.5 * (hi - lo)
        x = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        if not lo < x < hi:
            x = mid
        value = f(x)
        if (value > 0.0) == positive_lo:
            lo, f_lo = x, value
        else:
            hi, f_hi = x, value
        step += 1
    return lo, hi

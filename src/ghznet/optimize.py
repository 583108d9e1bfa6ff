"""Derivative-free scalar search: golden-section maxima over a coarse grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Width of the final golden-section bracket.
TOL = 1e-5


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


def grid_peak(f: Callable[[float], float], values: np.ndarray) -> tuple[int, float] | None:
    """Grid stage of `maximize_unit_interval` for one objective row.

    `values` is the objective over UNIT_GRID.  Returns the index of its
    largest value and f at that grid point, the value the refined maximum
    never falls below; None when no grid value is positive (the objective
    is indeterminate).
    """
    best = int(values.argmax())
    if values[best] <= 0.0:
        return None
    return best, f(float(UNIT_GRID[best]))


def maximize_unit_interval(f: Callable[[float], float], values: np.ndarray) -> ScalarMaximum:
    """Coarse grid over (0, 1) followed by golden-section refinement.

    `values` is the objective over the whole of UNIT_GRID; `f` is the same
    objective at one point and drives the golden-section tail.  The refined
    value never falls below the best grid value, and the value returned is
    always one of `f`; an everywhere non-positive objective is flagged
    indeterminate.
    """
    peak = grid_peak(f, values)
    if peak is None:
        return ScalarMaximum(math.nan, 0.0, True)
    best, v_grid = peak
    lo = float(UNIT_GRID[max(best - 1, 0)])
    hi = float(UNIT_GRID[min(best + 1, len(UNIT_GRID) - 1)])
    x_ref, v_ref = golden_section_max(f, lo, hi)
    if v_ref >= v_grid:
        return ScalarMaximum(float(x_ref), float(v_ref), False)
    return ScalarMaximum(float(UNIT_GRID[best]), float(v_grid), False)

"""Scalar math shared by every rate computation."""

from __future__ import annotations

import math

# Fiber transmission 10^(-0.02 d) for d in km, i.e. 0.2 dB/km.
LOSS_EXPONENT_PER_KM = 0.02

FIBER_LIGHT_SPEED_M_S = 2.0e8


def check_probability(value: float, name: str = "probability") -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0 or math.isnan(value):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_parties(n_parties: int) -> None:
    if n_parties < 2:
        raise ValueError(f"need at least 2 parties, got {n_parties}")


def binary_entropy(q: float) -> float:
    """Entropy in bits of a {q, 1-q} coin, with the 0*log(0) := 0 convention."""
    q = check_probability(q, "binary_entropy argument")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def transmission(distance_km: float) -> float:
    """Success probability for a photon crossing `distance_km` of fiber."""
    if distance_km < 0:
        raise ValueError(f"distance must be non-negative, got {distance_km!r}")
    return 10.0 ** (-LOSS_EXPONENT_PER_KM * distance_km)

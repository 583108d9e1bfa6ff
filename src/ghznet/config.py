"""Plain-text scenario configuration: key=value lines, strict key checking.

No environment variables: a run reads only its config file and `--set`
strings.  Output headers carry the keys that were set, verbatim; every key
left unset takes its value from DEFAULTS, so a table plus its header and
this version's DEFAULTS reproduce the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from .finite import FiniteSizeParams
from .memory import check_samples
from .network import BasisStrategy, Family, NetworkConfig, ProtocolSpec, check_memory_network
from .noise import NoiseParams


class ConfigError(Exception):
    """Invalid configuration; carries `source` and `line` when known."""

    def __init__(self, message: str, source: str | None = None, line: int | None = None):
        self.source = source
        self.line = line
        prefix = ""
        if source is not None:
            prefix = source if line is None else f"{source}:{line}"
            prefix += ": "
        super().__init__(prefix + message)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_p_key(text: str) -> float | str:
    # `opt`: every row takes the p_key that maximizes its secret fraction
    return "opt" if text.strip() == "opt" else float(text)


# key -> parser of its stripped value text; presence here is what makes a
# key legal.
SCHEMA: dict[str, Callable[[str], object]] = {
    "network.N": int,
    "network.d_km": float,
    "network.d_A_km": float,
    "network.d_B_km": float,
    "noise.f_D": float,
    "memory.T2_s": float,
    "memory.Tp_s": float,
    "protocol.family": str,
    "protocol.memories": _parse_bool,
    "protocol.basis_strategy": str,
    "protocol.p_key": _parse_p_key,
    "finite.block_size": float,
    "finite.epsilon": float,
    "mc.samples": int,
    "mc.seed": int,
    "sweep.parameter": str,
    "sweep.from": float,
    "sweep.to": float,
    "sweep.steps": int,
    "sweep.log": _parse_bool,
    "output.path": str,
}

# The value of each key that no source sets.  Keys absent here have no
# default: their absence selects a mode (asymptotic rates without
# finite.block_size, an asymmetric star without network.d_km, the family's
# own basis strategy, no sweep, stdout).
DEFAULTS: dict[str, object] = {
    "network.N": 3,
    "network.d_A_km": 50.0,
    "network.d_B_km": 4.0,
    "noise.f_D": 0.01,
    "memory.T2_s": 1.0,
    "memory.Tp_s": 2e-6,
    "protocol.family": "mQSS",
    "protocol.memories": False,
    "protocol.p_key": 1.0,
    "finite.epsilon": 1e-10,
    "mc.samples": 1000,
    "mc.seed": 1,
    "sweep.log": False,
}

# Smallest accepted security parameter: the key-length log term divides by
# eps_c * eps_pa**2, about epsilon**3 / 32, which must not underflow to 0
# even after the bipartite baseline splits epsilon over N-1 links.
MIN_EPSILON = 1e-100

@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    start: float
    stop: float
    steps: int
    log: bool


@dataclass(frozen=True)
class Scenario:
    network: NetworkConfig
    noise: NoiseParams
    specs: tuple[ProtocolSpec, ...]
    finite: FiniteSizeParams | None
    mc_samples: int
    seed: int
    sweep: SweepSpec | None
    # protocol.p_key = opt: the specs' p_key is a placeholder for each row's optimum
    optimize_p_key: bool


def parse_kv_text(
    text: str, source: str, into: dict[str, tuple[str, str, int]] | None = None
) -> dict[str, tuple[str, str, int]]:
    """Parse `key = value` lines; '#' starts a comment.  Returns
    key -> (value, source, line).  Unknown and duplicate keys are errors."""
    items = {} if into is None else into
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {raw_line.strip()!r}", source, line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}", source, line_no)
        if key in items:
            raise ConfigError(f"duplicate configuration key {key!r}", source, line_no)
        if not value:
            raise ConfigError(f"empty value for {key!r}", source, line_no)
        items[key] = (value, source, line_no)
    return items


def load_config(
    path: str | None, overrides: Iterable[str] = ()
) -> dict[str, tuple[str, str, int]]:
    """Read an optional config file, then apply `key=value` override strings
    (later sources replace earlier keys)."""
    items: dict[str, tuple[str, str, int]] = {}
    if path is not None:
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}", path) from exc
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the line of the first undecodable byte, counted as parse_kv_text counts
            line = len((data[: exc.start].decode("utf-8") + "_").splitlines())
            raise ConfigError(f"not UTF-8: cannot decode byte 0x{data[exc.start]:02x}", path, line) from exc
        parse_kv_text(text, path, items)
    for index, override in enumerate(overrides, start=1):
        items.update(parse_kv_text(override, f"--set[{index}]"))
    return items


def _value(items: dict[str, tuple[str, str, int]], key: str):
    if key not in items:
        return DEFAULTS.get(key)
    text, source, line = items[key]
    try:
        return SCHEMA[key](text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}", source, line) from exc


def _fail_on(items, key, message):
    if key in items:
        _, source, line = items[key]
        raise ConfigError(message, source, line)
    raise ConfigError(message)


def _build(items, factory, keys: tuple[str, ...]):
    """factory(*values of keys), each key read from items or DEFAULTS.

    A ValueError from the model names the key whose value it rejects: the
    values are replayed over the defaults one key at a time, and the first
    key whose value makes factory fail is blamed with its source and line.
    The replay runs only on failure.
    """
    values = [_value(items, key) for key in keys]
    try:
        return factory(*values)
    except ValueError:
        probe = [DEFAULTS.get(key) for key in keys]
        for i, key in enumerate(keys):
            probe[i] = values[i]
            try:
                factory(*probe)
            except ValueError as exc:
                _fail_on(items, key, str(exc))
        raise


def _finite_size_params(epsilon, block_size) -> FiniteSizeParams:
    if not MIN_EPSILON <= epsilon < 1.0:
        raise ValueError(f"finite.epsilon must lie in [{MIN_EPSILON:g}, 1), got {epsilon!r}")
    # a finite.block_size sweep sets the block at each point; the scenario
    # itself holds the smallest one
    return FiniteSizeParams(epsilon, 1.0 if block_size is None else block_size)


def _specs(family_text, memories, strategy_text, p_key) -> tuple[ProtocolSpec, ...]:
    try:
        families = [Family(part.strip()) for part in family_text.split(",")]
    except ValueError:
        raise ValueError(f"unknown protocol family in {family_text!r}") from None
    try:
        strategy = None if strategy_text is None else BasisStrategy(strategy_text)
    except ValueError:
        raise ValueError(f"unknown strategy {strategy_text!r}") from None
    # protocol.p_key = opt: 1.0 holds the place of each row's optimum
    p_key = 1.0 if p_key == "opt" else p_key
    return tuple(ProtocolSpec(family, memories, strategy, p_key) for family in families)


def check_seed(seed: int, name: str = "mc.seed") -> int:
    """A Monte Carlo seed: numpy's generators take non-negative seeds only."""
    if seed < 0:
        raise ValueError(f"{name} must be >= 0, got {seed}")
    return seed


def _fail_on_first(items, prefix, message):
    _fail_on(items, next(key for key in items if key.startswith(prefix)), message)


def _network(items) -> NetworkConfig:
    network_items = items
    if "network.d_km" in items:
        if "network.d_A_km" in items or "network.d_B_km" in items:
            _fail_on(items, "network.d_km", "network.d_km excludes network.d_A_km/d_B_km")
        # a symmetric star: network.d_km sets both link distances
        d_km = items["network.d_km"]
        network_items = {**items, "network.d_A_km": d_km, "network.d_B_km": d_km}
    network_keys = ("network.N", "network.d_A_km", "network.d_B_km")
    network = _build(network_items, NetworkConfig, network_keys)
    if _value(items, "protocol.memories"):
        # replayed over the default network, a rejection names a distance key
        _build(network_items, lambda *values: check_memory_network(NetworkConfig(*values)), network_keys)
    return network


def _noise(items) -> NoiseParams:
    return _build(items, NoiseParams, ("noise.f_D", "memory.T2_s", "memory.Tp_s"))


def _protocol(items) -> tuple[ProtocolSpec, ...]:
    return _build(items, _specs, ("protocol.family", "protocol.memories", "protocol.basis_strategy", "protocol.p_key"))


def _finite(items) -> FiniteSizeParams:
    return _build(items, _finite_size_params, ("finite.epsilon", "finite.block_size"))


# sweepable key -> (the Scenario field it sets, that field's builder)
SWEEPABLE = {
    **dict.fromkeys(("network.d_km", "network.d_A_km", "network.d_B_km", "network.N"), ("network", _network)),
    "noise.f_D": ("noise", _noise),
    "protocol.p_key": ("specs", _protocol),
    "finite.block_size": ("finite", _finite),
}


def resolve_scenario(items: dict[str, tuple[str, str, int]]) -> Scenario:
    """Validate a parsed key/value mapping into a runnable scenario: every
    model object is built by _build, which blames a rejection on its key."""
    network = _network(items)
    mc_samples = _build(items, check_samples, ("mc.samples",))
    seed = _build(items, check_seed, ("mc.seed",))
    noise = _noise(items)
    specs = _protocol(items)
    swept = _value(items, "sweep.parameter")
    # a block-size sweep supplies finite.block_size at every point
    sized = "finite.block_size" in items or swept == "finite.block_size"
    optimize_p_key = _value(items, "protocol.p_key") == "opt"
    if optimize_p_key:
        if swept == "protocol.p_key":
            _fail_on(items, "protocol.p_key", "protocol.p_key = opt cannot be swept")
        if not sized:
            _fail_on(items, "protocol.p_key", "protocol.p_key = opt needs finite.block_size")
    finite = None
    if sized:
        finite = _finite(items)
    elif any(key.startswith("finite.") for key in items):
        _fail_on_first(items, "finite.", "finite.* keys need finite.block_size")
    sweep = None
    if "sweep.parameter" in items:
        if swept not in SWEEPABLE:
            _fail_on(items, "sweep.parameter", f"cannot sweep {swept!r}")
        for required in ("sweep.from", "sweep.to", "sweep.steps"):
            if required not in items:
                _fail_on(items, "sweep.parameter", f"sweep needs {required}")
        steps = _value(items, "sweep.steps")
        if steps < 2:
            _fail_on(items, "sweep.steps", "sweep.steps must be >= 2")
        log = _value(items, "sweep.log")
        endpoints = []
        for endpoint in ("sweep.from", "sweep.to"):
            value = _value(items, endpoint)
            if not math.isfinite(value):
                _fail_on(items, endpoint, f"{endpoint} must be finite, got {value!r}")
            if log and value <= 0:
                message = f"log sweeps need positive endpoints, got {endpoint} = {value!r}"
                _fail_on(items, endpoint, message)
            endpoints.append(value)
        sweep = SweepSpec(swept, *endpoints, steps, log)
    elif any(key.startswith("sweep.") for key in items):
        _fail_on_first(items, "sweep.", "sweep.* keys need sweep.parameter")
    return Scenario(network, noise, specs, finite, mc_samples, seed, sweep, optimize_p_key)


def at_point(scenario: Scenario, items: dict, key: str, text: str, source: str, line: int) -> Scenario:
    """`scenario` with the object that `key` sets rebuilt at `text`; a rejection blames source:line."""
    field, build = SWEEPABLE[key]
    return replace(scenario, **{field: build({**items, key: (text, source, line)})})

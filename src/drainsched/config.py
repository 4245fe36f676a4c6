"""Configuration ingestion and validation.

Configs are hierarchical YAML documents with explicit units in key names.
Parsing is strict: unknown keys, missing required sections, and out-of-range
values all raise ConfigError naming the offending key, and nothing else is
silently ignored, a repeated key included. The parsed SimConfig carries a
derived NetworkSpec (interference sets included) and QoS specs by flow id.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Collection
from dataclasses import MISSING, Field, asdict, dataclass, field, fields, replace
from functools import cache
from typing import Any

import yaml

from .control import QosSpec
from .network import ConfigError, Flow, NetworkSpec, derive_interference_sets, is_integer
from .optim import OptParams


@dataclass(frozen=True)
class ChannelParams:
    rayleigh_scale_constant: float = 1.0
    noise_power: float = 1.0
    tx_power: float = 1.0
    log_base: str = "e"
    gain_model: str = "rayleigh"
    fixed_gain: float | None = None

    def __post_init__(self):
        if not 0 < self.rayleigh_scale_constant < math.inf:
            raise ConfigError("channel.rayleigh_scale_constant must be finite and > 0")
        if not 0 < self.noise_power < math.inf:
            raise ConfigError("channel.noise_power must be finite and > 0")
        if not 0 < self.tx_power < math.inf:
            raise ConfigError("channel.tx_power must be finite and > 0")
        if self.log_base not in ("e", "2"):
            raise ConfigError(f"channel.log_base must be 'e' or '2', got {self.log_base!r}")
        if self.gain_model not in ("rayleigh", "fixed"):
            raise ConfigError(
                f"channel.gain_model must be 'rayleigh' or 'fixed', got {self.gain_model!r}"
            )
        if self.gain_model == "fixed":
            if self.fixed_gain is None or not 0 <= self.fixed_gain < math.inf:
                raise ConfigError(
                    "channel.fixed_gain must be finite and >= 0 when gain_model is 'fixed'"
                )
        elif self.fixed_gain is not None:
            raise ConfigError("channel.fixed_gain only applies when gain_model is 'fixed'")


@dataclass(frozen=True)
class ControlParams:
    a1: float = 1.0
    a2: float = 1.0
    safety_stock_pkts: int = 5
    theta_hat_default: float = 2.0
    qos: dict[int, QosSpec] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 < self.a1 < math.inf:
            raise ConfigError("control.a1 must be finite and > 0")
        if not 0 < self.a2 < math.inf:
            raise ConfigError("control.a2 must be finite and > 0")
        if not 0 <= self.safety_stock_pkts < math.inf:
            raise ConfigError("control.safety_stock_pkts must be finite and >= 0")
        if not is_integer(self.safety_stock_pkts):
            raise ConfigError(
                f"control.safety_stock_pkts must be an integer, got {self.safety_stock_pkts!r}"
            )
        # A numpy integer would turn the engine's packet counts into numpy scalars.
        object.__setattr__(self, "safety_stock_pkts", int(self.safety_stock_pkts))
        if not 1.0 < self.theta_hat_default < math.inf:
            raise ConfigError("control.theta_hat_default must be finite and > 1")
        for fid in self.qos:
            if not is_integer(fid):
                raise ConfigError(f"control.qos: flow id {fid!r} is not an integer")
        # None is no spec; a numpy integer id would give the same config another digest.
        object.__setattr__(self, "qos", {int(f): q for f, q in self.qos.items() if q is not None})


@dataclass(frozen=True)
class RunParams:
    horizon_slots: int = 100_000
    seeds: tuple[int, ...] = (1,)
    trace: bool = False

    def __post_init__(self):
        if not is_integer(self.horizon_slots):
            raise ConfigError(f"run.horizon_slots must be an integer, got {self.horizon_slots!r}")
        if self.horizon_slots < 0:
            raise ConfigError("run.horizon_slots must be >= 0")
        # A numpy integer would give the same run another config digest.
        object.__setattr__(self, "horizon_slots", int(self.horizon_slots))
        if not self.seeds:
            raise ConfigError("run.seeds must list at least one seed")
        if not all(is_integer(s) and s >= 0 for s in self.seeds):
            raise ConfigError("run.seeds must be nonnegative integers")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))


@dataclass(frozen=True)
class SimConfig:
    network: NetworkSpec
    channel: ChannelParams
    optimizer: OptParams
    control: ControlParams
    run: RunParams

    def __post_init__(self):
        for fid in self.control.qos:
            if fid not in self.network.flow_ids:
                raise _unknown_flow(fid)

    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        """Stable content hash, recorded in experiment output headers."""
        blob = json.dumps(self.to_dict(), sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _unknown_flow(fid: int) -> ConfigError:
    return ConfigError(f"control.qos: flow id {fid} matches no flow destination")


# -- strict mapping helpers ------------------------------------------------


def _mapping(value: Any, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, allowed: Collection[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r} (allowed: {', '.join(allowed)})")


def _get(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return mapping[key]


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _integer(value: Any, path: str) -> int:
    if not is_integer(value):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _listing(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
    return value


def _boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected a boolean")
    return value


def _optional(check):
    return lambda value, path: None if value is None else check(value, path)


def _tuple_of(check):
    """Check for a list whose items are each checked at path[index]."""
    return lambda value, path: tuple(
        check(v, f"{path}[{i}]") for i, v in enumerate(_listing(value, path))
    )


def _pair(check, first: str, second: str):
    """Check for a two-item list, its items checked at path.first and path.second."""

    def read(value, path):
        pair = _listing(value, path)
        if len(pair) != 2:
            raise ConfigError(f"{path}: expected [{first}, {second}]")
        return check(pair[0], f"{path}.{first}"), check(pair[1], f"{path}.{second}")

    return read


# The value check of a params field, by the field's annotation.
_CHECKS = {
    "float": _number,
    "float | None": _optional(_number),
    "int": _integer,
    "int | None": _optional(_integer),
    "str": lambda value, path: str(value),
    "bool": _boolean,
    "tuple[int, ...]": _tuple_of(_integer),
    "tuple[tuple[int, ...], ...]": _tuple_of(_tuple_of(_integer)),
    "tuple[tuple[float, float], ...]": _tuple_of(_pair(_number, "x", "y")),
    "tuple[Link, ...]": _tuple_of(_pair(_integer, "i", "j")),
    "tuple[Flow, ...]": _tuple_of(lambda value, path: _params(Flow, value, path)),
}

# The config key of each field whose key is not its name.
_RENAMED = {
    "divisor_mode": "projection_divisor",
    "arrival_rate": "rate_pkts_per_slot",
    "positions": "nodes",
    "interference_sets": "extra_interference_sets",
}

# The one field _parse_control reads apart: its specs' theta_hat defaults to another key.
_READ_APART = (ControlParams, "qos")


@cache
def _fields_by_key(cls) -> dict[str, Field]:
    """cls's fields by config key, in field order."""
    return {_RENAMED.get(f.name, f.name): f for f in fields(cls)}


def _values(cls, sec: dict, path: str) -> dict:
    """The values of sec's keys as cls's field arguments, each checked by the
    rule of its field's annotation; a required field must be present."""
    by_key = _fields_by_key(cls)
    _check_keys(sec, by_key, path)
    return {
        f.name: _CHECKS[f.type](_get(sec, key, path), f"{path}.{key}")
        for key, f in by_key.items()
        if (cls, f.name) != _READ_APART and (key in sec or f.default is MISSING)
    }


def _params(cls, section: Any, path: str, **defaults):
    """Build the params dataclass cls from one YAML mapping, one key per field.

    A present key is checked by its field's annotation and cls's __post_init__;
    an absent one keeps the field's default or its override in defaults.
    """
    kwargs = defaults | _values(cls, _mapping(section, path), path)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:  # OptParams raises plain ValueError
        raise ConfigError(f"{path}: {exc}") from None


# -- section parsers --------------------------------------------------------


def _parse_network(section: Any) -> NetworkSpec:
    sec = _mapping(section, "network")
    if not sec:
        raise ConfigError("network: section is required")
    return derive_interference_sets(NetworkSpec(**_values(NetworkSpec, sec, "network")))


def _parse_control(section: Any, flow_ids: Collection[int]) -> ControlParams:
    """The control section. A control.qos spec's theta_hat defaults to
    control.theta_hat_default; a kind: none entry is checked, its flow id
    included, and means no spec."""
    sec = _mapping(section, "control")
    params = _params(ControlParams, sec, "control")
    qos: dict[int, QosSpec | None] = {}
    for fid, item in _mapping(sec.get("qos"), "control.qos").items():
        path = f"control.qos[{fid}]"
        qsec = _mapping(item, path)
        if qsec.get("kind") == "none":
            _values(QosSpec, qsec, path)
            qos[fid] = None
        else:
            qos[fid] = _params(QosSpec, qsec, path, theta_hat=params.theta_hat_default)
    params = replace(params, qos=qos)  # every flow id is an integer
    for fid, spec in qos.items():
        if spec is None and fid not in flow_ids:  # SimConfig checks the specs' ids
            raise _unknown_flow(fid)
    return params


def _strict_loader(base: type) -> type:
    """A loader on base (yaml.SafeLoader or yaml.CSafeLoader) that rejects a
    key repeated in one mapping; a << merge may override."""

    class StrictLoader(base):
        def construct_mapping(self, node, deep=False):
            own = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
            mapping = super().construct_mapping(node, deep)  # constructs and hashes the keys
            seen = set()
            for k in own:
                key = self.construct_object(k)
                if key in seen:
                    raise ConfigError(
                        f"config: duplicate key {key!r} at line {k.start_mark.line + 1}"
                    )
                seen.add(key)
            return mapping

    return StrictLoader


# libyaml's parser where PyYAML was built with it: it gives the same nodes and
# line marks as the pure-Python one, about 8x faster on the bundled preset.
_StrictLoader = _strict_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def parse_config(text: str) -> SimConfig:
    """Parse and fully validate a YAML config document."""
    try:
        doc = yaml.load(text, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML: {exc}") from None
    top = _mapping(doc, "config")
    _check_keys(top, _fields_by_key(SimConfig), "config")
    network = _parse_network(top.get("network"))
    return SimConfig(
        network=network,
        channel=_params(ChannelParams, top.get("channel"), "channel"),
        optimizer=_params(OptParams, top.get("optimizer"), "optimizer"),
        control=_parse_control(top.get("control"), network.flow_ids),
        run=_params(RunParams, top.get("run"), "run"),
    )


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# -- programmatic variants (used by presets and tests) -----------------------


def with_qos(config: SimConfig, qos_map: dict[int, QosSpec | None]) -> SimConfig:
    """Return config with control.qos set to qos_map (by flow id; None is no spec)."""
    return replace(config, control=replace(config.control, qos=qos_map))


def with_optimizer(config: SimConfig, **kwargs) -> SimConfig:
    return replace(config, optimizer=replace(config.optimizer, **kwargs))


def with_run(config: SimConfig, **kwargs) -> SimConfig:
    return replace(config, run=replace(config.run, **kwargs))

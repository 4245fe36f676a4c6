"""Configuration ingestion and validation.

Configs are hierarchical YAML documents with explicit units in key names.
Parsing is strict: unknown keys, missing required sections, and out-of-range
values all raise ConfigError naming the offending key, and nothing else is
silently ignored. The parsed SimConfig carries a fully derived NetworkSpec
(interference sets included, QoS attached to flows).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Any

import yaml

from .control import QosSpec
from .network import ConfigError, Flow, NetworkSpec, derive_interference_sets
from .optim import OptParams

_REQUIRED = object()


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

    def __post_init__(self):
        if not 0 < self.a1 < math.inf:
            raise ConfigError("control.a1 must be finite and > 0")
        if not 0 < self.a2 < math.inf:
            raise ConfigError("control.a2 must be finite and > 0")
        if not 0 <= self.safety_stock_pkts < math.inf:
            raise ConfigError("control.safety_stock_pkts must be finite and >= 0")
        if not 1.0 < self.theta_hat_default < math.inf:
            raise ConfigError("control.theta_hat_default must be finite and > 1")


@dataclass(frozen=True)
class RunParams:
    horizon_slots: int = 100_000
    seeds: tuple[int, ...] = (1,)
    trace: bool = False

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.horizon_slots < 0:
            raise ConfigError("run.horizon_slots must be >= 0")
        if not self.seeds:
            raise ConfigError("run.seeds must list at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("run.seeds must be nonnegative integers")


@dataclass(frozen=True)
class SimConfig:
    network: NetworkSpec
    channel: ChannelParams
    optimizer: OptParams
    control: ControlParams
    run: RunParams

    def to_dict(self) -> dict:
        return asdict(self)

    def digest(self) -> str:
        """Stable content hash, recorded in experiment output headers."""
        blob = json.dumps(self.to_dict(), sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# -- strict mapping helpers ------------------------------------------------


def _mapping(value: Any, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r} (allowed: {', '.join(allowed)})")


def _get(mapping: dict, key: str, path: str, default: Any = _REQUIRED) -> Any:
    if key in mapping:
        return mapping[key]
    if default is _REQUIRED:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return default


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
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _listing(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
    return value


# -- section parsers --------------------------------------------------------


def _parse_network(section: Any, qos_by_flow: dict[int, QosSpec]) -> NetworkSpec:
    sec = _mapping(section, "network")
    if not sec:
        raise ConfigError("network: section is required")
    _check_keys(sec, ("nodes", "links", "flows", "extra_interference_sets"), "network")

    nodes = []
    for vi, item in enumerate(_listing(_get(sec, "nodes", "network"), "network.nodes")):
        pair = _listing(item, f"network.nodes[{vi}]")
        if len(pair) != 2:
            raise ConfigError(f"network.nodes[{vi}]: expected [x, y]")
        nodes.append((_number(pair[0], f"network.nodes[{vi}].x"),
                      _number(pair[1], f"network.nodes[{vi}].y")))

    links = []
    for li, item in enumerate(_listing(_get(sec, "links", "network"), "network.links")):
        pair = _listing(item, f"network.links[{li}]")
        if len(pair) != 2:
            raise ConfigError(f"network.links[{li}]: expected [i, j]")
        links.append((_integer(pair[0], f"network.links[{li}].i"),
                      _integer(pair[1], f"network.links[{li}].j")))

    flows = []
    seen_dest: set[int] = set()
    for fi, item in enumerate(_listing(_get(sec, "flows", "network"), "network.flows")):
        fsec = _mapping(item, f"network.flows[{fi}]")
        _check_keys(
            fsec, ("source", "destination", "rate_pkts_per_slot", "routes"),
            f"network.flows[{fi}]",
        )
        src = _integer(_get(fsec, "source", f"network.flows[{fi}]"),
                       f"network.flows[{fi}].source")
        dst = _integer(_get(fsec, "destination", f"network.flows[{fi}]"),
                       f"network.flows[{fi}].destination")
        rate = _number(_get(fsec, "rate_pkts_per_slot", f"network.flows[{fi}]"),
                       f"network.flows[{fi}].rate_pkts_per_slot")
        routes = []
        for ri, route in enumerate(
            _listing(_get(fsec, "routes", f"network.flows[{fi}]"),
                     f"network.flows[{fi}].routes")
        ):
            hops = _listing(route, f"network.flows[{fi}].routes[{ri}]")
            routes.append(tuple(
                _integer(h, f"network.flows[{fi}].routes[{ri}][{hi}]")
                for hi, h in enumerate(hops)
            ))
        flows.append(Flow(source=src, destination=dst, routes=tuple(routes),
                          arrival_rate=rate, qos=qos_by_flow.get(dst)))
        seen_dest.add(dst)

    for fid in qos_by_flow:
        if fid not in seen_dest:
            raise ConfigError(f"control.qos: flow id {fid} matches no flow destination")

    extra = []
    for si, item in enumerate(
        _listing(_get(sec, "extra_interference_sets", "network", []),
                 "network.extra_interference_sets")
    ):
        members = _listing(item, f"network.extra_interference_sets[{si}]")
        extra.append(tuple(
            _integer(m, f"network.extra_interference_sets[{si}][{mi}]")
            for mi, m in enumerate(members)
        ))

    spec = NetworkSpec(positions=tuple(nodes), links=tuple(links),
                       flows=tuple(flows), interference_sets=tuple(extra))
    return derive_interference_sets(spec)


def _parse_qos(section: Any, theta_default: float) -> dict[int, QosSpec]:
    sec = _mapping(section, "control.qos")
    out: dict[int, QosSpec] = {}
    for raw_fid, item in sec.items():
        try:
            fid = int(raw_fid)
        except (TypeError, ValueError):
            raise ConfigError(f"control.qos: flow id {raw_fid!r} is not an integer") from None
        path = f"control.qos[{fid}]"
        qsec = _mapping(item, path)
        _check_keys(
            qsec, ("kind", "target_slots", "deadline_slots", "drop_ratio_target", "theta_hat"),
            path,
        )
        kind = _get(qsec, "kind", path)
        if kind == "none":
            continue
        target = qsec.get("target_slots")
        deadline = qsec.get("deadline_slots")
        ratio = qsec.get("drop_ratio_target")
        theta = qsec.get("theta_hat", theta_default)
        out[fid] = QosSpec(
            kind=kind,
            target_slots=None if target is None else _number(target, f"{path}.target_slots"),
            deadline_slots=None if deadline is None else _integer(deadline, f"{path}.deadline_slots"),
            drop_ratio_target=None if ratio is None else _number(ratio, f"{path}.drop_ratio_target"),
            theta_hat=_number(theta, f"{path}.theta_hat"),
        )
    return out


def _parse_channel(section: Any) -> ChannelParams:
    sec = _mapping(section, "channel")
    _check_keys(
        sec,
        ("rayleigh_scale_constant", "noise_power", "tx_power", "log_base",
         "gain_model", "fixed_gain"),
        "channel",
    )
    fixed = sec.get("fixed_gain")
    return ChannelParams(
        rayleigh_scale_constant=_number(sec.get("rayleigh_scale_constant", 1.0),
                                        "channel.rayleigh_scale_constant"),
        noise_power=_number(sec.get("noise_power", 1.0), "channel.noise_power"),
        tx_power=_number(sec.get("tx_power", 1.0), "channel.tx_power"),
        log_base=str(_get(sec, "log_base", "channel", "e")),
        gain_model=str(_get(sec, "gain_model", "channel", "rayleigh")),
        fixed_gain=None if fixed is None else _number(fixed, "channel.fixed_gain"),
    )


def _parse_optimizer(section: Any) -> OptParams:
    sec = _mapping(section, "optimizer")
    _check_keys(
        sec, ("step_size", "cycles", "projection_repeats", "init_mode", "projection_divisor"),
        "optimizer",
    )
    try:
        return OptParams(
            step_size=_number(sec.get("step_size", 1e-4), "optimizer.step_size"),
            cycles=_integer(sec.get("cycles", 8), "optimizer.cycles"),
            projection_repeats=_integer(sec.get("projection_repeats", 10),
                                        "optimizer.projection_repeats"),
            init_mode=str(sec.get("init_mode", "ones")),
            divisor_mode=str(sec.get("projection_divisor", "coordinates")),
        )
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from None


def _parse_control(section: Any) -> tuple[ControlParams, dict[int, QosSpec]]:
    sec = _mapping(section, "control")
    _check_keys(sec, ("a1", "a2", "safety_stock_pkts", "theta_hat_default", "qos"), "control")
    params = ControlParams(
        a1=_number(sec.get("a1", 1.0), "control.a1"),
        a2=_number(sec.get("a2", 1.0), "control.a2"),
        safety_stock_pkts=_integer(sec.get("safety_stock_pkts", 5),
                                   "control.safety_stock_pkts"),
        theta_hat_default=_number(sec.get("theta_hat_default", 2.0),
                                  "control.theta_hat_default"),
    )
    qos = _parse_qos(sec.get("qos"), params.theta_hat_default)
    return params, qos


def _parse_run(section: Any) -> RunParams:
    sec = _mapping(section, "run")
    _check_keys(sec, ("horizon_slots", "seeds", "trace"), "run")
    seeds = sec.get("seeds", [1])
    seeds = [_integer(s, f"run.seeds[{i}]") for i, s in enumerate(_listing(seeds, "run.seeds"))]
    trace = sec.get("trace", False)
    if not isinstance(trace, bool):
        raise ConfigError("run.trace: expected a boolean")
    return RunParams(
        horizon_slots=_integer(sec.get("horizon_slots", 100_000), "run.horizon_slots"),
        seeds=tuple(seeds),
        trace=trace,
    )


def parse_config(text: str) -> SimConfig:
    """Parse and fully validate a YAML config document."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML: {exc}") from None
    top = _mapping(doc, "config")
    _check_keys(top, ("network", "channel", "optimizer", "control", "run"), "config")
    control, qos = _parse_control(top.get("control"))
    return SimConfig(
        network=_parse_network(top.get("network"), qos),
        channel=_parse_channel(top.get("channel")),
        optimizer=_parse_optimizer(top.get("optimizer")),
        control=control,
        run=_parse_run(top.get("run")),
    )


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# -- programmatic variants (used by presets and tests) -----------------------


def with_qos(config: SimConfig, qos_map: dict[int, QosSpec | None]) -> SimConfig:
    """Return a config whose flows carry the given QoS specs (by flow id)."""
    flows = tuple(
        replace(fl, qos=qos_map.get(fl.destination)) for fl in config.network.flows
    )
    return replace(config, network=replace(config.network, flows=flows))


def with_optimizer(config: SimConfig, **kwargs) -> SimConfig:
    return replace(config, optimizer=replace(config.optimizer, **kwargs))


def with_run(config: SimConfig, **kwargs) -> SimConfig:
    return replace(config, run=replace(config.run, **kwargs))

import argparse
import ast
import json
import math
import re
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml
import pytest

from drainsched import channel as chan
from drainsched import cli
from drainsched.config import (
    _CHECKS,
    _RENAMED,
    _StrictLoader,
    _strict_loader,
    _values,
    ChannelParams,
    ControlParams,
    RunParams,
    load_config,
    parse_config,
    with_qos,
)
from drainsched.control import QosSpec
from drainsched.engine import run_simulation
from drainsched.experiments import build_grid, bundled_preset_config, run_experiment, run_jobs
from drainsched.network import ConfigError, Flow, NetworkSpec
from drainsched.optim import OptParams

MINIMAL = """
network:
  nodes: [[0.0, 0.0], [0.5, 0.5]]
  links: [[0, 1]]
  flows:
    - {source: 0, destination: 1, rate_pkts_per_slot: 0.5, routes: [[0, 1]]}
"""

# Every class whose fields the config reader walks.
READ_CLASSES = [ChannelParams, OptParams, ControlParams, RunParams, QosSpec, NetworkSpec, Flow]


class TestDefaults:
    def test_minimal_document_gets_documented_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.channel.tx_power == 1.0
        assert cfg.channel.noise_power == 1.0
        assert cfg.channel.rayleigh_scale_constant == 1.0
        assert cfg.channel.log_base == "e"
        assert cfg.control.safety_stock_pkts == 5
        assert cfg.control.a1 == 1.0 and cfg.control.a2 == 1.0
        assert cfg.optimizer.step_size == 1e-4
        assert cfg.optimizer.cycles == 8
        assert cfg.optimizer.projection_repeats == 10
        assert cfg.optimizer.init_mode == "ones"
        assert cfg.run.horizon_slots == 100_000
        assert cfg.run.seeds == (1,)

    def test_minimal_document_equals_dataclass_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.channel == ChannelParams()
        assert cfg.optimizer == OptParams()
        assert cfg.control == ControlParams()
        assert cfg.run == RunParams()

    @pytest.mark.parametrize("cls", READ_CLASSES)
    def test_every_field_annotation_has_a_check(self, cls):
        assert {f.type for f in fields(cls)} <= set(_CHECKS)

    def test_no_field_is_read_apart(self):
        # _values reads every key of a section that sets them all, and builds
        # control.qos's specs itself.
        doc = yaml.safe_load(EVERY_KEY)
        sections = {
            NetworkSpec: doc["network"], Flow: doc["network"]["flows"][0],
            ChannelParams: doc["channel"], OptParams: doc["optimizer"],
            ControlParams: doc["control"], RunParams: doc["run"],
        }
        for cls, sec in sections.items():
            assert list(_values(cls, sec, "section")) == [f.name for f in fields(cls)]
        qos = _values(ControlParams, doc["control"], "control")["qos"]
        assert qos == parse_config(EVERY_KEY).control.qos

    def test_every_renamed_field_is_read(self):
        names = [f.name for cls in READ_CLASSES for f in fields(cls)]
        assert all(names.count(name) == 1 for name in _RENAMED)

    def test_interference_sets_are_derived(self):
        cfg = parse_config(MINIMAL)
        assert cfg.network.interference_sets  # node sets exist after parsing


EVERY_KEY = """
network:
  nodes: [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]
  links: [[0, 1], [0, 2]]
  flows:
    - {source: 0, destination: 1, rate_pkts_per_slot: 0.5, routes: [[0, 1]]}
    - {source: 0, destination: 2, rate_pkts_per_slot: 0.5, routes: [[0, 2]]}
  extra_interference_sets: [[0, 1]]
channel:
  rayleigh_scale_constant: 2.0
  noise_power: 0.5
  tx_power: 3.0
  log_base: 2
  fixed_gain: 4.0
optimizer:
  step_size: 0.0002
  cycles: 3
  projection_repeats: 4
  init_mode: zeros
  projection_divisor: links
control:
  a1: 2.5
  a2: 0.5
  safety_stock_pkts: 2
  qos:
    1: {kind: mean_delay, target_slots: 25}
    2: {kind: hard_deadline, deadline_slots: 40, drop_ratio_target: 0.1, theta_hat: 1.5}
run:
  horizon_slots: 50
  seeds: [3, 4]
"""


class TestKeyFieldMap:
    def test_every_key_set_equals_dataclasses_built_directly(self):
        cfg = parse_config(EVERY_KEY)
        got = (cfg.channel, cfg.optimizer, cfg.control, cfg.run)
        want = (
            ChannelParams(rayleigh_scale_constant=2.0, noise_power=0.5, tx_power=3.0,
                          log_base="2", fixed_gain=4.0),
            OptParams(step_size=2e-4, cycles=3, projection_repeats=4, init_mode="zeros",
                      divisor_mode="links"),
            ControlParams(a1=2.5, a2=0.5, safety_stock_pkts=2, qos={
                1: QosSpec(kind="mean_delay", target_slots=25.0, theta_hat=2.0),
                2: QosSpec(kind="hard_deadline", deadline_slots=40, drop_ratio_target=0.1,
                           theta_hat=1.5),
            }),
            RunParams(horizon_slots=50, seeds=(3, 4)),
        )
        # repr, unlike ==, tells 25 from 25.0, and so does the config digest
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("section, allowed", [
        ("channel", "rayleigh_scale_constant, noise_power, tx_power, log_base, fixed_gain"),
        ("optimizer", "step_size, cycles, projection_repeats, init_mode, projection_divisor"),
        ("control", "a1, a2, safety_stock_pkts, qos"),
        ("run", "horizon_slots, seeds"),
        ("control.qos[1]", "kind, target_slots, deadline_slots, drop_ratio_target, theta_hat"),
    ])
    def test_unknown_key_lists_allowed_keys_in_order(self, section, allowed):
        if section == "control.qos[1]":
            doc = MINIMAL + "\ncontrol: {qos: {1: {kind: mean_delay, bogus: 1}}}\n"
        else:
            doc = MINIMAL + f"\n{section}: {{bogus: 1}}\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert str(exc.value) == f"{section}: unknown key 'bogus' (allowed: {allowed})"

    @pytest.mark.parametrize("section, message", [
        ("channel: {gain_model: rayleigh}",
         "channel: unknown key 'gain_model' (allowed: rayleigh_scale_constant, noise_power, "
         "tx_power, log_base, fixed_gain)"),
        ("control: {theta_hat_default: 2.0}",
         "control: unknown key 'theta_hat_default' (allowed: a1, a2, safety_stock_pkts, qos)"),
        ("run: {trace: true}", "run: unknown key 'trace' (allowed: horizon_slots, seeds)"),
        ("control: {qos: {1: {kind: none}}}",
         "control.qos[1].kind must be one of ('mean_delay', 'hard_deadline'), got 'none'"),
    ], ids=["gain_model", "theta_hat_default", "trace", "kind-none"])
    def test_removed_switch_rejected(self, section, message):
        # One switch per setting: fixed_gain alone selects the fixed channel,
        # a spec's theta_hat defaults to QosSpec's, --trace alone writes the
        # trace, and a flow with no spec has no entry.
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n" + section + "\n")
        assert str(exc.value) == message

    def test_fixed_gain_alone_selects_the_fixed_channel(self, monkeypatch):
        def draw_gains(*args):
            raise AssertionError("Rayleigh gains drawn for a fixed channel")

        monkeypatch.setattr(chan, "draw_gains", draw_gains)
        cfg = parse_config(MINIMAL + "\nchannel: {fixed_gain: 4.0}\n")
        assert run_simulation(cfg, horizon=20, seed=1).flows[1].delivered > 0


class TestErrors:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'phy'"):
            parse_config(MINIMAL + "\nphy: {}\n")

    def test_unknown_nested_key(self):
        doc = MINIMAL + "\nchannel: {bandwidth: 5}\n"
        with pytest.raises(ConfigError, match="channel: unknown key 'bandwidth'"):
            parse_config(doc)

    def test_missing_network_section(self):
        with pytest.raises(ConfigError, match="network"):
            parse_config("run: {horizon_slots: 10}")

    def test_route_through_undefined_link_names_route(self):
        doc = """
network:
  nodes: [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]
  links: [[0, 1]]
  flows:
    - {source: 0, destination: 2, rate_pkts_per_slot: 0.5, routes: [[0, 1, 2]]}
"""
        with pytest.raises(ConfigError, match=r"routes\[0\] hop 1"):
            parse_config(doc)

    def test_qos_for_unknown_flow(self):
        doc = MINIMAL + """
control:
  qos:
    9: {kind: mean_delay, target_slots: 10}
"""
        with pytest.raises(ConfigError, match="flow id 9"):
            parse_config(doc)

    def test_invalid_yaml(self):
        with pytest.raises(ConfigError, match="invalid YAML"):
            parse_config("network: [unclosed")

    def test_bad_number_type_named(self):
        doc = MINIMAL + "\nchannel: {noise_power: loud}\n"
        with pytest.raises(ConfigError, match="channel.noise_power"):
            parse_config(doc)

    @pytest.mark.parametrize("section, message", [
        ("run: {seeds: [2, 1.5]}", r"run.seeds\[1\]: expected an integer, got 1.5"),
        ("optimizer: {cycles: 2.0}", "^optimizer.cycles: expected an integer, got 2.0"),
        ("control: {qos: {1: {kind: hard_deadline, deadline_slots: 4.5}}}",
         r"control.qos\[1\].deadline_slots: expected an integer, got 4.5"),
        ("control: {qos: {1: {target_slots: 5}}}",
         r"control.qos\[1\]: missing required key 'kind'"),
    ])
    def test_bad_value_named_by_path(self, section, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(MINIMAL + "\n" + section + "\n")

    @pytest.mark.parametrize("value", [".nan", "-.inf", "1" + "0" * 400])
    def test_non_finite_number_named(self, value):
        doc = MINIMAL + f"\ncontrol: {{a1: {value}}}\n"
        # The reader checks only the type; ControlParams' number rule names the key.
        with pytest.raises(ConfigError, match="^control.a1 must be finite and > 0, got "):
            parse_config(doc)

    @pytest.mark.parametrize("field, value", [
        ("tx_power", math.inf),
        ("noise_power", math.nan),
        ("rayleigh_scale_constant", math.inf),
        ("fixed_gain", math.nan),
    ])
    def test_non_finite_channel_value_named(self, field, value):
        # dataclasses.replace skips the YAML parser; the channel checks still apply
        channel = parse_config(MINIMAL).channel
        with pytest.raises(ConfigError, match=f"channel.{field} must be finite"):
            replace(channel, **{field: value})

    @pytest.mark.parametrize("field, value, rule", [
        pytest.param("a1", math.nan, "finite", id="a1-nan"),
        pytest.param("a2", math.inf, "finite", id="a2-inf"),
        pytest.param("safety_stock_pkts", math.nan, "an integer, got nan",
                     id="safety_stock_pkts-nan"),
    ])
    def test_non_finite_control_value_named(self, field, value, rule):
        control = parse_config(MINIMAL).control
        with pytest.raises(ConfigError, match=f"^control.{field} must be {rule}"):
            replace(control, **{field: value})

    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_packet_count_named(self, value):
        # dataclasses.replace skips the parser; a fractional safety stock or
        # deadline would move and count fractions of packets.
        control = parse_config(MINIMAL).control
        with pytest.raises(ConfigError,
                           match=f"^control.safety_stock_pkts must be an integer, got {value}"):
            replace(control, safety_stock_pkts=value)
        spec = QosSpec(kind="hard_deadline", deadline_slots=100, drop_ratio_target=0.02)
        with pytest.raises(ConfigError, match=f"^qos.deadline_slots must be an integer, got {value}"):
            replace(spec, deadline_slots=value)

    def test_numpy_integer_packet_counts_stored_as_int(self):
        # A numpy safety stock made every delivered count a numpy scalar,
        # which the JSON export cannot write.
        cfg = parse_config(MINIMAL)
        cfg = replace(cfg, control=replace(cfg.control, safety_stock_pkts=np.int64(0)))
        assert type(cfg.control.safety_stock_pkts) is int
        spec = QosSpec(kind="hard_deadline", deadline_slots=np.int32(9), drop_ratio_target=0.1)
        assert spec.deadline_slots == 9 and type(spec.deadline_slots) is int
        report = run_simulation(cfg, horizon=20, seed=1)
        assert report.flows[1].delivered > 0
        json.dumps(report.to_dict())

    @pytest.mark.parametrize("section, path", [
        ("control: {{safety_stock_pkts: {}}}", "control.safety_stock_pkts"),
        ("control: {{qos: {{1: {{kind: hard_deadline, deadline_slots: {},"
         " drop_ratio_target: 0.1}}}}}}", r"control.qos\[1\].deadline_slots"),
    ], ids=["safety_stock_pkts", "deadline_slots"])
    @pytest.mark.parametrize("value", ["2.5", "true"])
    def test_non_integer_packet_count_parsed(self, section, path, value):
        with pytest.raises(ConfigError, match=f"^{path}: expected an integer"):
            parse_config(MINIMAL + "\n" + section.format(value) + "\n")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_step_size_named(self, value):
        optimizer = parse_config(MINIMAL).optimizer
        with pytest.raises(ValueError, match="step_size must be finite"):
            replace(optimizer, step_size=value)

    @pytest.mark.parametrize("field", ["cycles", "projection_repeats"])
    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, True])
    def test_non_integer_optimizer_count_named(self, field, value):
        optimizer = parse_config(MINIMAL).optimizer
        with pytest.raises(ConfigError, match=f"^optimizer.{field} must be an integer"):
            replace(optimizer, **{field: value})

    def test_numpy_integer_optimizer_counts_accepted(self):
        optimizer = replace(parse_config(MINIMAL).optimizer, cycles=np.int64(3),
                            projection_repeats=np.int32(2))
        assert (optimizer.cycles, optimizer.projection_repeats) == (3, 2)

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, True])
    def test_non_integer_horizon_named(self, value):
        run = parse_config(MINIMAL).run
        with pytest.raises(ConfigError, match="run.horizon_slots must be an integer"):
            replace(run, horizon_slots=value)

    @pytest.mark.parametrize("value", [1.5, math.nan, math.inf, True])
    def test_non_integer_seed_named(self, value):
        with pytest.raises(ConfigError, match=r"^run.seeds\[0\] must be an integer"):
            RunParams(seeds=(value,))

    def test_numpy_integers_accepted(self):
        run = RunParams(horizon_slots=np.int64(50), seeds=(np.int32(2),))
        assert run.horizon_slots == 50
        assert run.seeds == (2,) and type(run.seeds[0]) is int

    @pytest.mark.parametrize("section, field, value", [
        ("run", "horizon_slots", 300),
        ("optimizer", "cycles", 8),
        ("optimizer", "cycles", 3),
        ("optimizer", "projection_repeats", 10),
        ("optimizer", "projection_repeats", 4),
    ])
    @pytest.mark.parametrize("np_type", [np.int64, np.int32, np.uint16])
    def test_numpy_integer_stored_as_int_and_digest_unchanged(
        self, section, field, value, np_type
    ):
        # A numpy scalar kept as is serialised as its str(), so the same run
        # had two config digests.
        base = bundled_preset_config()

        def with_value(v):
            return replace(base, **{section: replace(getattr(base, section), **{field: v})})

        cfg = with_value(np_type(value))
        assert type(getattr(getattr(cfg, section), field)) is int
        assert cfg.digest() == with_value(value).digest()
        assert cfg == with_value(value)

    def test_negative_seed_rejected(self):
        doc = MINIMAL + "\nrun: {seeds: [-1]}\n"
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(doc)

    @pytest.mark.parametrize("key", ["init_mode", "projection_divisor"])
    def test_bad_optimizer_mode_named(self, key):
        doc = MINIMAL + f"\noptimizer: {{{key}: bogus}}\n"
        with pytest.raises(ConfigError, match=f"^optimizer.{key} must be one of .*, got 'bogus'$"):
            parse_config(doc)


class TestQosParsing:
    def test_qos_keyed_by_flow_id(self):
        doc = MINIMAL + """
control:
  qos:
    1: {kind: mean_delay, target_slots: 25}
"""
        cfg = parse_config(doc)
        spec = cfg.control.qos[1]
        assert spec == QosSpec(kind="mean_delay", target_slots=25.0)

    def test_hard_deadline_parsing(self):
        doc = MINIMAL + """
control:
  qos:
    1: {kind: hard_deadline, deadline_slots: 180, drop_ratio_target: 0.02, theta_hat: 2.0}
"""
        cfg = parse_config(doc)
        spec = cfg.control.qos[1]
        assert spec.deadline_slots == 180
        assert spec.drop_ratio_target == 0.02

    @pytest.mark.parametrize("spec, message", [
        ("{kind: mean_delay}", ": mean_delay requires a finite target_slots > 0"),
        ("{kind: mean_delay, target_slots: 5, deadline_slots: 9}",
         ": mean_delay takes only target_slots"),
        ("{kind: hard_deadline, drop_ratio_target: 0.1}",
         ": hard_deadline requires a finite deadline_slots > 0"),
        ("{kind: hard_deadline, deadline_slots: 9}",
         ": hard_deadline requires drop_ratio_target in (0, 1)"),
        ("{kind: hard_deadline, deadline_slots: 9, drop_ratio_target: 0.1, target_slots: 5}",
         ": hard_deadline takes no target_slots"),
        ("{kind: mean_delay, target_slots: 5, theta_hat: 1.0}",
         ".theta_hat must be finite and > 1, got 1.0"),
        ("{kind: deadline}", ".kind must be one of ('mean_delay', 'hard_deadline'), got 'deadline'"),
    ])
    def test_spec_error_names_its_flow(self, spec, message):
        # Flow 7's spec is good and flow 8's is not: the parsed entry's error
        # names flow 8, where the same spec built in code is called qos.
        text = resources.files("drainsched.presets").joinpath("mesh10.yaml").read_text()
        qos = f"  qos: {{7: {{kind: mean_delay, target_slots: 40}}, 8: {spec}}}\n"
        text = text.replace("  safety_stock_pkts: 5\n", "  safety_stock_pkts: 5\n" + qos)
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == "control.qos[8]" + message
        with pytest.raises(ConfigError) as exc:
            QosSpec(**yaml.safe_load(spec))
        assert str(exc.value) == "qos" + message

    @pytest.mark.parametrize("entry, message", [
        ("{kind: none, target_slots: abc, theta_hat: .nan}",
         r"control.qos\[1\].target_slots: expected a number, got 'abc'"),
        ("{kind: none, theta_hat: .nan}",
         r"control.qos\[1\].theta_hat must be finite and > 1, got nan"),
    ], ids=["target_slots", "theta_hat"])
    def test_kind_none_values_still_checked(self, entry, message):
        doc = MINIMAL + f"\ncontrol: {{qos: {{1: {entry}}}}}\n"
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)


    @pytest.mark.parametrize("key", ["1.5", "1.0", "true", "'1'"])
    def test_flow_id_must_be_an_integer(self, key):
        # Each key used to be read with int() and taken for flow 1.
        doc = MINIMAL + f"\ncontrol: {{qos: {{{key}: {{kind: mean_delay, target_slots: 5}}}}}}\n"
        with pytest.raises(ConfigError, match="^control.qos: flow id must be an integer, got "):
            parse_config(doc)


SPEC = QosSpec(kind="mean_delay", target_slots=5.0)


def _chain(links=((0, 1), (1, 2)), source=0, destination=2, route=(0, 1, 2), extra=()):
    """A valid three-node network built in code, one of its ids replaced."""
    return NetworkSpec(positions=((0.0, 0.0), (0.5, 0.5), (1.0, 0.0)), links=links,
                       flows=(Flow(source, destination, (route,), 0.5),),
                       interference_sets=extra)


def _oracle_check(**option):
    return cli._cmd_oracle_check(
        argparse.Namespace(**({"instances": 1, "base_seed": 0, "cycles": 50} | option))
    )


# Every integer input built in code: (the name its errors give, the bound,
# a call that builds it with value v, given a scratch directory).
INTEGER_SITES = {
    "cycles": ("optimizer.cycles", 1, lambda v, _: OptParams(cycles=v)),
    "projection_repeats": ("optimizer.projection_repeats", 1,
                           lambda v, _: OptParams(projection_repeats=v)),
    "horizon_slots": ("run.horizon_slots", 0, lambda v, _: RunParams(horizon_slots=v)),
    "seed": ("run.seeds[1]", 0, lambda v, _: RunParams(seeds=(1, v))),
    "safety_stock_pkts": ("control.safety_stock_pkts", 0,
                          lambda v, _: ControlParams(safety_stock_pkts=v)),
    "qos-flow-id": ("control.qos: flow id", 0, lambda v, _: ControlParams(qos={v: SPEC})),
    "deadline_slots": ("qos.deadline_slots", 1, lambda v, _: QosSpec(
        kind="hard_deadline", deadline_slots=v, drop_ratio_target=0.1)),
    "run_jobs-workers": ("workers", 1, lambda v, _: run_jobs([], workers=v)),
    "run_experiment-workers": ("workers", 1, lambda v, tmp: run_experiment(
        "table2", tmp / "out", seeds=[1], horizon=30, workers=v)),
    "oracle-check-instances": ("--instances", 1, lambda v, _: _oracle_check(instances=v)),
    "oracle-check-base-seed": ("--base-seed", 0, lambda v, _: _oracle_check(base_seed=v)),
    "oracle-check-cycles": ("--cycles", 1, lambda v, _: _oracle_check(cycles=v)),
    "link-i": ("network.links[0].i", 0, lambda v, _: _chain(links=((v, 1), (1, 2)))),
    "link-j": ("network.links[1].j", 0, lambda v, _: _chain(links=((0, 1), (1, v)))),
    "source": ("network.flows[0].source", 0, lambda v, _: _chain(source=v)),
    "destination": ("network.flows[0].destination", 0, lambda v, _: _chain(destination=v)),
    "route-node": ("network.flows[0].routes[0][1]", 0, lambda v, _: _chain(route=(0, v, 2))),
    "extra-set-index": ("network.extra_interference_sets[0][0]", 0,
                        lambda v, _: _chain(extra=((v,),))),
}


class TestIntegerRule:
    """network.integer's rule, met at every integer input with its two messages."""

    @pytest.mark.parametrize("site", list(INTEGER_SITES))
    @pytest.mark.parametrize("value", [2.5, math.nan, True, "2"], ids=["2.5", "nan", "True", "str"])
    def test_non_integer_rejected(self, tmp_path, site, value):
        name, _, build = INTEGER_SITES[site]
        with pytest.raises(ConfigError) as exc:
            build(value, tmp_path)
        assert str(exc.value) == f"{name} must be an integer, got {value!r}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("site", list(INTEGER_SITES))
    def test_below_the_bound_rejected(self, tmp_path, site):
        name, low, build = INTEGER_SITES[site]
        with pytest.raises(ConfigError) as exc:
            build(low - 1, tmp_path)
        assert str(exc.value) == f"{name} must be >= {low}, got {low - 1}"
        assert not (tmp_path / "out").exists()


class TestQosFlowIds:
    """Every way of setting control.qos meets the same flow id checks."""

    def test_with_qos_unknown_flow(self):
        with pytest.raises(ConfigError, match="^control.qos: flow id 99 matches no flow"):
            with_qos(bundled_preset_config(), {99: SPEC})

    def test_replace_unknown_flow(self):
        cfg = bundled_preset_config()
        with pytest.raises(ConfigError, match="^control.qos: flow id 99 matches no flow"):
            replace(cfg, control=replace(cfg.control, qos={99: SPEC}))

    def test_grid_on_a_base_without_its_flows(self):
        # table1 sets QoS on flows 7 and 8; MINIMAL has only flow 1.
        with pytest.raises(ConfigError, match="^control.qos: flow id 7 matches no flow"):
            build_grid("table1", base=parse_config(MINIMAL))

    def test_with_qos_shares_the_network(self):
        cfg = bundled_preset_config()
        got = with_qos(cfg, {7: SPEC})
        assert got.network is cfg.network
        assert got.control.qos == {7: SPEC}

    @pytest.mark.parametrize("spec", [None, "mean_delay", {"kind": "mean_delay"}])
    def test_entry_that_is_not_a_spec_rejected(self, spec):
        # A flow without QoS has no entry; None is not a second way to say so.
        with pytest.raises(ConfigError, match=r"^control.qos\[8\] must be a QosSpec, got "):
            with_qos(bundled_preset_config(), {7: SPEC, 8: spec})

    @pytest.mark.parametrize("fid", [1.0, True, "7"])
    def test_non_integer_id_rejected_by_replace(self, fid):
        with pytest.raises(ConfigError, match="^control.qos: flow id must be an integer, got "):
            ControlParams(qos={fid: SPEC})

    def test_numpy_integer_id_stored_as_int(self):
        cfg = bundled_preset_config()
        got = with_qos(cfg, {np.int64(7): SPEC})
        assert [type(fid) for fid in got.control.qos] == [int]
        assert got.digest() == with_qos(cfg, {7: SPEC}).digest()


class TestDuplicateKeys:
    @pytest.mark.parametrize("extra, key, line", [
        ("run: {horizon_slots: 5}\nrun: {horizon_slots: 6}", "'run'", 8),
        ("control:\n  a1: 1.0\n  a1: 7.0", "'a1'", 9),
        ("control:\n  qos:\n    1: {kind: mean_delay, target_slots: 5}\n"
         "    true: {kind: mean_delay, target_slots: 6}", "True", 10),
    ], ids=["top-level", "section", "qos-1-and-true"])
    def test_repeated_key_named_with_its_line(self, extra, key, line):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + extra + "\n")
        assert str(exc.value) == f"config: duplicate key {key} at line {line}"

    def test_repeated_key_in_a_flow(self):
        doc = MINIMAL.replace("source: 0,", "source: 0, source: 1,")
        with pytest.raises(ConfigError, match="^config: duplicate key 'source' at line 6$"):
            parse_config(doc)

    def test_merge_may_override(self):
        doc = MINIMAL.replace("  flows:\n", "  flows:\n    - &f ").replace(
            "    - {source", "{source", 1
        ) + "    - {<<: *f, rate_pkts_per_slot: 0.25}\n"
        rates = [fl.arrival_rate for fl in parse_config(doc).network.flows]
        assert rates == [0.5, 0.25]


class TestBundledPreset:
    def test_parses_to_expected_topology(self):
        cfg = bundled_preset_config()
        net = cfg.network
        assert net.n_nodes == 10
        assert net.flow_ids == (7, 8, 9)
        assert all(fl.arrival_rate == 3.3 for fl in net.flows)
        routes = {fl.source: fl.routes for fl in net.flows}
        assert routes[0] == ((0, 1, 3, 7, 9), (0, 4, 9), (0, 2, 6, 8, 9))
        assert routes[1] == ((1, 3, 7),)
        assert routes[5] == ((5, 7),)
        assert routes[2] == ((2, 6, 8),)
        assert routes[4] == ((4, 9),)
        assert cfg.control.safety_stock_pkts == 5
        assert cfg.optimizer.step_size == 1e-4

    def test_network_is_validated_once(self, monkeypatch):
        # derive_interference_sets adds only the node sets; it does not check
        # the parsed network a second time.
        calls = []
        validate = NetworkSpec._validate
        monkeypatch.setattr(NetworkSpec, "_validate", lambda self: calls.append(validate(self)))
        bundled_preset_config()
        assert len(calls) == 1

    def test_digest_is_stable(self):
        assert bundled_preset_config().digest() == bundled_preset_config().digest()

    def test_digest_is_pinned(self):
        # Every experiment CSV header records this digest; a default read with
        # another type (1 instead of 1.0) changes it.
        assert bundled_preset_config().digest() == "ffc039b8e7c4ffec"

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "net.yaml"
        path.write_text(MINIMAL)
        cfg = load_config(path)
        assert cfg.network.flow_ids == (1,)


FLOW = {"source": 0, "destination": 1, "rate_pkts_per_slot": 0.5, "routes": [[0, 1]]}
NETWORK = {"nodes": [[0.0, 0.0], [0.5, 0.5]], "links": [[0, 1]], "flows": [FLOW]}


def _drop_none(mapping):
    return {k: v for k, v in mapping.items() if v is not None}


def _network(**changes):
    """MINIMAL's network section with keys replaced (None deletes one)."""
    return _drop_none(NETWORK | changes)


def _flow(**changes):
    """MINIMAL's network section with its flow's keys replaced (None deletes one)."""
    return _network(flows=[_drop_none(FLOW | changes)])


NAN = float("nan")

# (network section, extra top-level sections, exact message)
NETWORK_ERRORS = {
    "null-section": (None, {}, "network: section is required"),
    "empty-section": ({}, {}, "network: section is required"),
    "section-not-mapping": ([1], {}, "network: expected a mapping, got list"),
    "unknown-key": (_network(bogus=1), {},
                    "network: unknown key 'bogus' (allowed: nodes, links, flows, "
                    "extra_interference_sets)"),
    "missing-nodes": (_network(nodes=None), {}, "network: missing required key 'nodes'"),
    "missing-links": (_network(links=None), {}, "network: missing required key 'links'"),
    "missing-flows": (_network(flows=None), {}, "network: missing required key 'flows'"),
    "nodes-not-list": (_network(nodes=5), {}, "network.nodes: expected a list, got int"),
    "node-not-list": (_network(nodes=[5]), {}, "network.nodes[0]: expected a list, got int"),
    "node-short": (_network(nodes=[[0.0]]), {}, "network.nodes[0]: expected [x, y]"),
    "node-long": (_network(nodes=[[0.0, 0.0], [0.5, 0.5, 0.5]]), {},
                  "network.nodes[1]: expected [x, y]"),
    "node-y-text": (_network(nodes=[[0.0, 0.0], [0.5, "a"]]), {},
                    "network.nodes[1].y: expected a number, got 'a'"),
    "node-x-nan": (_network(nodes=[[NAN, 0.0], [0.5, 0.5]]), {},
                   "network.nodes[0].x must be finite, got nan"),
    "no-nodes": (_network(nodes=[], links=[], flows=[]), {},
                 "network.nodes: at least one node is required"),
    "links-not-list": (_network(links={"a": 1}), {}, "network.links: expected a list, got dict"),
    "link-long": (_network(links=[[0, 1, 2]]), {}, "network.links[0]: expected [i, j]"),
    "link-j-float": (_network(links=[[0, 1.0]]), {},
                     "network.links[0].j: expected an integer, got 1.0"),
    "link-i-bool": (_network(links=[[True, 1]]), {},
                    "network.links[0].i: expected an integer, got True"),
    "link-out-of-range": (_network(links=[[0, 1], [0, 5]]), {},
                          "network.links[1]: endpoint out of range in (0, 5)"),
    "self-link": (_network(links=[[0, 1], [1, 1]]), {},
                  "network.links[1]: self-link (1, 1) not allowed"),
    "duplicate-link": (_network(links=[[0, 1], [0, 1]]), {},
                       "network.links[1]: duplicate link (0, 1)"),
    "flows-not-list": (_network(flows=3), {}, "network.flows: expected a list, got int"),
    "flow-not-mapping": (_network(flows=[5]), {},
                         "network.flows[0]: expected a mapping, got int"),
    "flow-null": (_network(flows=[None]), {},
                  "network.flows[0]: missing required key 'source'"),
    "missing-source": (_flow(source=None), {},
                       "network.flows[0]: missing required key 'source'"),
    "missing-destination": (_flow(destination=None), {},
                            "network.flows[0]: missing required key 'destination'"),
    "missing-rate": (_flow(rate_pkts_per_slot=None), {},
                     "network.flows[0]: missing required key 'rate_pkts_per_slot'"),
    "missing-routes": (_flow(routes=None), {},
                       "network.flows[0]: missing required key 'routes'"),
    # The parent listed rate_pkts_per_slot before routes; keys follow Flow's fields.
    "flow-unknown-key": (_flow(bogus=1), {},
                         "network.flows[0]: unknown key 'bogus' (allowed: source, "
                         "destination, routes, rate_pkts_per_slot)"),
    "source-text": (_flow(source="a"), {},
                    "network.flows[0].source: expected an integer, got 'a'"),
    "rate-text": (_flow(rate_pkts_per_slot="x"), {},
                  "network.flows[0].rate_pkts_per_slot: expected a number, got 'x'"),
    "rate-negative": (_flow(rate_pkts_per_slot=-1), {},
                      "network.flows[0].rate_pkts_per_slot must be finite and >= 0 and"
                      " <= 9.223372006484771e+18, got -1"),
    "routes-not-list": (_flow(routes=5), {},
                        "network.flows[0].routes: expected a list, got int"),
    "route-not-list": (_flow(routes=[5]), {},
                       "network.flows[0].routes[0]: expected a list, got int"),
    "hop-float": (_flow(routes=[[0, 1.5]]), {},
                  "network.flows[0].routes[0][1]: expected an integer, got 1.5"),
    "no-routes": (_flow(routes=[]), {}, "network.flows[0]: needs at least one route"),
    "route-wrong-start": (_flow(routes=[[1, 0]]), {},
                          "network.flows[0].routes[0]: route starts at 1, flow source is 0"),
    "source-out-of-range": (_flow(source=4), {},
                            "network.flows[0]: source/destination out of range"),
    "extra-not-list": (_network(extra_interference_sets=3), {},
                       "network.extra_interference_sets: expected a list, got int"),
    "extra-null": (NETWORK | {"extra_interference_sets": None}, {},
                   "network.extra_interference_sets: expected a list, got NoneType"),
    "extra-set-not-list": (_network(extra_interference_sets=[3]), {},
                           "network.extra_interference_sets[0]: expected a list, got int"),
    "extra-member-text": (_network(extra_interference_sets=[[0, "a"]]), {},
                          "network.extra_interference_sets[0][1]: expected an integer, "
                          "got 'a'"),
    "extra-empty-set": (_network(extra_interference_sets=[[]]), {},
                        "network.extra_interference_sets[0]: empty set"),
    "extra-out-of-range": (_network(extra_interference_sets=[[4]]), {},
                           "network.extra_interference_sets[0]: link index 4 out of range"),
    "qos-unknown-flow": (_network(),
                         {"control": {"qos": {9: {"kind": "mean_delay", "target_slots": 5}}}},
                         "control.qos: flow id 9 matches no flow destination"),
    # The parent reported the QoS flow id first; the whole network section is
    # now read before flow ids are matched.
    "qos-unknown-flow-and-bad-extra": (
        _network(extra_interference_sets=[["a"]]),
        {"control": {"qos": {9: {"kind": "mean_delay", "target_slots": 5}}}},
        "network.extra_interference_sets[0][0]: expected an integer, got 'a'"),
    # The parent built each flow as soon as it was read; flows are now built
    # after the whole network section is read.
    "no-routes-and-bad-extra": (
        _flow(routes=[]) | {"extra_interference_sets": [["a"]]}, {},
        "network.extra_interference_sets[0][0]: expected an integer, got 'a'"),
}


class TestNetworkErrors:
    @pytest.mark.parametrize("case", list(NETWORK_ERRORS))
    def test_message(self, case):
        network, sections, message = NETWORK_ERRORS[case]
        doc = {"network": network} | sections
        with pytest.raises(ConfigError) as exc:
            parse_config(yaml.safe_dump(doc))
        assert str(exc.value) == message


class TestReadmeExample:
    def test_yaml_block_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        cfg = parse_config(block)
        assert cfg.network.flow_ids == (1, 2)
        assert cfg.control.qos[1].kind == "hard_deadline"
        assert cfg.control.qos[2].kind == "mean_delay"


def yaml_documents():
    """Every YAML text these tests read: the bundled preset, the README block,
    each string literal of this file that holds a mapping key, alone and
    after MINIMAL, and the NETWORK_ERRORS documents."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    literals = sorted({
        node.value for node in ast.walk(ast.parse(Path(__file__).read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and ": " in node.value
    })
    return [
        (root / "src" / "drainsched" / "presets" / "mesh10.yaml").read_text(encoding="utf-8"),
        block,
        *literals,
        *(MINIMAL + "\n" + text for text in literals),
        *(yaml.safe_dump({"network": network} | sections)
          for network, sections, _ in NETWORK_ERRORS.values()),
    ]


def loaded(text, loader):
    """What yaml.load gives for text: the document's repr, or the error (for
    invalid YAML only its class: libyaml words and marks the problem its own
    way)."""
    try:
        return "document", repr(yaml.load(text, Loader=loader))
    except ConfigError as exc:
        return "ConfigError", str(exc)
    except yaml.YAMLError as exc:
        return type(exc).__name__, None


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
class TestLibyamlLoader:
    """The strict loader runs on libyaml's parser where PyYAML has it; the
    documents and the duplicate-key messages are those of the pure-Python
    parser."""

    def test_strict_loader_is_based_on_libyaml(self):
        assert issubclass(_StrictLoader, yaml.CSafeLoader)

    def test_same_documents_and_errors_from_both_parsers(self):
        pure, fast = _strict_loader(yaml.SafeLoader), _strict_loader(yaml.CSafeLoader)
        docs = yaml_documents()
        assert len(docs) > 100
        outcomes = [loaded(text, pure) for text in docs]
        assert [loaded(text, fast) for text in docs] == outcomes
        kinds = {kind for kind, _ in outcomes}
        assert {"document", "ConfigError"} <= kinds

    @pytest.mark.parametrize("base", ["SafeLoader", "CSafeLoader"])
    def test_duplicate_key_message_from_either_parser(self, base):
        loader = _strict_loader(getattr(yaml, base))
        for extra, key, line in [
            ("run: {horizon_slots: 5}\nrun: {horizon_slots: 6}", "'run'", 8),
            ("control:\n  qos:\n    1: {kind: none}\n    true: {kind: none}", "True", 10),
        ]:
            with pytest.raises(ConfigError) as exc:
                yaml.load(MINIMAL + extra + "\n", Loader=loader)
            assert str(exc.value) == f"config: duplicate key {key} at line {line}"

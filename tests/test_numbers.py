"""The number rule: every real-valued input goes through network.number.

One table names each site that reads a real number, the name its error
carries and the bound it enforces; every site rejects NaN, ±inf, a string,
a bool and a value past its bound with number's exact message. A scan of
the package keeps the rule single.
"""

import ast
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import drainsched
from drainsched.channel import draw_gains, fixed_gains, rate_table
from drainsched.config import ChannelParams, ControlParams
from drainsched.control import QosSpec, next_review_time
from drainsched.engine import Simulation
from drainsched.experiments import bundled_preset_config
from drainsched.network import ConfigError, Flow, Halfspace, NetworkSpec, number
from drainsched.optim import OptParams, WeightVector

RATE_LIMIT = 9.223372006484771e18  # numpy's Poisson limit
TWO_NODES = ((0.0, 0.0), (0.5, 0.0))


def _net(positions=TWO_NODES, rate=1.0):
    return NetworkSpec(positions=positions, links=((0, 1),),
                       flows=(Flow(0, 1, ((0, 1),), rate),))


# site: (build with the value, the name in the error, its bounds, a value past them)
SITES = {
    "ChannelParams.rayleigh_scale_constant": (
        lambda v: ChannelParams(rayleigh_scale_constant=v),
        "channel.rayleigh_scale_constant", " and > 0", 0.0),
    "ChannelParams.noise_power": (
        lambda v: ChannelParams(noise_power=v), "channel.noise_power", " and > 0", -1.0),
    "ChannelParams.tx_power": (
        lambda v: ChannelParams(tx_power=v), "channel.tx_power", " and > 0", 0),
    "ChannelParams.fixed_gain": (
        lambda v: ChannelParams(fixed_gain=v), "channel.fixed_gain", " and >= 0", -1e-300),
    "ControlParams.a1": (lambda v: ControlParams(a1=v), "control.a1", " and > 0", 0.0),
    "ControlParams.a2": (lambda v: ControlParams(a2=v), "control.a2", " and > 0", -2),
    "QosSpec.theta_hat": (
        lambda v: QosSpec(kind="mean_delay", target_slots=10.0, theta_hat=v),
        "qos.theta_hat", " and > 1", 1.0),
    "QosSpec.target_slots": (
        lambda v: QosSpec(kind="mean_delay", target_slots=v), "qos.target_slots", " and > 0", 0),
    "QosSpec.drop_ratio_target": (
        lambda v: QosSpec(kind="hard_deadline", deadline_slots=9, drop_ratio_target=v),
        "qos.drop_ratio_target", " and > 0 and < 1", 1.0),
    "OptParams.step_size": (
        lambda v: OptParams(step_size=v), "optimizer.step_size", " and > 0", -1e-4),
    "NetworkSpec.positions": (
        lambda v: _net(positions=((0.0, 0.0), (0.5, v))), "network.nodes[1].y", "", 10**400),
    "NetworkSpec.arrival_rate": (
        lambda v: _net(rate=v), "network.flows[0].rate_pkts_per_slot",
        f" and >= 0 and <= {RATE_LIMIT!r}", math.nextafter(RATE_LIMIT, math.inf)),
    "draw_gains.scale_constant": (
        lambda v: draw_gains(_net(), 0, 1, v), "channel scale constant", " and > 0", 0.0),
    "fixed_gains.gain": (lambda v: fixed_gains(_net(), v), "fixed gain", " and >= 0", -1.0),
    "rate_table.power": (lambda v: rate_table({(0, 1): 1.0}, power=v), "power", " and > 0", 0.0),
    "rate_table.noise": (lambda v: rate_table({}, noise=v), "noise", " and > 0", -1.0),
    "next_review_time.total_backlog": (
        lambda v: next_review_time(0, v), "total backlog", " and >= 0", -1),
    "next_review_time.a1": (lambda v: next_review_time(0, 5.0, v, 1.0), "a1", " and > 0", 0.0),
    "next_review_time.a2": (lambda v: next_review_time(0, 5.0, 1.0, v), "a2", " and > 0", 0.0),
    "WeightVector.theta_hat": (
        lambda v: WeightVector(w=[1.0], mu=[1.0], theta_hat=v), "theta_hat", " and >= 1", 0.5),
}

VALUES = {
    "nan": (math.nan, "finite", "nan"),
    "inf": (math.inf, "finite", "inf"),
    "minus-inf": (-math.inf, "finite", "-inf"),
    "text": ("2.5", "number", "'2.5'"),
    "bool": (True, "number", "True"),
    "past-bound": (None, "finite", None),
}


@pytest.mark.parametrize("case", VALUES)
@pytest.mark.parametrize("site", SITES)
def test_every_site_rejects_with_numbers_message(site, case):
    build, name, bounds, past = SITES[site]
    value, kind, shown = VALUES[case]
    if case == "past-bound":
        value, shown = past, str(past)
    expected = (f"{name} must be a number, got {shown}" if kind == "number"
                else f"{name} must be finite{bounds}, got {shown}")
    with pytest.raises(ConfigError) as exc:
        build(value)
    assert str(exc.value) == expected


class TestNumber:
    @pytest.mark.parametrize("value", [2, 2.0, np.float64(2.0), np.int32(2), np.float32(2.0),
                                       Fraction(2)])
    def test_real_numbers_are_stored_as_float(self, value):
        x = number(value, "x", 0)
        assert x == 2.0 and type(x) is float

    @pytest.mark.parametrize("value", [None, "2", b"2", 1j, [2.0], np.bool_(True), False])
    def test_anything_else_is_not_a_number(self, value):
        with pytest.raises(ConfigError) as exc:
            number(value, "x", 0)
        assert str(exc.value) == f"x must be a number, got {value!r}"

    def test_bounds(self):
        assert number(0.0, "x", 0) == 0.0
        assert number(1.0, "x", 0, high=1) == 1.0
        for value, kwargs in ((0.0, {"strict": True}), (1.0, {"strict": True, "high": 1}),
                              (1.5, {"high": 1})):
            with pytest.raises(ConfigError, match="^x must be finite and "):
                number(value, "x", 0, **kwargs)
        assert number(-1e308, "x", -math.inf) == -1e308

    def test_int_past_the_float_range_is_not_finite(self):
        with pytest.raises(ConfigError) as exc:
            number(-(10**400), "x", -math.inf)
        assert str(exc.value) == f"x must be finite, got {-(10**400)}"


class TestNoCoercion:
    """Each of these took a string, a bool or a float index before the number rule."""

    def test_channel_params_reject_a_string(self):
        # '<' between a str and an int raised a bare TypeError.
        with pytest.raises(ConfigError, match=r"^channel.noise_power must be a number, got '0.5'$"):
            ChannelParams(noise_power="0.5")

    def test_channel_params_reject_a_bool(self):
        with pytest.raises(ConfigError, match="^channel.noise_power must be a number, got True$"):
            ChannelParams(noise_power=True)

    def test_flow_rate_string_is_rejected_by_the_network(self):
        flow = Flow(0, 1, ((0, 1),), "2.5")
        assert flow.arrival_rate == "2.5"  # a plain record; the network checks it
        with pytest.raises(ConfigError) as exc:
            NetworkSpec(positions=TWO_NODES, links=((0, 1),), flows=(flow,))
        assert str(exc.value) == \
            "network.flows[0].rate_pkts_per_slot must be a number, got '2.5'"

    def test_string_positions_are_rejected(self):
        with pytest.raises(ConfigError) as exc:
            NetworkSpec(positions=(("0", "0"), ("0.5", True)), links=(), flows=())
        assert str(exc.value) == "network.nodes[0].x must be a number, got '0'"

    def test_sum_cap_rejects_float_members(self):
        with pytest.raises(ConfigError) as exc:
            Halfspace.sum_cap([0.7, 1.2])
        assert str(exc.value) == "halfspace member must be an integer, got 0.7"
        assert Halfspace.sum_cap([np.int64(2), 0, 2]).members == (0, 2)

    def test_inject_rejects_a_float_creation_slot(self):
        sim = Simulation(bundled_preset_config(), seed=1, horizon=10)
        qi = sim._qkeys.index((0, 9))
        with pytest.raises(ValueError,
                           match=r"^inject: creation slots must be integers, got \[0\.9\]$"):
            sim.inject(0, 9, [0.9])
        assert (list(sim._born[qi]), sim._qlen[qi]) == ([], 0)
        sim.inject(0, 9, [np.int64(0), -4])
        assert list(sim._born[qi]) == [0, -4] and {type(b) for b in sim._born[qi]} == {int}

    def test_stored_as_float_so_a_config_has_one_digest(self):
        cfg = bundled_preset_config()
        digests = {
            replace(cfg, control=replace(cfg.control, a1=a1)).digest()
            for a1 in (8, 8.0, np.float64(8.0), np.int64(8))
        }
        assert len(digests) == 1
        net = _net(positions=((0, 0), (np.float32(0.5), 0)), rate=np.int64(2))
        assert net.positions == TWO_NODES and net.flows[0].arrival_rate == 2.0
        assert {type(x) for x in (*sum(net.positions, ()), net.flows[0].arrival_rate)} == {float}


# The only chained "low < x < math.inf" checks allowed: number itself and the
# two per-element vector loops of the review path.
ALLOWED_RANGE_CHECKS = {"network.number", "optim.WeightVector.__post_init__"}


def _inf_range_checks(source: str, module: str):
    """(module.qualname, line) of each chained comparison ending in '< math.inf'."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif (isinstance(child, ast.Compare) and len(child.ops) > 1
                  and isinstance(child.ops[-1], (ast.Lt, ast.LtE))
                  and ast.unparse(child.comparators[-1]) == "math.inf"):
                found.append((scope, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), module)
    return found


def test_no_hand_written_finite_range_check_outside_number():
    package = Path(drainsched.__file__).parent
    checks = [c for p in sorted(package.glob("*.py"))
              for c in _inf_range_checks(p.read_text(), p.stem)]
    assert [c for c in checks if c[0] not in ALLOWED_RANGE_CHECKS] == []
    assert {scope for scope, _ in checks} == ALLOWED_RANGE_CHECKS  # the scan still finds them


def test_the_guard_sees_a_range_check():
    code = "import math\ndef f(x):\n    if not 0 <= x < math.inf:\n        raise ValueError\n"
    assert _inf_range_checks(code, "m") == [("m.f", 3)]
    assert _inf_range_checks("import math\nok = 1 < math.inf\n", "m") == []

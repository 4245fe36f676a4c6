import math

import numpy as np
import pytest

from drainsched.channel import compute_rate, draw_gains, fixed_gains, rate_table
from drainsched.network import ConfigError, NetworkSpec


def parallel_links_net(n_links=10, dx=0.3):
    # n_links disjoint horizontal links of identical length dx
    positions = []
    links = []
    for r in range(n_links):
        positions.append((0.0, 0.05 * r))
        positions.append((dx, 0.05 * r))
        links.append((2 * r, 2 * r + 1))
    return NetworkSpec(positions=tuple(positions), links=tuple(links), flows=())


class TestComputeRate:
    def test_zero_gain_zero_rate(self):
        assert compute_rate(0.0) == 0.0

    def test_unit_rate_at_e_minus_one(self):
        assert compute_rate(math.e - 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_point(self):
        assert compute_rate(3.0, 2.0, 1.0) == pytest.approx(math.log(7.0), abs=1e-12)

    def test_log2_base(self):
        assert compute_rate(3.0, 1.0, 1.0, base="2") == pytest.approx(2.0, abs=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            compute_rate(-1.0)
        with pytest.raises(ValueError):
            compute_rate(1.0, power=0.0)
        with pytest.raises(ValueError):
            compute_rate(1.0, noise=-2.0)

    def test_monotone_in_gain(self):
        rng = np.random.default_rng(7)
        gains = np.sort(rng.uniform(0, 50, 100))
        rates = [compute_rate(g) for g in gains]
        assert all(a <= b for a, b in zip(rates, rates[1:]))


class TestDrawGains:
    def test_deterministic_per_seed_and_period(self):
        net = parallel_links_net()
        a = draw_gains(net, period=3, seed=11)
        b = draw_gains(net, period=3, seed=11)
        assert a == b

    def test_periods_differ(self):
        net = parallel_links_net()
        a = draw_gains(net, period=0, seed=11)
        b = draw_gains(net, period=1, seed=11)
        assert a != b

    def test_nonpositive_scale_rejected(self):
        net = parallel_links_net()
        with pytest.raises(ConfigError, match="scale constant"):
            draw_gains(net, period=0, seed=1, scale_constant=0.0)

    def test_mean_power_gain_matches_second_moment(self):
        # Rayleigh amplitude with scale sigma has E[amplitude^2] = 2 sigma^2.
        net = parallel_links_net(n_links=10, dx=0.3)
        sigma = 1.0 / 0.3**2
        draws = []
        for period in range(10_000):
            draws.extend(draw_gains(net, period, seed=5).values())
        mean = float(np.mean(draws))
        assert len(draws) == 100_000
        assert abs(mean - 2 * sigma**2) <= 0.03 * 2 * sigma**2

    def test_fixed_gains(self):
        net = parallel_links_net(2)
        assert set(fixed_gains(net, 4.5).values()) == {4.5}


class TestRateTable:
    def test_rates_follow_gains(self):
        net = parallel_links_net(3)
        rates = rate_table(fixed_gains(net, math.e - 1.0), power=1.0, noise=1.0)
        for link in net.links:
            assert rates[link] == pytest.approx(1.0, abs=1e-12)

    def test_full_sequence_reproducible(self):
        net = parallel_links_net(4)
        seq1 = [draw_gains(net, p, seed=9) for p in range(20)]
        seq2 = [draw_gains(net, p, seed=9) for p in range(20)]
        assert seq1 == seq2

import gc
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from drainsched import channel
from drainsched.channel import CHANNEL_STREAM, draw_gains, fixed_gains, rate_table
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


def one_link_rate(gain, power=1.0, noise=1.0, base="e"):
    return rate_table({(0, 1): gain}, power, noise, base)[(0, 1)]


class TestComputeRate:
    """The rate formula, on one-link rate_table dicts."""

    def test_zero_gain_zero_rate(self):
        assert one_link_rate(0.0) == 0.0

    def test_unit_rate_at_e_minus_one(self):
        assert one_link_rate(math.e - 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_point(self):
        assert one_link_rate(3.0, 2.0, 1.0) == pytest.approx(math.log(7.0), abs=1e-12)

    def test_log2_base(self):
        assert one_link_rate(3.0, 1.0, 1.0, base="2") == pytest.approx(2.0, abs=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            one_link_rate(-1.0)
        with pytest.raises(ValueError):
            one_link_rate(1.0, power=0.0)
        with pytest.raises(ValueError):
            one_link_rate(1.0, noise=-2.0)

    def test_overflowing_snr_is_config_error_naming_the_link(self):
        gains = {(0, 1): 1.0, (2, 3): 1e300}
        with pytest.raises(ConfigError, match=r"link \(2, 3\): gain \* power / noise = "
                                              r"1e\+300 \* 1e\+300 / 1\.0 overflows"):
            rate_table(gains, power=1e300)
        assert rate_table(gains, power=1.0)[(2, 3)] == pytest.approx(math.log(1e300))

    def test_monotone_in_gain(self):
        rng = np.random.default_rng(7)
        gains = np.sort(rng.uniform(0, 50, 100))
        rates = [one_link_rate(g) for g in gains]
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

    @pytest.mark.parametrize("scale_constant", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_rejected(self, scale_constant):
        net = parallel_links_net()
        with pytest.raises(ConfigError, match="scale constant must be finite and > 0"):
            draw_gains(net, period=0, seed=1, scale_constant=scale_constant)

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

    @pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf, -1.0])
    def test_fixed_gains_rejects_negative_and_non_finite(self, gain):
        with pytest.raises(ConfigError, match="fixed gain must be finite and >= 0"):
            fixed_gains(parallel_links_net(2), gain)


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


def numpy_draw_gains(spec, period, seed, scale_constant=1.0):
    """draw_gains as written before it read the cached squared lengths; the
    bitwise reference."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(CHANNEL_STREAM, period))
    )
    scales = np.array([scale_constant / spec.distance(l) ** 2 for l in spec.links])
    amps = rng.rayleigh(scale=scales) if len(spec.links) else np.zeros(0)
    return {link: float(a * a) for link, a in zip(spec.links, amps)}


def per_link_rate_table(gains, power=1.0, noise=1.0, base="e"):
    """rate_table's formula evaluated link by link; the bitwise reference."""
    table = {}
    for link, g in gains.items():
        rate = math.log1p(g * power / noise)
        if base == "2":
            rate = rate / math.log(2.0)
        table[link] = rate
    return table


def bits(table):
    """Keys in order and the exact bytes of the values."""
    return list(table), np.array(list(table.values()), dtype=float).tobytes()


class TestMatchesNumpyReference:
    def test_mesh10_reviews(self, monkeypatch):
        from drainsched.engine import run_simulation
        from drainsched.experiments import bundled_preset_config

        draws, tables = [], []
        draw, table = channel.draw_gains, channel.rate_table

        def recording_draw(*args):
            draws.append(args)
            return draw(*args)

        def recording_table(*args):
            tables.append(args)
            return table(*args)

        monkeypatch.setattr(channel, "draw_gains", recording_draw)
        monkeypatch.setattr(channel, "rate_table", recording_table)
        run_simulation(bundled_preset_config(), horizon=3000, seed=1)
        assert len(draws) == len(tables) > 100
        for args in draws:
            assert bits(draw(*args)) == bits(numpy_draw_gains(*args))
        for args in tables:
            assert bits(table(*args)) == bits(per_link_rate_table(*args))

    @pytest.mark.parametrize("scale_constant", [1.0, 0.37, 12.5])
    def test_draw_gains_other_seeds_and_scales(self, scale_constant):
        net = parallel_links_net(7, dx=0.23)
        for seed in (0, 5, 2**40):
            for period in (0, 1, 999):
                assert bits(draw_gains(net, period, seed, scale_constant)) == bits(
                    numpy_draw_gains(net, period, seed, scale_constant)
                )

    def test_draw_gains_at_extreme_scales(self):
        # scale / d^2 ranges over subnormal, ~1e300 and inf amplitude scales.
        lengths = (1e-160, 1e-150, 0.3, 1e5, 1e150)
        positions = [p for r, d in enumerate(lengths) for p in ((0.0, r), (d, r))]
        net = NetworkSpec(positions=tuple(positions),
                          links=tuple((2 * r, 2 * r + 1) for r in range(len(lengths))), flows=())
        scale_constants = (1e-10, 1.0, 1e300)
        scales = [c / d2 for c in scale_constants for d2 in net.squared_lengths]
        assert any(0.0 < x < sys.float_info.min for x in scales)
        assert any(1e299 < x < math.inf for x in scales)
        assert math.inf in scales
        for scale_constant in scale_constants:
            for seed in (0, 2**32, 2**130):
                for period in (0, 2**32 - 1, 2**32, 2**40):
                    got = draw_gains(net, period, seed, scale_constant)
                    with np.errstate(over="ignore"):
                        want = numpy_draw_gains(net, period, seed, scale_constant)
                    assert bits(got) == bits(want)

    def test_draw_gains_without_links(self):
        net = NetworkSpec(positions=((0.0, 0.0),), links=(), flows=())
        assert draw_gains(net, 0, 1) == numpy_draw_gains(net, 0, 1) == {}

    @pytest.mark.parametrize("power, noise, base", [
        (1.0, 1.0, "e"), (2.5, 0.3, "e"), (1.0, 1.0, "2"), (0.7, 1.9, "2"),
    ])
    def test_rate_table_edge_gains(self, power, noise, base):
        values = [0.0, -0.0, float("nan"), float("inf"), 1e-300, 1e300, 3.0, math.e - 1.0]
        gains = {(i, i + 1): g for i, g in enumerate(values)}
        assert bits(rate_table(gains, power, noise, base)) == bits(
            per_link_rate_table(gains, power, noise, base)
        )

    def test_rate_table_rejects_bad_input(self):
        gains = {(0, 1): 1.0, (1, 2): -1e-12}
        with pytest.raises(ValueError, match="gain must be >= 0"):
            rate_table(gains)
        for kwargs in ({"power": 0.0}, {"noise": -1.0}, {"base": "10"}):
            with pytest.raises(ValueError):
                rate_table({(0, 1): 1.0}, **kwargs)
        # NaN passed the old "<= 0" checks and gave NaN rates, inf a NaN on a zero gain.
        for name in ("power", "noise"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got "):
                    rate_table({(0, 1): 1.0, (1, 2): 0.0}, **{name: value})

    def test_squared_lengths_are_read_only(self):
        net = parallel_links_net(3, dx=0.5)
        assert net.squared_lengths == (0.25, 0.25, 0.25)
        with pytest.raises(TypeError):
            net.squared_lengths[0] = 1.0


def reference_exponentials(seed, period, n):
    """The period's channel substream as numpy builds it; the bitwise reference."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(CHANNEL_STREAM, period))
    )
    return rng.standard_exponential(n).tobytes()


def derived_exponentials(seed, period, n):
    return np.array(channel._exponentials(seed, period, n), dtype=float).tobytes()


BLOCK = channel._BLOCK
# Seeds of one to five uint32 words.
WORD_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 5)
# Periods of one to three spawn-key words: both sides of each of the first
# three block edges, and both sides of 2**32 and 2**64.
EDGE_PERIODS = (
    0, 1, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK, 3 * BLOCK - 1, 3 * BLOCK,
    2**32 - 1, 2**32, 2**40, 2**64 - 1, 2**64,
)


class TestSubstreamDerivation:
    """The block derivation equals numpy's SeedSequence + PCG64 seeding bit for
    bit. These fail first if a numpy release changes either."""

    @pytest.mark.parametrize("seed", WORD_SEEDS)
    def test_matches_numpy_on_every_word_count(self, seed):
        for period in EDGE_PERIODS:
            assert derived_exponentials(seed, period, 20) == reference_exponentials(
                seed, period, 20
            ), (seed, period)

    def test_every_period_of_the_first_blocks(self):
        for period in range(3 * BLOCK + 1):
            assert derived_exponentials(12345, period, 3) == reference_exponentials(
                12345, period, 3
            ), period

    def test_seed_stepped_back_to_an_earlier_block(self):
        # Later blocks evict the earlier ones from the two-block cache, so
        # going back derives them again.
        periods = (5 * BLOCK + 3, 2 * BLOCK + 1, 9 * BLOCK, 5 * BLOCK + 3, 1, 2 * BLOCK + 1)
        for seed in (7, 2**64 + 3):
            for period in periods:
                assert derived_exponentials(seed, period, 8) == reference_exponentials(
                    seed, period, 8
                ), (seed, period)
                assert len(channel._blocks) <= 2

    def test_numpy_integers_accepted(self):
        net = parallel_links_net(3)
        for seed, period in ((np.int64(5), np.uint32(9)), (np.uint64(2**64 - 1), np.int8(0))):
            assert bits(draw_gains(net, period, seed)) == bits(
                draw_gains(net, int(period), int(seed))
            ) == bits(numpy_draw_gains(net, period, seed))

    @pytest.mark.parametrize("seed, period, name", [(-1, 0, "seed"), (0, -1, "period"),
                                                    (-(2**70), 3, "seed")])
    def test_negative_seed_or_period_named(self, seed, period, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            draw_gains(parallel_links_net(2), period, seed)

    @pytest.mark.parametrize("seed, period, name", [(1.0, 0, "seed"), (1, 2.0, "period"),
                                                    (np.float64(3), 0, "seed"),
                                                    (1, math.nan, "period"),
                                                    (True, 1, "seed"), (1, True, "period"),
                                                    (False, 0, "seed")])
    def test_non_integer_seed_or_period_is_type_error(self, seed, period, name):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            draw_gains(parallel_links_net(2), period, seed)

    def test_cache_keeps_at_most_32_kb_after_a_mesh10_run(self):
        from drainsched.engine import run_simulation
        from drainsched.experiments import bundled_preset_config

        channel._blocks.clear()
        gc.collect()
        tracemalloc.start()
        try:
            run_simulation(bundled_preset_config(), horizon=3000, seed=1)
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, channel.__file__)]
            )
        finally:
            tracemalloc.stop()
        retained = sum(stat.size for stat in snapshot.statistics("filename"))
        # The run's ~430 reviews span two blocks of _BLOCK rows of 4 uint64 each.
        assert 2 * BLOCK * 32 <= retained <= 32 * 1024

    def test_threads_drawing_for_different_seeds(self):
        # More threads than cores and seeds than cached blocks, switching
        # often: a draw whose state another thread overwrote, or a row read
        # from an evicted block, breaks equality with the reference.
        seeds = (11, 2**64 + 3, 12345)
        results = {seed: [] for seed in seeds}
        start = threading.Barrier(len(seeds))

        def draw(seed):
            start.wait()
            for period in range(300):
                results[seed].append(derived_exponentials(seed, period, 20))

        threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for seed in seeds:
            assert results[seed] == [reference_exponentials(seed, p, 20) for p in range(300)]

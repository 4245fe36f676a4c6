import copy
import gc
import math
import operator
import sys
import tracemalloc
import types
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from conftest import longwin_config, record_reviews
from drainsched import engine
from drainsched.config import parse_config, with_run
from drainsched.engine import FlowMetrics, MetricsReport, Simulation, run_simulation
from drainsched.experiments import bundled_preset_config, export_metrics
from drainsched.network import ConfigError
from drainsched.optim import objective
from drainsched.oracle import oracle_solve

SINGLE_LINK_YAML = """
network:
  nodes: [[0.0, 0.0], [0.5, 0.0]]
  links: [[0, 1]]
  flows:
    - {{source: 0, destination: 1, rate_pkts_per_slot: {rate}, routes: [[0, 1]]}}
channel: {{fixed_gain: {gain}}}
control: {{safety_stock_pkts: {stock}}}
run: {{horizon_slots: {horizon}, seeds: [3]}}
"""


def single_link_config(rate=0.85, gain=2.0, stock=0, horizon=1000):
    return parse_config(SINGLE_LINK_YAML.format(rate=rate, gain=gain, stock=stock,
                                                horizon=horizon))


TWO_HOP_YAML = """
network:
  nodes: [[0.0, 0.0], [0.4, 0.0], [0.8, 0.0]]
  links: [[0, 1], [1, 2]]
  flows:
    - {source: 0, destination: 2, rate_pkts_per_slot: 0.0, routes: [[0, 1, 2]]}
channel: {fixed_gain: 8.0}
control:
  safety_stock_pkts: 0
  qos:
    2: {kind: hard_deadline, deadline_slots: 180, drop_ratio_target: 0.02}
run: {horizon_slots: 400, seeds: [1]}
"""


# Three nodes in a line with arrivals at nodes 0 and 1: queue (1, 2) takes
# both forwarded pieces and arrivals. {extra} adds flows.
CHAIN_YAML = """
network:
  nodes: [[0.0, 0.0], [0.4, 0.0], [0.8, 0.0]]
  links: [[0, 1], [1, 2]]
  flows:
    - {{source: 0, destination: 1, rate_pkts_per_slot: 0.4, routes: [[0, 1]]}}
    - {{source: 0, destination: 2, rate_pkts_per_slot: {rate}, routes: [[0, 1, 2]]}}
    - {{source: 1, destination: 2, rate_pkts_per_slot: 0.5, routes: [[1, 2]]}}
{extra}
channel: {{fixed_gain: 8.0}}
control:
  safety_stock_pkts: 0
  qos:
    2: {{kind: hard_deadline, deadline_slots: 3, drop_ratio_target: 0.02}}
run: {{horizon_slots: 3000, seeds: [1]}}
"""


def chain_config(rate=0.7, extra=""):
    return parse_config(CHAIN_YAML.format(rate=rate, extra=extra))


DEADLINE_LINK_YAML = """
network:
  nodes: [[0.0, 0.0], [0.5, 0.0]]
  links: [[0, 1]]
  flows:
    - {source: 0, destination: 1, rate_pkts_per_slot: 0.0, routes: [[0, 1]]}
channel: {fixed_gain: 8.0}
control:
  safety_stock_pkts: 0
  qos:
    1: {kind: hard_deadline, deadline_slots: 7, drop_ratio_target: 0.02}
run: {horizon_slots: 100, seeds: [1]}
"""


def packets(sim, qi):
    """Creation slots of queue qi, one entry per packet, head first."""
    return [b for b, n in zip(sim._born[qi], sim._count[qi]) for _ in range(n)]


def step_against_per_packet_reference(sim, forward, slots, before_slot=None):
    """Step a checked sim and a per-packet deque model of it side by side.

    Each slot the reference first appends the slot's arrivals (arr_cum
    delta), then moves as many packets per queue as the engine transmitted
    (tx_cum delta), one popleft each, FIFO; queue qi forwards to forward[qi]
    or delivers when absent. before_slot(sim), if given, runs before each
    step and returns the packets it injected, as (queue index, creation
    slots) pairs, which the reference appends too. Every slot the engine's
    buckets, expanded, must equal the reference queues; the per-flow
    statistics from the first slot on are returned.
    """
    assert sim._check, "the reference reads the counters of a checked run"
    ref = [deque(packets(sim, qi)) for qi in range(len(sim._qkeys))]
    deadline = sim._deadline
    stats = {fid: {"created": 0, "delivered": 0, "delay_sum": 0, "late": 0, "hist": {}}
             for fid in sim._flows}
    for _ in range(slots):
        if before_slot is not None:
            for qi, created in before_slot(sim):
                ref[qi].extend(created)
                stats[sim._qkeys[qi][1]]["created"] += len(created)
        t = sim.t
        arr_before = list(sim._arr_cum)
        tx_before = list(sim._tx_cum)
        sim.step()
        for qi, (_, fid) in enumerate(sim._qkeys):
            n_new = sim._arr_cum[qi] - arr_before[qi]
            ref[qi].extend([t] * n_new)
            stats[fid]["created"] += n_new
        staged = []
        for qi, (_, fid) in enumerate(sim._qkeys):
            for _ in range(sim._tx_cum[qi] - tx_before[qi]):
                created = ref[qi].popleft()
                if qi in forward:
                    staged.append((forward[qi], created))
                    continue
                d = t - created
                st = stats[fid]
                st["delivered"] += 1
                st["delay_sum"] += d
                st["late"] += deadline[fid] is not None and d > deadline[fid]
                st["hist"][d] = st["hist"].get(d, 0) + 1
        for rq, created in staged:
            ref[rq].append(created)
        for qi in range(len(ref)):
            assert packets(sim, qi) == list(ref[qi])
            assert sim._qlen[qi] == len(ref[qi])
    return stats


def retained_bytes(*roots):
    """sys.getsizeof summed over the objects reachable from roots, stopping at
    modules, classes and functions (shared, not kept by a run)."""
    shared = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
              types.MethodType, types.CodeType)
    seen = set()
    stack = list(roots)
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, shared):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def single_queue_oracle(lam, horizon, seed):
    """Independent minimal slotted queue: Poisson arrivals, one packet served
    per slot, FIFO; returns the empirical mean delay."""
    rng = np.random.default_rng(seed)
    arrivals = rng.poisson(lam, horizon)
    q = deque()
    delay_sum = 0
    delivered = 0
    for t in range(horizon):
        n = int(arrivals[t])
        if n:
            q.extend([t] * n)
        if q:
            delay_sum += t - q.popleft()
            delivered += 1
    return delay_sum / delivered


class TestStepSlot:
    def test_no_arrivals_only_clock_moves(self):
        cfg = single_link_config(rate=0.0, horizon=10)
        sim = Simulation(cfg, seed=1)
        sim.step()
        assert sim.t == 1
        assert sum(sim._qlen) == 0
        rep = sim.report()
        assert rep.flows[1].delivered == 0

    def test_service_capped_at_queue_minus_safety_stock(self):
        # floor(rate) = 2 (gain 8 -> ln 9 = 2.197) but only Q - qbar may move
        cfg = single_link_config(rate=0.0, gain=8.0, stock=5, horizon=10)
        sim = Simulation(cfg, seed=1)
        sim.inject(0, 1, [0] * 10)
        sim.step()
        assert sim.report().flows[1].delivered == 2  # min(2, 10 - 5)
        assert sim._qlen[0] == 8

    def test_queue_at_safety_stock_not_served(self):
        cfg = single_link_config(rate=0.0, gain=8.0, stock=5, horizon=10)
        sim = Simulation(cfg, seed=1)
        sim.inject(0, 1, [0] * 5)
        sim.step()
        assert sim.report().flows[1].delivered == 0

    def test_deadline_accounting_on_time(self):
        # created at -51, delivered at 0, deadline 180: on time with delay 51
        cfg = parse_config(TWO_HOP_YAML)
        sim = Simulation(cfg, seed=1)
        sim.inject(1, 2, [-51])  # the first slot reviews with the preloaded queue
        sim.step()
        fm = sim.report().flows[2]
        assert fm.delivered == 1 and fm.late == 0
        assert fm.histogram == {51: 1}

    def test_deadline_accounting_late(self):
        cfg = parse_config(TWO_HOP_YAML)
        sim = Simulation(cfg, seed=1)
        sim.inject(1, 2, [-181])  # delay 181 exceeds the 180-slot deadline
        sim.step()
        fm = sim.report().flows[2]
        assert fm.delivered == 1 and fm.late == 1
        assert fm.on_time == 0
        assert fm.drop_ratio == 1.0

    def test_fifo_order_within_queue(self):
        # service rate 1/slot: head-of-line (oldest) packets leave first
        cfg = single_link_config(rate=0.0, gain=2.0, stock=0, horizon=20)
        sim = Simulation(cfg, seed=1)
        sim.inject(0, 1, [-5, -3])
        sim.step()
        sim.step()
        fm = sim.report().flows[1]
        # FIFO: delays are 0-(-5)=5 then 1-(-3)=4 (LIFO would give 3 and 6)
        assert fm.histogram == {5: 1, 4: 1}

    def test_one_hop_packet_can_leave_in_arrival_slot_with_zero_stock(self):
        cfg = single_link_config(rate=0.0, gain=2.0, stock=0, horizon=5)
        sim = Simulation(cfg, seed=1)
        sim.inject(0, 1, [0])
        sim.step()
        assert sim.report().flows[1].histogram == {0: 1}


class TestClock:
    def test_clocks_cannot_be_assigned(self):
        sim = Simulation(single_link_config(horizon=10), seed=1)
        sim.step()
        clocks = (sim.t, sim.t_rev)
        for name in ("t", "t_rev"):
            with pytest.raises(AttributeError):
                setattr(sim, name, 5)
        assert (sim.t, sim.t_rev) == clocks
        assert sim.t == 1

    def test_inject_after_the_clock_raises_and_changes_nothing(self):
        # Such a packet would leave with a negative delay.
        sim = Simulation(single_link_config(rate=0.0, horizon=10), seed=1, check_invariants=True)
        with pytest.raises(ValueError, match=r"creation slot 5 is after the clock, t = 0$"):
            sim.inject(0, 1, [0, 5])
        assert (list(sim._born[0]), sim._qlen, sim._qtime, sim._arr_cum) == ([], [0], [0], [0])
        assert sim.report().flows[1].created == 0
        sim.inject(0, 1, [0, -3])  # at the clock, and before it
        sim.step()
        with pytest.raises(ValueError, match=r"creation slot 2 is after the clock, t = 1$"):
            sim.inject(0, 1, [2])
        sim.inject(0, 1, [1])
        sim.step()
        sim.step()
        rep = sim.report()
        assert rep.flows[1].histogram == {0: 1, 1: 1, 4: 1}
        assert rep.conservation_violations == 0

    def test_inject_into_an_unknown_queue_raises(self):
        sim = Simulation(single_link_config(horizon=10), seed=1)
        assert sim._qkeys == [(0, 1)]
        with pytest.raises(ValueError, match=r"no queue for node 1 and flow 1$"):
            sim.inject(1, 1, [0])
        with pytest.raises(ValueError, match=r"no queue for node 0 and flow 7$"):
            sim.inject(0, 7, [0])


class TestBucketQueues:
    def test_non_monotone_inject_matches_per_packet_reference(self):
        cfg = parse_config(DEADLINE_LINK_YAML)
        sim = Simulation(cfg, seed=1, check_invariants=True)
        sim.inject(0, 1, [-6, -6, -8, -6, -7, -7, -7, -1])
        assert list(zip(sim._born[0], sim._count[0])) == \
            [(-6, 2), (-8, 1), (-6, 1), (-7, 3), (-1, 1)]
        stats = step_against_per_packet_reference(sim, forward={}, slots=6)
        fm = sim.report().flows[1]
        assert fm.delivered == stats[1]["delivered"] == 8
        assert fm.delay_sum == stats[1]["delay_sum"]
        assert fm.late == stats[1]["late"] > 0
        assert fm.histogram == dict(sorted(stats[1]["hist"].items()))

    def test_head_bucket_split_across_slots(self):
        # floor(ln 9) = 2 packets per slot drain one bucket of 5 over 3 slots
        cfg = single_link_config(rate=0.0, gain=8.0, stock=0, horizon=20)
        sim = Simulation(cfg, seed=1)
        sim.inject(0, 1, [-1] * 5 + [0])
        heads = []
        for _ in range(4):
            sim.step()
            heads.append(list(zip(sim._born[0], sim._count[0])))
        assert heads == [[(-1, 3), (0, 1)], [(-1, 1), (0, 1)], [], []]
        assert sim.report().flows[1].histogram == {1: 2, 2: 3, 3: 1}

    def test_forwarded_bucket_merges_into_downstream_tail(self):
        cfg = parse_config(TWO_HOP_YAML)
        sim = Simulation(cfg, seed=1, check_invariants=True)
        sim.inject(0, 2, [-1] * 6 + [0] * 6)
        sim.inject(1, 2, [-1] * 12)
        # queue 0 is node 0 (forwards to node 1), queue 1 is node 1 (delivers)
        assert sim._qkeys == [(0, 2), (1, 2)]
        stats = step_against_per_packet_reference(sim, forward={0: 1}, slots=15)
        # 12 packets forwarded in 2-packet buckets, each merged into the tail
        assert sim._rx_cum[1] == 12
        assert list(zip(sim._born[1], sim._count[1])) == [(-1, 2), (0, 6)]
        fm = sim.report().flows[2]
        assert fm.delivered == stats[2]["delivered"] == 16
        assert fm.delay_sum == stats[2]["delay_sum"]
        assert fm.histogram == dict(sorted(stats[2]["hist"].items()))

    def test_packets_received_in_a_slot_move_on_the_next(self):
        # Interference keeps a link and the next hop's link apart, so the
        # engine never activates both in one slot; force it to. Node 1 may
        # send only the packet it held at the slot's start, though the two it
        # receives merge into that packet's bucket.
        sim = Simulation(parse_config(TWO_HOP_YAML), seed=1)
        assert sim._link_of == [(0, 1), (1, 2)]
        sim.inject(0, 2, [0, 0])
        sim.inject(1, 2, [0])
        sim._t_prev, sim._t_rev = 0, 10
        sim._slots = ((0, 1),) * 10
        sim._fmu = [2, 2]
        sim.step()
        assert sim.report().flows[2].delivered == 1
        assert list(zip(sim._born[1], sim._count[1])) == [(0, 2)]
        sim.step()
        assert sim.report().flows[2].delivered == 3

    def test_checked_step_counts_buckets_that_disagree_with_qlen(self):
        # The counter identity cannot see a bucket fault: qlen moves with the
        # counters. Two packets leave per slot; one bucket count is corrupted.
        cfg = single_link_config(rate=0.0, gain=8.0, stock=0, horizon=20)
        sim = Simulation(cfg, seed=1, check_invariants=True)
        sim.inject(0, 1, [0] * 5)
        sim.step()
        assert sim.conservation_violations == 0
        sim._count[0][0] += 1
        sim.step()
        assert sim.conservation_violations == 1
        sim.step()
        assert sim.conservation_violations == 2

    def test_overloaded_mesh_holds_buckets_not_packets(self):
        # Arrivals x3 exceed capacity: the backlog grows with every slot, but
        # a queue gains at most one bucket per creation slot pushed to it.
        cfg = bundled_preset_config()
        flows = tuple(replace(fl, arrival_rate=3 * fl.arrival_rate) for fl in cfg.network.flows)
        cfg = replace(cfg, network=replace(cfg.network, flows=flows))
        sim = Simulation(cfg, seed=1, horizon=3000, check_invariants=True)
        rep = sim.run()
        assert rep.conservation_violations == 0
        assert rep.interference_violations == 0
        for qi in range(len(sim._qkeys)):
            born = list(sim._born[qi])
            assert sum(sim._count[qi]) == sim._qlen[qi]
            assert len(born) <= sim.t
            # a push that can meet an equal tail merges into it, so
            # neighbours never share a slot
            assert all(a != b for a, b in zip(born, born[1:]))
        buckets = sum(len(born) for born in sim._born)
        assert sum(sim._qlen) > 5 * buckets

    @pytest.mark.parametrize("build", [lambda: parse_config(TWO_HOP_YAML), chain_config],
                             ids=["two-hop", "chain"])
    def test_random_injects_and_rates_match_per_packet_reference(self, build):
        # Non-monotone injects, some of them of the slot about to run, put
        # equal-slot buckets next to each other, where arrivals and forwarded
        # pieces do not merge; random active links and rates split head
        # buckets anywhere. No packet and no statistic may change.
        cfg = build()
        for case in range(150):
            rng = np.random.default_rng(case)
            sim = Simulation(cfg, seed=case + 1, horizon=40, check_invariants=True)
            forward = {qi: rq for qi, rq, *_ in sim._coords if rq >= 0}
            coords = len(sim._coords)

            def before_slot(sim):
                t = sim.t
                injected = []
                for qi, (node, fid) in enumerate(sim._qkeys):
                    if rng.random() < 0.4:
                        created = rng.integers(max(0, t - 4), t + 1, rng.integers(1, 6)).tolist()
                        sim.inject(node, fid, created)
                        injected.append((qi, created))
                # no review: the slot runs under a random active set and rates
                sim._t_prev, sim._t_rev = t, t + 1
                sim._slots = (tuple(k for k in range(coords) if rng.random() < 0.6),)
                sim._fmu = rng.integers(0, 5, coords).tolist()
                return injected

            stats = step_against_per_packet_reference(sim, forward, 40, before_slot)
            for fid, fm in sim.report().flows.items():
                st = stats[fid]
                n, late, delay_sum = st["delivered"], st["late"], st["delay_sum"]
                assert fm == FlowMetrics(
                    created=st["created"], delivered=n, on_time=n - late, late=late,
                    delay_sum=delay_sum,
                    mean_delay=delay_sum / n if n else None,
                    drop_ratio=late / n if n else None,
                    histogram=st["hist"],
                ), (case, fid)
            assert sim.conservation_violations == 0, case

    def test_two_flows_of_one_source_and_destination(self):
        # Their two streams fold into one count list per slot, so the queue
        # still gets one bucket per slot with arrivals, and an overloaded run
        # never puts two buckets of one slot next to each other.
        extra = "    - {source: 0, destination: 2, rate_pkts_per_slot: 0.5, routes: [[0, 1, 2]]}"
        sim = Simulation(chain_config(rate=0.6, extra=extra), seed=1, horizon=3000,
                         check_invariants=True)
        qi = sim._qkeys.index((0, 2))
        assert [q for q, *_ in sim._arrivals.streams].count(qi) == 2
        _, _, blocks = sim._arrivals.block(0)
        assert [q for q, *_ in blocks] == [0, qi, 2]
        # streams 1 and 2 in (source, destination) order are the two flows
        assert blocks[1][2] == list(map(operator.add, one_shot(0.6, 3000, 1, 1),
                                        one_shot(0.5, 3000, 1, 2)))
        rep = sim.run()
        assert rep.conservation_violations == rep.interference_violations == 0
        assert sim._arr_cum[qi] == sum(blocks[1][2])
        for born in sim._born:
            born = list(born)
            assert all(a != b for a, b in zip(born, born[1:]))
        assert len(sim._born[qi]) > 100


class TestRunSimulation:
    def test_zero_horizon_empty_report(self):
        cfg = single_link_config(horizon=0)
        rep = run_simulation(cfg)
        assert rep.flows[1].delivered == 0
        assert rep.flows[1].mean_delay is None
        assert rep.queue_avg == {}
        assert rep.periods == []

    @pytest.mark.parametrize("override", [{"horizon": 2.5}, {"seed": 1.5}, {"horizon": True}])
    def test_non_integer_horizon_or_seed_rejected(self, override):
        kwargs = {"seed": 1, "horizon": 10, **override}
        with pytest.raises(ConfigError, match="run."):
            Simulation(single_link_config(horizon=0), **kwargs)

    def test_single_queue_mean_delay_matches_independent_oracle(self):
        lam = 0.85
        cfg = single_link_config(rate=lam, gain=2.0, stock=0, horizon=200_000)
        sim = Simulation(cfg, seed=3)
        rep = sim.run()
        oracle = single_queue_oracle(lam, 1_000_000, seed=424242)
        got = rep.flows[1].mean_delay
        assert got is not None
        assert abs(got - oracle) <= 0.10 * oracle
        # ~171k reviews: the columnar period log keeps ~22 MB of them, where
        # one record object per review kept ~121 MB.
        assert len(rep.periods) > 150_000
        assert retained_bytes(sim, rep) < 30 * 2**20

    def test_determinism_identical_reports(self):
        cfg = with_run(bundled_preset_config(), horizon_slots=3000)
        a = run_simulation(cfg, seed=5)
        b = run_simulation(cfg, seed=5)
        assert a == b

    def test_seed_changes_outcome(self):
        cfg = with_run(bundled_preset_config(), horizon_slots=3000)
        a = run_simulation(cfg, seed=5)
        b = run_simulation(cfg, seed=6)
        assert a != b

    def test_conservation_and_interference_on_short_preset_run(self):
        cfg = bundled_preset_config()
        rep = run_simulation(cfg, horizon=5000, seed=2, check_invariants=True)
        assert rep.conservation_violations == 0
        assert rep.interference_violations == 0
        # packet identity: created = still queued + delivered (on time or late)
        for fid, fm in rep.flows.items():
            assert fm.delivered == fm.on_time + fm.late
            assert fm.created >= fm.delivered

    def test_queues_never_below_safety_stock_once_filled(self):
        cfg = with_run(bundled_preset_config(), horizon_slots=4000)
        sim = Simulation(cfg, seed=3)
        qbar = cfg.control.safety_stock_pkts
        floor_seen = {}
        for _ in range(sim.horizon):
            before = list(sim._qlen)
            sim.step()
            for qi, after in enumerate(sim._qlen):
                # service may not take a queue below min(before, stock)
                lower = min(before[qi], qbar)
                if after < lower:
                    floor_seen[qi] = (before[qi], after)
        assert floor_seen == {}

    def test_reviews_never_beat_the_exact_lp_on_small_net(self):
        # Record the solver's inputs at every review of the engine, then check
        # each schedule against the exact LP optimum of the same inputs.
        for cfg in (single_link_config(rate=0.85, gain=2.0, stock=0, horizon=300),
                    with_run(bundled_preset_config(), horizon_slots=300)):
            seen, rep = record_reviews(cfg, seed=3)
            assert seen and len(seen) == len(rep.periods)
            for wv, cons, _, s, _ in seen:
                argmax, value = oracle_solve(wv, cons)
                assert cons.feasible(argmax)
                assert value == pytest.approx(objective(argmax, wv), abs=1e-9)
                assert objective(s, wv) <= value + 1e-9

    def test_mesh_delay_at_ten_cycles_in_expected_band(self, mesh_runs):
        # At 10 optimizer cycles the mesh settles near 13 slots mean delay for
        # the two-hop flow; allow +-75% across seeds 1-3.
        delays = [flows[8].mean_delay for flows in mesh_runs[0][10]]
        mean = sum(delays) / len(delays)
        assert 13.0 * 0.25 <= mean <= 13.0 * 1.75


class TestFlowStatistics:
    def test_mean_of_three(self):
        # FIFO service of one packet per slot from t=30: delays 10, 20, 30
        cfg = single_link_config(rate=0.0, gain=2.0, stock=0, horizon=40)
        sim = Simulation(cfg, seed=1)
        sim.inject(0, 1, [-10, -19, -28])
        for _ in range(3):
            sim.step()
        fm = sim.report().flows[1]
        assert fm.mean_delay == pytest.approx((10 + 20 + 30) / 3)
        assert fm.drop_ratio == 0.0

    def test_two_late_of_hundred(self):
        sim = Simulation(single_link_config(horizon=0), seed=1)
        fm = sim._flows[1]
        fm.delivered, fm.late, fm.delay_sum = 100, 2, 1000
        got = sim.report().flows[1]
        assert got.mean_delay == pytest.approx(10.0)
        assert got.drop_ratio == pytest.approx(0.02)

    def test_zero_deliveries_absent_marker(self):
        rep = run_simulation(single_link_config(rate=0.0, horizon=10))
        fm = rep.flows[1]
        assert fm.mean_delay is None and fm.drop_ratio is None

    def test_unknown_flow_rejected(self):
        rep = run_simulation(single_link_config(horizon=0))
        with pytest.raises(KeyError):
            rep.flows[99]


class TestReportSnapshot:
    def test_report_does_not_change_as_the_run_goes_on(self):
        sim = Simulation(bundled_preset_config(), seed=2, horizon=600)
        for _ in range(300):
            sim.step()
        first = sim.report()
        kept = copy.deepcopy(first)
        for _ in range(300):
            sim.step()
        later = sim.report()
        assert sum(fm.delivered for fm in first.flows.values()) > 0
        for fid, fm in first.flows.items():
            assert fm.delivered == kept.flows[fid].delivered
            assert fm.histogram == kept.flows[fid].histogram
            assert later.flows[fid].delivered >= fm.delivered
        assert first == kept
        assert len(later.periods) > len(first.periods)
        assert later.flows != first.flows

    def test_mid_run_queue_avg_is_over_the_slots_run(self):
        sim = Simulation(bundled_preset_config(), seed=2, horizon=600)
        assert set(sim.report().queue_avg.values()) == {0.0}  # before the first slot
        sim._advance(300)
        mid = sim.report().queue_avg
        full = run_simulation(bundled_preset_config(), seed=2, horizon=300).queue_avg
        assert mid == full
        assert sum(mid.values()) == pytest.approx(400.50, abs=0.01)
        assert Simulation(bundled_preset_config(), seed=2, horizon=0).report().queue_avg == {}


class TestQueueIntegral:
    """report().queue_avg reads each queue's length summed over the slots run
    from a weighted-time sum; it must equal a plain sum of the lengths of a
    twin run stepped one slot at a time, wherever the report is taken."""

    def test_matches_a_slot_by_slot_sum(self):
        sim = Simulation(bundled_preset_config(), seed=2, horizon=2000)
        ref = Simulation(bundled_preset_config(), seed=2, horizon=2000)
        total = [0] * len(ref._qkeys)
        seen = []

        def check(stop, where):
            sim._advance(stop)
            while ref.t < stop:
                ref.step()
                for qi, n in enumerate(ref._qlen):
                    total[qi] += n
            assert sim._qlen == ref._qlen
            want = {key: total[qi] / ref.t for qi, key in enumerate(ref._qkeys)}
            assert sim.report().queue_avg == want, (where, sim.t)
            seen.append(where)

        def windows(count):
            # the review slot, a slot inside the window, the window's end
            for _ in range(count):
                assert sim.t == sim.t_rev
                check(sim.t + 1, "review")
                end = min(sim.t_rev, sim.horizon)
                if end - sim.t > 1:
                    check((sim.t + end) // 2, "inside")
                check(end, "end")

        def both(action):
            for s in (sim, ref):
                action(s)

        check(600, "inside")
        check(sim.t_rev, "end")
        windows(4)
        key = sim._qkeys[0]
        both(lambda s: s.inject(*key, [s.t - 5, s.t, s.t]))
        windows(3)
        assert {"review", "inside", "end"} <= set(seen)
        assert sum(total) > 0


class TestReportSerialization:
    def test_roundtrip_equality(self):
        cfg = with_run(bundled_preset_config(), horizon_slots=2000)
        rep = run_simulation(cfg, seed=4)
        again = MetricsReport.from_dict(rep.to_dict())
        assert again == rep


def export_bytes(report, path):
    export_metrics(report, "json", path)
    return path.read_bytes()


def step_to(sim, stop):
    """Advance sim to slot stop one step() at a time."""
    while sim.t < stop:
        sim.step()


class TestWindowLoop:
    """run() runs each review window in one call; a loop of step() calls, one
    slot each, must give the same exports."""

    @pytest.mark.parametrize("build, kwargs", [
        (bundled_preset_config, {}),
        (bundled_preset_config, {"check_invariants": True}),
        (longwin_config, {}),
        (longwin_config, {"check_invariants": True}),
    ], ids=["mesh10", "mesh10-checked", "longwin", "longwin-checked"])
    def test_run_matches_step_loop(self, tmp_path, build, kwargs):
        sims = [Simulation(build(), seed=1, horizon=3000, **kwargs) for _ in range(2)]
        by_run = sims[0].run()
        step_to(sims[1], 3000)
        by_step = sims[1].report()
        assert export_bytes(by_run, tmp_path / "run.json") == \
            export_bytes(by_step, tmp_path / "step.json")
        if kwargs.get("check_invariants"):
            assert by_run.conservation_violations == by_run.interference_violations == 0

    @pytest.mark.parametrize("build", [bundled_preset_config, longwin_config],
                             ids=["mesh10", "longwin"])
    def test_unchecked_run_exports_the_checked_bytes(self, tmp_path, build):
        # An unchecked run keeps no conservation counters; nothing it exports
        # may differ from a checked one.
        plain = Simulation(build(), seed=1, horizon=3000)
        checked = Simulation(build(), seed=1, horizon=3000, check_invariants=True)
        by_plain, by_checked = plain.run(), checked.run()
        assert export_bytes(by_plain, tmp_path / "plain.json") == \
            export_bytes(by_checked, tmp_path / "checked.json")
        assert by_checked.conservation_violations == by_checked.interference_violations == 0
        assert plain._arr_cum == plain._rx_cum == plain._tx_cum == [0] * len(plain._qkeys)
        assert sum(checked._arr_cum) == sum(fm.created for fm in by_checked.flows.values())

    def test_trace_file_matches_step_loop(self, tmp_path):
        exports = []
        traces = []
        for i in range(2):
            with open(tmp_path / f"trace{i}.jsonl", "w", encoding="utf-8") as fh:
                sim = Simulation(bundled_preset_config(), seed=1, horizon=3000, trace_file=fh)
                if i == 0:
                    report = sim.run()
                else:
                    step_to(sim, 3000)
                    report = sim.report()
            exports.append(export_bytes(report, tmp_path / f"run{i}.json"))
            traces.append((tmp_path / f"trace{i}.jsonl").read_bytes())
        assert exports[0] == exports[1]
        assert traces[0] == traces[1]
        assert traces[0].count(b"\n") == len(report.periods)

    def test_report_after_stopping_mid_window(self, tmp_path):
        by_step = Simulation(bundled_preset_config(), seed=1, horizon=3000)
        step_to(by_step, 1500)
        while not by_step._t_prev < by_step.t < by_step.t_rev:
            by_step.step()
        stop = by_step.t
        windowed = Simulation(bundled_preset_config(), seed=1, horizon=3000)
        windowed._advance(stop)
        assert (windowed.t, windowed._t_prev, windowed.t_rev) == \
            (stop, by_step._t_prev, by_step.t_rev)
        assert export_bytes(windowed.report(), tmp_path / "a.json") == \
            export_bytes(by_step.report(), tmp_path / "b.json")
        # resuming from the middle of a window changes nothing either
        assert export_bytes(windowed.run(), tmp_path / "c.json") == \
            export_bytes(Simulation(bundled_preset_config(), seed=1, horizon=3000).run(),
                         tmp_path / "d.json")

    def test_run_steps_once_per_review(self, monkeypatch):
        step = Simulation.step
        at_review = []

        def counted(self):
            at_review.append(self.t == self.t_rev)
            step(self)

        monkeypatch.setattr(Simulation, "step", counted)
        report = Simulation(bundled_preset_config(), seed=1, horizon=500).run()
        assert len(at_review) == len(report.periods) > 0
        assert all(at_review)


def substream(seed, si):
    return np.random.SeedSequence(entropy=seed, spawn_key=(engine.ARRIVAL_STREAM, si))


def one_shot(rate, horizon, seed=1, si=0):
    """Stream si's counts as one poisson(rate, horizon) call draws them: the
    arrivals the engine drew up front before it drew them block by block."""
    return np.random.default_rng(substream(seed, si)).poisson(rate, horizon).tolist()


def one_shot_arrivals(sim):
    """one_shot of every stream of sim, by queue index."""
    flows = sorted(sim.net.flows, key=lambda fl: (fl.source, fl.destination))
    return {
        sim._qkeys.index((fl.source, fl.destination)):
            one_shot(fl.arrival_rate, sim.horizon, sim.seed, si)
        for si, fl in enumerate(flows)
    }


class Stream:
    """One stream of engine._Arrivals, read as the engine reads it: through
    the block accessor, one slot at a time by offset into the block."""

    def __init__(self, rate, horizon, seed=1, si=0):
        self.horizon = horizon
        self.arrivals = engine._Arrivals(
            [(0, engine.FlowMetrics(), substream(seed, si), rate)], horizon
        )

    def window(self, t, end):
        """The counts of slots t .. end - 1, block by block."""
        out = []
        while t < end:
            base, blk_end, [(_, _, counts)] = self.arrivals.block(t)
            block = engine.ARRIVAL_BLOCK
            assert (base, blk_end) == (t // block * block, min(base + block, self.horizon))
            assert len(counts) == blk_end - base
            hi = min(end, blk_end)
            out += [counts[u - base] for u in range(t, hi)]
            t = hi
        return out


class TestBlockArrivals:
    """Arrivals drawn block by block must equal one poisson(rate, horizon)
    call on the same substream, however the slots are read."""

    @pytest.mark.parametrize("rate", [0.05, 0.5, 3.0, 9.99, 10.0, 57.5, 400.0])
    @pytest.mark.parametrize("chunk", [1, 7, 299, 4096])
    def test_any_chunking_equals_one_call(self, rate, chunk):
        horizon = 2 * engine.ARRIVAL_BLOCK + 1234  # not a multiple of the block
        ref = one_shot(rate, horizon)
        st = Stream(rate, horizon)
        got = []
        for t in range(0, horizon, chunk):
            got += st.window(t, min(t + chunk, horizon))
        assert got == ref

    def test_windows_across_block_edges(self):
        horizon = 3 * engine.ARRIVAL_BLOCK - 5
        ref = one_shot(2.5, horizon, seed=4)
        edge = engine.ARRIVAL_BLOCK
        for t, end in [(edge - 3, edge + 4), (edge + 4, 2 * edge + 1),
                       (2 * edge + 1, horizon), (5, 2 * edge + 9), (0, horizon)]:
            # the engine reads forward only, so each window reads a new stream
            assert Stream(2.5, horizon, seed=4).window(t, end) == ref[t:end]

    @pytest.mark.parametrize("block", [7, 4096])
    def test_mesh_run_and_step_loop_draw_the_one_shot_counts(self, monkeypatch, block):
        monkeypatch.setattr(engine, "ARRIVAL_BLOCK", block)
        horizon = 1500
        by_step = Simulation(bundled_preset_config(), seed=2, horizon=horizon,
                             check_invariants=True)
        ref = one_shot_arrivals(by_step)
        assert len(ref) == 5
        for t in range(horizon):
            before = list(by_step._arr_cum)
            by_step.step()
            for qi, counts in ref.items():
                assert by_step._arr_cum[qi] - before[qi] == counts[t]
        by_run = Simulation(bundled_preset_config(), seed=2, horizon=horizon,
                            check_invariants=True)
        assert by_run.run() == by_step.report()
        assert by_run._arr_cum == by_step._arr_cum

    @pytest.mark.parametrize("block, horizon", [(10, 400), (4096, 4200)])
    def test_step_loop_equals_run_on_windows_across_block_edges(
        self, monkeypatch, tmp_path, block, horizon
    ):
        # run() steps the review slot, then caps the rest of the window at the
        # end of the arrival block and goes on in the next block under the
        # same schedule; step() reads one slot.
        monkeypatch.setattr(engine, "ARRIVAL_BLOCK", block)
        by_run = Simulation(bundled_preset_config(), seed=1, horizon=horizon,
                            check_invariants=True)
        report = by_run.run()
        straddling = [
            p for p in report.periods
            if (p.start + 1) // block != (min(p.start + p.window, horizon) - 1) // block
        ]
        assert straddling
        by_step = Simulation(bundled_preset_config(), seed=1, horizon=horizon,
                             check_invariants=True)
        step_to(by_step, horizon)
        assert export_bytes(report, tmp_path / "run.json") == \
            export_bytes(by_step.report(), tmp_path / "step.json")
        assert by_run._arr_cum == by_step._arr_cum

    def test_rate_at_numpy_poisson_limit_draws_and_the_next_is_rejected(self):
        # numpy's poisson rejects lam above int64 max - 10 sqrt(int64 max); a
        # rate past it is a load-time error, not a failure at the first block.
        limit = 9.223372006484771e18
        sim = Simulation(single_link_config(rate=limit, horizon=2), seed=1)
        sim.step()
        assert sim.report().flows[1].created > 0.99 * limit
        over = math.nextafter(limit, math.inf)
        with pytest.raises(ConfigError, match=r"^network\.flows\[0\]: arrival rate must be <="):
            single_link_config(rate=over)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(1).poisson(over)

    def test_rate_zero_and_horizon_zero_draw_nothing(self):
        sim = Simulation(single_link_config(rate=0.0, horizon=50), seed=1)
        assert sim._arrivals.streams == []
        assert sim.run().flows[1].created == 0
        sim = Simulation(bundled_preset_config(), seed=1, horizon=0)
        assert len(sim._arrivals.streams) == 5
        sim.run()
        assert sim._arrivals._rngs is None


class TestHorizon:
    def test_step_past_the_horizon_raises_and_changes_nothing(self, tmp_path):
        sim = Simulation(bundled_preset_config(), seed=1, horizon=13)
        report = sim.run()
        state = (sim.t, sim._t_prev, sim.t_rev, len(sim.periods), list(sim._qlen))
        with pytest.raises(ValueError, match="horizon is 13 slots"):
            sim.step()
        with pytest.raises(ValueError, match="horizon is 13 slots"):
            sim._advance(20)
        assert (sim.t, sim._t_prev, sim.t_rev, len(sim.periods), list(sim._qlen)) == state
        assert export_bytes(sim.report(), tmp_path / "a.json") == \
            export_bytes(report, tmp_path / "b.json")

    @staticmethod
    def with_a1(a1):
        cfg = bundled_preset_config()
        return replace(cfg, control=replace(cfg.control, a1=a1))

    def test_window_past_the_horizon_is_realized_up_to_it(self):
        # The second review's window is ~2.9e9 slots; only its 49 slots
        # before the horizon are realized.
        rep = run_simulation(self.with_a1(1.0e9), seed=1, horizon=50)
        assert [p.window for p in rep.periods] == [1, 2944438979]

    def test_window_beyond_the_period_log_is_config_error(self):
        with pytest.raises(ConfigError, match=r"^control\.a1/control\.a2: review window .* "
                                              r"exceeds 2\*\*63 - 1"):
            run_simulation(self.with_a1(1.0e300), seed=1, horizon=50)

    def test_realized_slots_are_the_first_of_the_whole_window(self, monkeypatch):
        calls = []
        build = engine.build_slot_schedule

        def recording(s, window, constraints, slots=None):
            schedule = build(s, window, constraints, slots)
            calls.append((s, window, constraints, slots, schedule))
            return schedule

        monkeypatch.setattr(engine, "build_slot_schedule", recording)
        rep = run_simulation(bundled_preset_config(), seed=1, horizon=3000)
        assert len(calls) == len(rep.periods) > 100
        clipped = 0
        for s, window, constraints, slots, schedule in calls:
            whole = build(s, window, constraints)
            assert schedule.window == window and schedule.quota == whole.quota
            assert schedule.active_by_offset == whole.active_by_offset[:slots]
            clipped += slots < window
        assert clipped == 1


class TestMemoryBound:
    def test_mesh_run_keeps_at_most_a_fifth_of_a_kilobyte_per_review(self):
        # Traced from construction on, so a column's reallocation counts only
        # its growth; a full collection at each end empties the interpreter's
        # free lists, which hold tens of KB at any moment.
        tracemalloc.start()
        try:
            sim = Simulation(bundled_preset_config(), seed=1, horizon=3000)
            sim._advance(1500)
            gc.collect()
            before, reviews = tracemalloc.get_traced_memory()[0], len(sim.periods)
            sim._advance(3000)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        reviews = len(sim.periods) - reviews
        assert reviews > 200
        assert grown / reviews <= 0.2 * 1024

    def test_init_does_not_grow_with_the_horizon(self):
        cfg = bundled_preset_config()
        peaks = []
        gc.collect()
        tracemalloc.start()
        try:
            for horizon in (10**4, 10**6):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                sim = Simulation(cfg, seed=1, horizon=horizon)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                del sim
                gc.collect()
        finally:
            tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024

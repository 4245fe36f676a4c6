"""Slotted packet-level simulation.

Each slot runs three phases in a fixed order: review (only on review slots:
redraw the channel, recompute priority weights, solve the schedule
optimization, build the slot schedule for the next window), exogenous
arrivals, then service. Packets are one bit; a scheduled link moves up to
floor(rate) head-of-line packets per slot, never taking a queue below its
safety stock. Each queue is a run-length FIFO of (creation slot, count)
buckets; the flow and current node are the queue's key. Packets of one bucket
cannot be told apart, so the packet phase costs O(buckets) per slot, not
O(packets), and a queue grows by at most one bucket per push, not by one
entry per packet.

Only a push that can meet an equal-slot tail tests for a merge. inject tests
each packet it places. A slot's arrivals always open a bucket: the tail can
hold that slot only after an inject of it, since the streams of one queue are
folded into one count per slot. A link that forwards tests only its first
piece against the next hop's tail; neighbouring buckets of the sending queue
hold different slots, so every later piece opens a bucket. After an inject
two neighbouring buckets may share a slot, and the pushes after them may not
merge; no answer changes, because delays and counts add up per packet.

A review fixes the slot schedule and the link rates until the next review,
so the engine runs the packet phase one review window at a time
(Simulation._advance): the engine state is loaded into locals once per call,
and the slots of the window run in a plain loop that reads each stream's
arrival count and the slot's active links in place, by offset into the
arrival block and into the schedule; a window that runs past the end of the
arrival block goes on in the next block. run() calls step() on each review
slot and _advance for the rest of that window; step() is _advance over one
slot. Only the engine moves the clock, and only forward: t and t_rev are
read-only, and every review schedules at least the slots up to the next review
or the horizon.

The queue-length integral, each queue's end-of-slot length summed over the
slots run (report() averages it), is not added up slot by slot. It is kept
as a weighted-time sum W: n packets joining queue q at slot t add n * t to
W[q], and n leaving it subtract n * t, so after the slots up to T the
integral is T * qlen[q] - W[q], in exact integer arithmetic, and inject
counts its packets at the clock T.

With invariant checking enabled the engine verifies, every slot, the exact
queue bookkeeping identity (arrivals + receptions - transmissions), that each
queue's bucket counts sum to its length, the global packet-count identity,
and interference exclusivity of the links that actually transmitted. The
per-queue arrival, reception and transmission counters exist for that check
alone: only a checked run and inject update them. A checked slot adds its
arrivals from the block's drawn counts, not where the packets are pushed, so
the first identity sees a lost arrival; transmissions and receptions move
qlen with their counters, so only the bucket sums see a fault in the buckets.
"""

from __future__ import annotations

import json
import math
import operator
from collections import deque
from collections.abc import Iterable
from dataclasses import replace

import numpy as np

from . import channel as chan
from .config import RunParams, SimConfig
from .control import build_slot_schedule, next_review_time, update_qos_weights
from .network import ConfigError, build_constraints, build_link_flow_index
from .optim import WeightVector, solve_review_optimization
from .report import MAX_WINDOW, FlowMetrics, MetricsReport, PeriodLog, Periods

ARRIVAL_STREAM = 1  # seed-sequence domain tag, disjoint from the channel tag
ARRIVAL_BLOCK = 4096  # slots of Poisson counts a stream draws at a time


def _push(born: deque[int], count: deque[int], runs: Iterable[tuple[int, int]]) -> None:
    """Append (creation slot, count) runs to the tail of a bucket queue; a
    run merges into the tail bucket when their creation slots are equal."""
    for slot, n in runs:
        if born and born[-1] == slot:
            count[-1] += n
        else:
            born.append(slot)
            count.append(n)


class _Arrivals:
    """Poisson arrival counts of every (source, destination) stream.

    Each stream draws from one Generator on its own substream, ARRIVAL_BLOCK
    slots at a time, and keeps one block at a time: slot t's count is the
    t-th draw of the substream, the value one poisson(rate, horizon) call
    gives it, whatever windows the slots are read in. All streams hold the
    same block, and the engine reads it in place, by offset. Streams of one
    queue (two flows of one (source, destination)) are folded into one count
    list when a block loads, so the engine pushes at most one bucket per
    queue per slot.
    """

    def __init__(self, streams: list[tuple[int, FlowMetrics, np.random.SeedSequence, float]],
                 horizon: int):
        self.streams = streams  # (queue index, flow record, substream, rate)
        self._horizon = horizon
        self._rngs: list[np.random.Generator] | None = None  # made at the first draw
        self._index = -1  # the block held in _blocks
        self._blocks: list[tuple[int, FlowMetrics, list[int]]] = []

    def block(self, t: int) -> tuple[int, int, list[tuple[int, FlowMetrics, list[int]]]]:
        """(base, end, queues) of the block holding slot t, 0 <= t < horizon:
        it covers slots base .. end - 1, and each queue with a stream is
        (queue index, flow record, counts), where counts[t - base] is slot
        t's count, summed over the queue's streams."""
        b = t // ARRIVAL_BLOCK
        if b != self._index:
            self._load(b)
        base = b * ARRIVAL_BLOCK
        return base, min(base + ARRIVAL_BLOCK, self._horizon), self._blocks

    def _load(self, b: int) -> None:
        """Draw every stream's blocks up to b, a block not before the one held."""
        if self._rngs is None:
            self._rngs = [np.random.default_rng(seq) for _, _, seq, _ in self.streams]
        while self._index < b:
            self._index += 1
            size = min(ARRIVAL_BLOCK, self._horizon - self._index * ARRIVAL_BLOCK)
            counts = [rng.poisson(rate, size) for rng, (*_, rate) in zip(self._rngs, self.streams)]
        by_queue: dict[int, tuple[FlowMetrics, list[int]]] = {}
        for (qi, fm, _, _), block in zip(self.streams, counts):
            block = block.tolist()
            if qi in by_queue:  # Python ints: two counts near the int64 limit add exactly
                block = list(map(operator.add, by_queue[qi][1], block))
            by_queue[qi] = (fm, block)
        self._blocks = [(qi, fm, block) for qi, (fm, block) in by_queue.items()]


class Simulation:
    """One simulation run; construct per (config, seed, horizon) and run once."""

    def __init__(
        self,
        config: SimConfig,
        seed: int,
        horizon: int | None = None,
        check_invariants: bool = False,
        trace_file=None,
    ):
        self.config = config
        horizon = config.run.horizon_slots if horizon is None else horizon
        RunParams(horizon_slots=horizon, seeds=(seed,))  # same checks as a config
        self.seed = int(seed)
        self.horizon = int(horizon)
        self._check = check_invariants
        self._trace_file = trace_file

        net = config.network
        self.net = net
        entries = build_link_flow_index(net)
        self.constraints = build_constraints(entries, net)

        self._qkeys = sorted({(i, f) for (i, j, f) in entries})
        qpos = {key: qi for qi, key in enumerate(self._qkeys)}
        self._qidx_of = [qpos[(i, f)] for (i, j, f) in entries]
        self._f_of = [f for (_, _, f) in entries]
        self._link_of = [(i, j) for (i, j, _) in entries]

        nq = len(self._qkeys)
        # Queue qi is the FIFO of buckets zip(born[qi], count[qi]).
        self._born: list[deque[int]] = [deque() for _ in range(nq)]
        self._count: list[deque[int]] = [deque() for _ in range(nq)]
        self._qlen = [0] * nq
        self._qtime = [0] * nq  # the weighted-time sum W of the module docstring
        self._arr_cum = [0] * nq
        self._rx_cum = [0] * nq
        self._tx_cum = [0] * nq

        self._flows = {fid: FlowMetrics() for fid in net.flow_ids}
        self._qspecs = {fid: config.control.qos.get(fid) for fid in net.flow_ids}
        self._deadline = {
            fid: (spec.deadline_slots if spec and spec.kind == "hard_deadline" else None)
            for fid, spec in self._qspecs.items()
        }
        self._theta_hat_max = max(
            [spec.theta_hat for spec in self._qspecs.values() if spec is not None],
            default=1.0,
        )
        # Per coordinate: (queue, next-hop queue or -1 at the destination, flow
        # record, its histogram, deadline or a delay no packet exceeds).
        self._coords = [
            (
                qpos[(i, f)],
                -1 if j == f else qpos[(j, f)],
                self._flows[f],
                self._flows[f].histogram,
                math.inf if self._deadline[f] is None else self._deadline[f],
            )
            for (i, j, f) in entries
        ]

        # Poisson arrivals, one independent substream per (source,
        # destination) arrival stream in sorted order, drawn block by block
        # as the run reads them. A stream of rate 0 draws nothing.
        flows = sorted(net.flows, key=lambda fl: (fl.source, fl.destination))
        self._arrivals = _Arrivals(
            [
                (
                    qpos[(fl.source, fl.destination)],
                    self._flows[fl.destination],
                    np.random.SeedSequence(entropy=self.seed, spawn_key=(ARRIVAL_STREAM, si)),
                    fl.arrival_rate,
                )
                for si, fl in enumerate(flows)
                if fl.arrival_rate > 0
            ],
            self.horizon,
        )

        self._qbar = config.control.safety_stock_pkts
        self._fmu = [0] * len(entries)
        self._t = 0
        self._t_prev = 0  # the last review slot
        self._t_rev = 0
        self._slots: tuple[tuple[int, ...], ...] = ((),)
        # One row per review, kept column by column.
        self.periods = PeriodLog(config.optimizer.cycles, net.flow_ids)
        self.conservation_violations = 0
        self.interference_violations = 0

    # Read-only clocks: only _advance and _review move them.
    t = property(operator.attrgetter("_t"), doc="The next slot to run.")
    t_rev = property(operator.attrgetter("_t_rev"), doc="The slot of the next review.")

    def inject(self, node: int, flow_id: int, created_slots) -> None:
        """Place packets directly into queue (node, flow); debugging helper.

        Creation slots may not lie after the clock t (ValueError, and the
        queue is unchanged). Injected packets count as exogenous arrivals for
        the conservation bookkeeping.
        """
        if (node, flow_id) not in self._qkeys:
            raise ValueError(f"inject: no queue for node {node!r} and flow {flow_id!r}")
        created = [int(c) for c in created_slots]
        if created and max(created) > self._t:
            raise ValueError(
                f"inject: creation slot {max(created)} is after the clock, t = {self._t}"
            )
        qi = self._qkeys.index((node, flow_id))
        _push(self._born[qi], self._count[qi], [(slot, 1) for slot in created])
        self._qlen[qi] += len(created)
        self._qtime[qi] += len(created) * self._t
        self._arr_cum[qi] += len(created)
        self._flows[flow_id].created += len(created)

    # -- per-slot dynamics --------------------------------------------------

    def _review(self, t: int) -> None:
        cfg = self.config
        if cfg.channel.fixed_gain is not None:
            gains = chan.fixed_gains(self.net, cfg.channel.fixed_gain)
        else:
            gains = chan.draw_gains(
                self.net, len(self.periods), self.seed, cfg.channel.rayleigh_scale_constant
            )
        rates = chan.rate_table(
            gains, cfg.channel.tx_power, cfg.channel.noise_power, cfg.channel.log_base
        )
        mu = list(map(rates.__getitem__, self._link_of))
        try:
            self._fmu = list(map(int, mu))
        except OverflowError:  # an infinite gain; rate_table rejects finite ones
            link = next(link for link, r in rates.items() if r == math.inf)
            raise ConfigError(
                f"channel: link {link}: power gain {gains[link]!r} gives an infinite rate"
            ) from None

        theta = update_qos_weights(self._qspecs, self._flows)
        qlen = self._qlen
        w = list(map(operator.mul, map(theta.__getitem__, self._f_of),
                     map(qlen.__getitem__, self._qidx_of)))
        wv = WeightVector(w=w, mu=mu, theta_hat=self._theta_hat_max)
        s, diag = solve_review_optimization(wv, self.constraints, cfg.optimizer)

        total_backlog = sum(qlen)
        self._t_prev = t
        self._t_rev = next_review_time(t, total_backlog, cfg.control.a1, cfg.control.a2)
        window = self._t_rev - t
        if window > MAX_WINDOW:
            raise ConfigError(
                f"control.a1/control.a2: review window a1 * ln(1 + a2 * backlog) = {window:.4g}"
                f" slots exceeds 2**63 - 1, the longest a period log holds"
                f" (a1={cfg.control.a1!r}, a2={cfg.control.a2!r}, backlog {total_backlog!r})"
            )
        # Slots at or past the horizon never run, so they are not realized.
        schedule = build_slot_schedule(s, window, self.constraints, self.horizon - t)
        if self._check:
            self.interference_violations += schedule.count_violations(self.constraints)
        self._slots = schedule.active_by_offset

        self.periods.add(
            start=t,
            window=schedule.window,
            objective=diag.final_objective,
            objective_trace=diag.objective_trace,
            c2=diag.c2,
            c3=diag.c3,
            handoff_messages=diag.handoff_messages,
            excess_broadcasts=diag.excess_broadcasts,
            theta=theta,
        )
        if self._trace_file is not None:
            self._trace_file.write(
                json.dumps(
                    {
                        "t": t,
                        "window": schedule.window,
                        "objective": diag.final_objective,
                        "queues": {f"{i}:{f}": qlen[qi] for qi, (i, f) in enumerate(self._qkeys)},
                        "assigned": list(schedule.assigned),
                    },
                    sort_keys=True,
                )
                + "\n"
            )

    def step(self) -> None:
        """Advance one slot: review if due, arrivals, service, accounting."""
        self._advance(self._t + 1)

    def _advance(self, stop: int) -> None:
        """Run slots self.t .. stop - 1, one review window at a time.

        Each pass of the outer loop reviews if due, then runs the slots up to
        the next review, stop or the end of the arrival block under one slot
        schedule, reading the block's counts and the schedule by offset. A
        stop past the horizon raises ValueError and changes nothing.
        """
        if stop > self.horizon:
            raise ValueError(
                f"cannot run to slot {stop}: the horizon is {self.horizon} slots"
            )
        t = self._t
        born = self._born
        count = self._count
        qlen = self._qlen
        qtime = self._qtime
        arr_cum = self._arr_cum
        rx_cum = self._rx_cum
        tx_cum = self._tx_cum
        flows = self._flows
        coords = self._coords
        qbar = self._qbar
        check = self._check
        masks = self.constraints.masks
        blk_end = 0  # no block read yet
        while t < stop:
            if t == self._t_rev:
                self._review(t)
            t_rev = self._t_rev
            end = t_rev if t_rev < stop else stop
            if t >= blk_end:
                base, blk_end, arrivals = self._arrivals.block(t)
            if end > blk_end:
                end = blk_end
            fmu = self._fmu
            slots = self._slots
            tp = self._t_prev
            for t in range(t, end):
                i = t - base
                for qi, fm, arr in arrivals:
                    n_new = arr[i]
                    if n_new:
                        born[qi].append(t)
                        count[qi].append(n_new)
                        qlen[qi] += n_new
                        qtime[qi] += n_new * t
                        fm.created += n_new

                active = slots[t - tp]
                if active:
                    stage: list[tuple[int, int]] = []
                    txmask = 0
                    for k in active:
                        qi, rq, fm, hist, deadline = coords[k]
                        avail = qlen[qi] - qbar
                        if avail <= 0:
                            continue
                        n_mv = fmu[k]
                        if n_mv > avail:
                            n_mv = avail
                        if n_mv <= 0:
                            continue
                        # Drain n_mv packets from the head; only the head
                        # bucket is ever split. Each (creation slot, n) piece
                        # is delivered as a whole or forwarded.
                        b = born[qi]
                        cn = count[qi]
                        rem = n_mv
                        if rq < 0:
                            delay_sum = late = 0
                            while rem:
                                n = cn[0]
                                if n > rem:
                                    cn[0] = n - rem
                                    slot = b[0]
                                    n = rem
                                else:
                                    cn.popleft()
                                    slot = b.popleft()
                                rem -= n
                                d = t - slot
                                delay_sum += d * n
                                if d > deadline:
                                    late += n
                                hist[d] = hist.get(d, 0) + n
                            fm.delivered += n_mv
                            fm.delay_sum += delay_sum
                            fm.late += late
                        else:
                            # Forwarded pieces go straight onto the next hop's
                            # tail, but its length grows only once every link
                            # of the slot has sent (stage). Links take at most
                            # that length minus qbar from the head, so no
                            # packet moves twice in one slot; a piece merged
                            # into an equal-slot tail bucket is
                            # indistinguishable from the rest of it. Only the
                            # first piece can equal that tail: neighbouring
                            # buckets of this queue hold different slots, so
                            # each later piece opens a bucket of its own.
                            rb = born[rq]
                            rc = count[rq]
                            n = cn[0]
                            if n > rem:
                                cn[0] = n - rem
                                slot = b[0]
                                n = rem
                            else:
                                cn.popleft()
                                slot = b.popleft()
                            if rb and rb[-1] == slot:
                                rc[-1] += n
                            else:
                                rb.append(slot)
                                rc.append(n)
                            rem -= n
                            while rem:
                                n = cn[0]
                                if n > rem:
                                    cn[0] = n - rem
                                    rb.append(b[0])
                                    rc.append(rem)
                                    break
                                rb.append(b.popleft())
                                rc.append(cn.popleft())
                                rem -= n
                            stage.append((rq, n_mv))
                        qlen[qi] -= n_mv
                        qtime[qi] -= n_mv * t
                        if check:
                            tx_cum[qi] += n_mv
                            m = masks[k]
                            if txmask & m:
                                self.interference_violations += 1
                            txmask |= m
                    for rq, n_mv in stage:
                        qlen[rq] += n_mv
                        qtime[rq] += n_mv * t
                    if check:
                        for rq, n_mv in stage:
                            rx_cum[rq] += n_mv

                if check:
                    for qi, _, arr in arrivals:
                        arr_cum[qi] += arr[i]
                    for qi in range(len(qlen)):
                        if qlen[qi] != arr_cum[qi] + rx_cum[qi] - tx_cum[qi]:
                            self.conservation_violations += 1
                        # Transmissions and receptions move qlen with their
                        # counters, so only this sees a fault in the buckets.
                        if sum(count[qi]) != qlen[qi]:
                            self.conservation_violations += 1
                    created = sum(fm.created for fm in flows.values())
                    delivered = sum(fm.delivered for fm in flows.values())
                    if created != delivered + sum(qlen):
                        self.conservation_violations += 1
            t = end
            self._t = t

    # -- reporting ------------------------------------------------------------

    def report(self) -> MetricsReport:
        """Snapshot of the run so far; later slots do not change it."""
        flows = {
            fid: replace(
                fm,
                on_time=fm.delivered - fm.late,
                mean_delay=fm.delay_sum / fm.delivered if fm.delivered else None,
                drop_ratio=fm.late / fm.delivered if fm.delivered else None,
                histogram=dict(sorted(fm.histogram.items())),
            )
            for fid, fm in self._flows.items()
        }
        # Averaged over the slots run so far; before the first slot every sum
        # is 0 and the horizon stands in.
        t = self._t
        slots = t or self.horizon
        queue_avg = (
            {
                key: (t * n - w) / slots
                for key, n, w in zip(self._qkeys, self._qlen, self._qtime)
            }
            if slots
            else {}
        )
        return MetricsReport(
            seed=self.seed,
            horizon=self.horizon,
            flows=flows,
            queue_avg=queue_avg,
            periods=Periods(self.periods),
            conservation_violations=self.conservation_violations,
            interference_violations=self.interference_violations,
        )

    def run(self) -> MetricsReport:
        # One step() per review slot, then the rest of its window in one call.
        while self._t < self.horizon:
            self.step()
            self._advance(min(self._t_rev, self.horizon))
        return self.report()


def run_simulation(
    config: SimConfig,
    horizon: int | None = None,
    seed: int | None = None,
    check_invariants: bool = False,
    trace_file=None,
) -> MetricsReport:
    """Run one seeded simulation; a pure function of (config, seed, horizon).

    The report keeps one PeriodRecord per review. check_invariants counts
    conservation and interference violations every slot; trace_file, if
    given, receives one JSON line per review.
    """
    if seed is None:
        seed = config.run.seeds[0]
    sim = Simulation(
        config,
        seed=seed,
        horizon=horizon,
        check_invariants=check_invariants,
        trace_file=trace_file,
    )
    return sim.run()

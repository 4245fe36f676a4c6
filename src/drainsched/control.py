"""Discrete-review control: review clock, QoS priority weights and slot-level
schedule realization.

Everything here is a pure function of its inputs so control decisions replay
identically across runs with the same state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .network import ConfigError, ConstraintSet, integer, number

if TYPE_CHECKING:
    from .report import FlowMetrics

QOS_KINDS = ("mean_delay", "hard_deadline")


@dataclass(frozen=True)
class QosSpec:
    """Per-flow QoS requirement.

    mean_delay: keep the empirical end-to-end mean delay at or below
        target_slots.
    hard_deadline: keep the fraction of packets delivered later than
        deadline_slots at or below drop_ratio_target (late packets are
        dropped at the destination).
    theta_hat is the priority weight applied while the requirement is
    violated; satisfied (or not yet measurable) flows weigh 1.
    """

    kind: str
    target_slots: float | None = None
    deadline_slots: int | None = None
    drop_ratio_target: float | None = None
    theta_hat: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "theta_hat",
                           number(self.theta_hat, "qos.theta_hat", 1, strict=True))
        if self.kind not in QOS_KINDS:
            raise ConfigError(f"qos.kind must be one of {QOS_KINDS}, got {self.kind!r}")
        if self.kind == "mean_delay":
            if self.target_slots is None:
                raise ConfigError("qos: mean_delay requires a finite target_slots > 0")
            object.__setattr__(self, "target_slots",
                               number(self.target_slots, "qos.target_slots", 0, strict=True))
            if self.deadline_slots is not None or self.drop_ratio_target is not None:
                raise ConfigError("qos: mean_delay takes only target_slots")
        else:
            if self.deadline_slots is None:
                raise ConfigError("qos: hard_deadline requires a finite deadline_slots > 0")
            object.__setattr__(
                self, "deadline_slots", integer(self.deadline_slots, "qos.deadline_slots", 1)
            )
            if self.drop_ratio_target is None:
                raise ConfigError("qos: hard_deadline requires drop_ratio_target in (0, 1)")
            object.__setattr__(self, "drop_ratio_target", number(
                self.drop_ratio_target, "qos.drop_ratio_target", 0, strict=True, high=1))
            if self.target_slots is not None:
                raise ConfigError("qos: hard_deadline takes no target_slots")


def next_review_time(t: int, total_backlog: float, a1: float = 1.0, a2: float = 1.0) -> int:
    """Next review slot: t + max(1, round(a1 * ln(1 + a2 * total backlog))).

    The period length grows logarithmically with the backlog; the floor of
    one slot keeps the clock moving when the network is empty. A length
    that overflows a float is a ConfigError naming control.a1 and control.a2.
    """
    number(total_backlog, "total backlog", 0)
    number(a1, "a1", 0, strict=True)
    number(a2, "a2", 0, strict=True)
    length = a1 * math.log1p(a2 * total_backlog)
    if length == math.inf:
        raise ConfigError(
            f"control.a1/control.a2: review window a1 * ln(1 + a2 * backlog) is not finite "
            f"(a1={a1!r}, a2={a2!r}, backlog {total_backlog!r})"
        )
    return t + max(1, int(math.floor(length + 0.5)))


def update_qos_weights(
    specs: Mapping[int, QosSpec], flows: Mapping[int, FlowMetrics]
) -> dict[int, float]:
    """Priority weight of every flow in flows, by ascending flow id, from
    destination statistics only.

    Reads delivered, delay_sum and late of each flow's FlowMetrics. A flow
    weighs theta_hat while its requirement is strictly violated
    (empirical mean delay above target, or late fraction above the drop
    target). Flows without a spec in specs, or without any delivery yet,
    weigh 1.
    """
    out: dict[int, float] = {}
    for fid in sorted(flows):
        spec = specs.get(fid)
        c = flows[fid]
        if spec is None or c.delivered == 0:
            out[fid] = 1.0
        elif spec.kind == "mean_delay":
            out[fid] = spec.theta_hat if c.delay_sum / c.delivered > spec.target_slots else 1.0
        else:
            out[fid] = spec.theta_hat if c.late / c.delivered > spec.drop_ratio_target else 1.0
    return out


@dataclass(frozen=True)
class SlotSchedule:
    """Realized 0/1 activations for one review window.

    active_by_offset[off] lists the active coordinates of the window's slot
    off in ascending order, for each realized slot. assigned counts each
    coordinate's realized slots, quota its share of the whole window.
    """

    window: int
    active_by_offset: tuple[tuple[int, ...], ...]
    assigned: tuple[int, ...]
    quota: tuple[int, ...]

    def count_violations(self, constraints: ConstraintSet) -> int:
        """Exhaustive exclusivity check; 0 for any schedule built here."""
        bad = 0
        for active in self.active_by_offset:
            seen: set[int] = set()
            for k in active:
                ids = set(constraints.memberships[k])
                if seen & ids:
                    bad += 1
                seen |= ids
        return bad


def build_slot_schedule(
    s, window: int, constraints: ConstraintSet, slots: int | None = None
) -> SlotSchedule:
    """Greedily realize the time fractions s (any 1-d sequence of numbers) as
    conflict-free slot activations.

    Coordinates are visited in index order (node, then link, then flow); each
    claims the earliest slots that conflict with nothing already assigned,
    up to its quota. The quota is floor(s_k * window), plus one slot when the
    fractional remainder exceeds one half.

    Only the window's first min(window, slots) slots are realized (all of
    them by default). Quotas still come from the whole window, and since
    slots are claimed earliest first, the realized slots are exactly the
    first slots of the whole window's schedule.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1 slot, got {window}")
    reach = window if slots is None else min(window, slots)
    s = list(map(float, s))
    n = constraints.n_coords
    if len(s) != n:
        raise ValueError(f"schedule vector has {len(s)} coordinates, constraints {n}")

    floor = math.floor
    quota = []
    for v in s:
        target = v * window
        q = floor(target)
        quota.append(q + 1 if target - q > 0.5 else q)

    busy = [0] * reach
    active: list[list[int]] = [[] for _ in range(reach)]
    assigned = [0] * n
    offsets = range(reach)
    for k, mk in enumerate(constraints.masks):
        need = quota[k]
        if need <= 0:
            continue
        got = 0
        for off in offsets:
            if busy[off] & mk:
                continue
            busy[off] |= mk
            active[off].append(k)
            got += 1
            if got == need:
                break
        assigned[k] = got

    return SlotSchedule(
        window=window,
        active_by_offset=tuple(map(tuple, active)),
        assigned=tuple(assigned),
        quota=tuple(quota),
    )

"""Discrete-review control: review clock, QoS priority weights and slot-level
schedule realization.

Everything here is a pure function of its inputs so control decisions replay
identically across runs with the same state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .network import ConfigError, ConstraintSet, is_integer

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
        if self.kind not in QOS_KINDS:
            raise ConfigError(f"qos.kind must be one of {QOS_KINDS}, got {self.kind!r}")
        if not 1.0 < self.theta_hat < math.inf:
            raise ConfigError(f"qos.theta_hat must be finite and > 1, got {self.theta_hat}")
        if self.kind == "mean_delay":
            if self.target_slots is None or not 0 < self.target_slots < math.inf:
                raise ConfigError("qos: mean_delay requires a finite target_slots > 0")
            if self.deadline_slots is not None or self.drop_ratio_target is not None:
                raise ConfigError("qos: mean_delay takes only target_slots")
        else:
            if self.deadline_slots is None or not 0 < self.deadline_slots < math.inf:
                raise ConfigError("qos: hard_deadline requires a finite deadline_slots > 0")
            if not is_integer(self.deadline_slots):
                raise ConfigError(
                    f"qos.deadline_slots must be an integer, got {self.deadline_slots!r}"
                )
            object.__setattr__(self, "deadline_slots", int(self.deadline_slots))
            if self.drop_ratio_target is None or not 0 < self.drop_ratio_target < 1:
                raise ConfigError("qos: hard_deadline requires drop_ratio_target in (0, 1)")
            if self.target_slots is not None:
                raise ConfigError("qos: hard_deadline takes no target_slots")


def next_review_time(t: int, total_backlog: float, a1: float = 1.0, a2: float = 1.0) -> int:
    """Next review slot: t + max(1, round(a1 * ln(1 + a2 * total backlog))).

    The period length grows logarithmically with the backlog; the floor of
    one slot keeps the clock moving when the network is empty. A length
    that overflows a float is a ConfigError naming control.a1 and control.a2.
    """
    if not 0 <= total_backlog < math.inf:
        raise ValueError(f"total backlog must be finite and >= 0, got {total_backlog}")
    if not (0 < a1 < math.inf and 0 < a2 < math.inf):
        raise ValueError(f"review constants a1 and a2 must be finite and > 0, got {a1}, {a2}")
    length = a1 * math.log1p(a2 * total_backlog)
    if length == math.inf:
        raise ConfigError(
            f"control.a1/control.a2: review window a1 * ln(1 + a2 * backlog) is not finite "
            f"(a1={a1!r}, a2={a2!r}, backlog {total_backlog!r})"
        )
    return t + max(1, int(math.floor(length + 0.5)))


def update_qos_weights(
    specs: Mapping[int, QosSpec | None], flows: Mapping[int, FlowMetrics]
) -> dict[int, float]:
    """Priority weight per flow from destination statistics only.

    Reads delivered, delay_sum and late of each flow's FlowMetrics. A flow
    weighs theta_hat while its requirement is strictly violated
    (empirical mean delay above target, or late fraction above the drop
    target). Flows without a requirement, or without any delivery yet,
    weigh 1.
    """
    out: dict[int, float] = {}
    for fid in sorted(specs):
        spec = specs[fid]
        c = flows.get(fid)
        if spec is None or c is None or c.delivered == 0:
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
    off in ascending order. assigned and quota are per coordinate.
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


def build_slot_schedule(s, window: int, constraints: ConstraintSet) -> SlotSchedule:
    """Greedily realize the time fractions as conflict-free slot activations.

    Coordinates are visited in index order (node, then link, then flow); each
    claims the earliest slots that conflict with nothing already assigned,
    up to its quota. The quota is floor(s_k * window), plus one slot when the
    fractional remainder exceeds one half.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1 slot, got {window}")
    s = np.asarray(s, dtype=float).tolist()
    n = constraints.n_coords
    if len(s) != n:
        raise ValueError(f"schedule vector has {len(s)} coordinates, constraints {n}")

    quota = []
    for v in s:
        target = v * window
        q = math.floor(target)
        if target - q > 0.5:
            q += 1
        quota.append(q)

    masks = constraints.masks
    busy = [0] * window
    active: list[list[int]] = [[] for _ in range(window)]
    assigned = [0] * n
    for k in range(n):
        need = quota[k]
        if need <= 0:
            continue
        mk = masks[k]
        got = 0
        for off in range(window):
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
        active_by_offset=tuple(tuple(a) for a in active),
        assigned=tuple(assigned),
        quota=tuple(quota),
    )

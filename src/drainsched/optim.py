"""Review-time schedule optimization.

The objective is linear, sum_k w_k * mu_k * s(k), where w_k is a queue-scaled
priority weight and mu_k the current rate of coordinate k's link. It is
maximized by cyclic per-coordinate gradient steps; each step is followed by
projection onto the (at most two) endpoint halfspaces of the touched
coordinate, and a final repair pass clamps and rescales the vector into the
polytope. This mirrors a distributed execution where each step is one node's
local update plus a small broadcast; the message counts are reported in the
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import ConstraintSet, Halfspace

INIT_MODES = ("ones", "zeros")
DIVISOR_MODES = ("coordinates", "links")


@dataclass(frozen=True)
class WeightVector:
    """Per-coordinate objective data at a review instant.

    w[k] is theta^f * (backlog of queue (i(k), f(k))), mu[k] the link rate.
    theta_hat is the largest configured priority weight; it only feeds the
    convergence-bound diagnostic.
    """

    w: np.ndarray
    mu: np.ndarray
    theta_hat: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        if self.w.shape != self.mu.shape or self.w.ndim != 1:
            raise ValueError("w and mu must be 1-d vectors of equal length")
        if (self.w < 0).any() or (self.mu < 0).any():
            raise ValueError("weights and rates must be nonnegative")
        if self.theta_hat < 1.0:
            raise ValueError(f"theta_hat must be >= 1, got {self.theta_hat}")

    @property
    def n_coords(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class OptParams:
    """Optimizer knobs.

    step_size: gradient step (alpha).
    cycles: number of full passes over the coordinates.
    projection_repeats: alternation count when both endpoint halfspaces are
        violated.
    init_mode: starting vector, all ones (default) or all zeros.
    divisor_mode: "coordinates" divides a violation equally over the member
        coordinates (exact orthogonal projection); "links" divides by the
        interference set's link count instead, reproducing the coarser
        per-link message arithmetic.
    """

    step_size: float = 1e-4
    cycles: int = 8
    projection_repeats: int = 10
    init_mode: str = "ones"
    divisor_mode: str = "coordinates"

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")
        if self.projection_repeats < 1:
            raise ValueError(f"projection_repeats must be >= 1, got {self.projection_repeats}")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}")
        if self.divisor_mode not in DIVISOR_MODES:
            raise ValueError(
                f"divisor_mode (config key projection_divisor) must be one of "
                f"{DIVISOR_MODES}, got {self.divisor_mode!r}"
            )


@dataclass(frozen=True)
class OptDiagnostics:
    """Solver telemetry: convergence bound, per-cycle trace, message counts."""

    c2: float
    beta: float
    c3: float
    objective_trace: tuple[float, ...]
    final_objective: float
    handoff_messages: int
    excess_broadcasts: int


def objective(s, weights: WeightVector) -> float:
    """sum_k w_k * mu_k * s(k)."""
    s = np.asarray(s, dtype=float)
    if s.shape != weights.w.shape:
        raise ValueError(
            f"dimension mismatch: schedule has {s.shape}, weights have {weights.w.shape}"
        )
    return float(np.dot(weights.w * weights.mu, s))


def project_onto_halfspace(s, h: Halfspace) -> np.ndarray:
    """Orthogonal projection onto h, identity if s already satisfies it.

    For the uniform sum-cap halfspaces this is computed as subtracting
    (member_sum - 1) / n from each of the n member coordinates, which is the
    same projection expressed in plain sums.
    """
    out = np.array(s, dtype=float, copy=True)
    idx = list(h.members)
    if h.uniform:
        total = float(out[idx].sum())
        if total > 1.0:
            out[idx] -= (total - 1.0) / len(idx)
    else:
        nu = np.asarray(h.normal)
        val = float(out[idx] @ nu)
        if val > h.bound:
            out[idx] -= (val - h.bound) * nu
    return out


def alternating_project(s, h1: Halfspace, h2: Halfspace, repeats: int) -> np.ndarray:
    """Repair the two endpoint halfspaces after a coordinate update.

    If at most one is violated a single projection suffices (projecting with
    a nonnegative normal can only lower the other constraint's value). If
    both are violated the projections alternate up to ``repeats`` times; the
    larger of the two violations never increases along the way.
    """
    out = np.array(s, dtype=float, copy=True)
    same = h1 is h2 or h1 == h2
    v1 = h1.violation(out) > 0
    v2 = (not same) and h2.violation(out) > 0
    if v1 and v2:
        for _ in range(repeats):
            out = project_onto_halfspace(out, h1)
            out = project_onto_halfspace(out, h2)
            if h1.violation(out) <= 0 and h2.violation(out) <= 0:
                break
    elif v1:
        out = project_onto_halfspace(out, h1)
    elif v2:
        out = project_onto_halfspace(out, h2)
    return out


def finalize_feasible(s, constraints: ConstraintSet) -> np.ndarray:
    """Clamp negatives to zero, then rescale every oversubscribed halfspace.

    Halfspaces are visited in their fixed construction order; dividing a
    member group by its sum can only lower other groups' sums, so a single
    pass lands inside the polytope with every coordinate in [0, 1].
    """
    out = np.array(s, dtype=float, copy=True)
    np.clip(out, 0.0, None, out=out)
    for h in constraints.halfspaces:
        idx = list(h.members)
        total = float(out[idx].sum())
        if total > 1.0:
            out[idx] /= total
    return out


def theorem_gap_bound(step_size: float, n_coords: int, c2: float) -> tuple[float, float]:
    """Asymptotic suboptimality bound of the constant-step cyclic method.

    Returns (beta, c3) with beta = 4 + 1/n and c3 = step * beta * n^2 * c2^2 / 2,
    where c2 bounds the per-coordinate gradient magnitude theta * mu.
    """
    if n_coords <= 0:
        raise ValueError("n_coords must be positive")
    beta = 4.0 + 1.0 / n_coords
    c3 = step_size * beta * n_coords**2 * c2**2 / 2.0
    return beta, c3


def pseudo_draining_time(backlog: float, outflow: float) -> float:
    """backlog / allocated outflow rate; a local lower bound on draining time.

    Zero backlog drains instantly; positive backlog with zero outflow never
    drains.
    """
    if backlog < 0:
        raise ValueError(f"backlog must be >= 0, got {backlog}")
    if outflow < 0:
        raise ValueError(f"outflow must be >= 0, got {outflow}")
    if backlog == 0:
        return 0.0
    if outflow == 0:
        return math.inf
    return backlog / outflow


def solve_review_optimization(
    weights: WeightVector, constraints: ConstraintSet, params: OptParams
) -> tuple[np.ndarray, OptDiagnostics]:
    """Run the cyclic ascent and return a feasible schedule plus diagnostics.

    Each cycle visits every coordinate once in index order: one gradient
    step, then the endpoint-halfspace repair. After the last cycle the
    iterate is clamped and rescaled into the polytope. The handoff count is
    one message per coordinate step; each applied projection broadcasts one
    correction value to the other member coordinates.
    """
    n = constraints.n_coords
    if weights.n_coords != n:
        raise ValueError(f"weights have {weights.n_coords} coordinates, constraints {n}")
    c2 = weights.theta_hat * float(weights.mu.max()) if n else 0.0
    beta, c3 = theorem_gap_bound(params.step_size, n, c2)

    init = np.ones(n) if params.init_mode == "ones" else np.zeros(n)
    wmu = weights.w * weights.mu
    if not wmu.any():
        s = finalize_feasible(init, constraints)
        return s, OptDiagnostics(
            c2=c2,
            beta=beta,
            c3=c3,
            objective_trace=(0.0,) * params.cycles,
            final_objective=0.0,
            handoff_messages=0,
            excess_broadcasts=0,
        )

    members = [list(h.members) for h in constraints.halfspaces]
    if params.divisor_mode == "coordinates":
        divisor = [1.0 / len(m) for m in members]
    else:
        divisor = [
            1.0 / (h.link_count if h.link_count else len(h.members))
            for h in constraints.halfspaces
        ]
    endpoints = constraints.endpoints
    n_rep = params.projection_repeats
    inc = [params.step_size * float(v) for v in wmu]
    wmu_l = [float(v) for v in wmu]
    s = [float(v) for v in init]
    broadcasts = 0
    trace = []

    for _ in range(params.cycles):
        for k in range(n):
            s[k] += inc[k]
            h1, h2 = endpoints[k]
            m1 = members[h1]
            total1 = 0.0
            for q in m1:
                total1 += s[q]
            if h1 == h2:
                if total1 > 1.0:
                    d = (total1 - 1.0) * divisor[h1]
                    for q in m1:
                        s[q] -= d
                    broadcasts += len(m1) - 1
                continue
            m2 = members[h2]
            total2 = 0.0
            for q in m2:
                total2 += s[q]
            if total1 > 1.0 and total2 > 1.0:
                for _rep in range(n_rep):
                    changed = False
                    total1 = 0.0
                    for q in m1:
                        total1 += s[q]
                    if total1 > 1.0:
                        d = (total1 - 1.0) * divisor[h1]
                        for q in m1:
                            s[q] -= d
                        broadcasts += len(m1) - 1
                        changed = True
                    total2 = 0.0
                    for q in m2:
                        total2 += s[q]
                    if total2 > 1.0:
                        d = (total2 - 1.0) * divisor[h2]
                        for q in m2:
                            s[q] -= d
                        broadcasts += len(m2) - 1
                        changed = True
                    if not changed:
                        break
            elif total1 > 1.0:
                d = (total1 - 1.0) * divisor[h1]
                for q in m1:
                    s[q] -= d
                broadcasts += len(m1) - 1
            elif total2 > 1.0:
                d = (total2 - 1.0) * divisor[h2]
                for q in m2:
                    s[q] -= d
                broadcasts += len(m2) - 1
        obj = 0.0
        for k in range(n):
            obj += wmu_l[k] * s[k]
        trace.append(obj)

    out = finalize_feasible(np.array(s), constraints)
    return out, OptDiagnostics(
        c2=c2,
        beta=beta,
        c3=c3,
        objective_trace=tuple(trace),
        final_objective=float(np.dot(wmu, out)),
        handoff_messages=params.cycles * n,
        excess_broadcasts=broadcasts,
    )

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
        # fmin skips NaN, so this holds exactly when w or mu has a negative
        if (np.fmin(self.w, self.mu) < 0).any():
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
        if not 0 < self.step_size < math.inf:
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
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
    pass lands inside the polytope with every coordinate in [0, 1]. Accepts
    any 1-d sequence of numbers and returns a new float ndarray.
    """
    # Group sums run left to right from 0.0, as the solver's do; numpy sums
    # fewer than 8 elements the same way (larger groups it sums pairwise).
    # Builtin sum() is avoided: Python 3.12 made it compensated. The clamp
    # maps -0.0 to 0.0 and keeps NaN, as np.clip does.
    out = [0.0 if v <= 0.0 else v for v in map(float, s)]
    for m in constraints.member_groups:
        total = 0.0
        for q in m:
            total += out[q]
        if total > 1.0:
            for q in m:
                out[q] /= total
    return np.array(out, dtype=float)


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
    # c2 takes ndarray.max(): on rates of mixed-sign zeros the sign it returns
    # depends on its vectorized reduction order, which no list loop matches.
    c2 = weights.theta_hat * float(weights.mu.max()) if n else 0.0
    beta, c3 = theorem_gap_bound(params.step_size, n, c2)

    s = [1.0 if params.init_mode == "ones" else 0.0] * n
    wmu = weights.w * weights.mu
    wmu_l = wmu.tolist()
    if not any(wmu_l):
        return finalize_feasible(s, constraints), OptDiagnostics(
            c2=c2,
            beta=beta,
            c3=c3,
            objective_trace=(0.0,) * params.cycles,
            final_objective=0.0,
            handoff_messages=0,
            excess_broadcasts=0,
        )

    plan = constraints.endpoint_plans[params.divisor_mode]
    n_rep = params.projection_repeats
    step = params.step_size
    steps = [(k, step * v) + p for k, (v, p) in enumerate(zip(wmu_l, plan))]
    broadcasts = 0
    trace = []

    for _ in range(params.cycles):
        for k, inc, m1, d1, b1, m2, d2, b2 in steps:
            s[k] += inc
            total1 = 0.0
            for q in m1:
                total1 += s[q]
            total2 = 0.0
            for q in m2:
                total2 += s[q]
            if total1 > 1.0:
                if total2 > 1.0:
                    # Both violated: alternate. Each pass projects onto
                    # whichever of the two is still violated, re-summing
                    # after every projection.
                    for _rep in range(n_rep):
                        changed = False
                        if total1 > 1.0:
                            d = (total1 - 1.0) * d1
                            for q in m1:
                                s[q] -= d
                            broadcasts += b1
                            changed = True
                        total2 = 0.0
                        for q in m2:
                            total2 += s[q]
                        if total2 > 1.0:
                            d = (total2 - 1.0) * d2
                            for q in m2:
                                s[q] -= d
                            broadcasts += b2
                            changed = True
                        if not changed:
                            break
                        total1 = 0.0
                        for q in m1:
                            total1 += s[q]
                else:
                    d = (total1 - 1.0) * d1
                    for q in m1:
                        s[q] -= d
                    broadcasts += b1
            elif total2 > 1.0:
                d = (total2 - 1.0) * d2
                for q in m2:
                    s[q] -= d
                broadcasts += b2
        obj = 0.0
        for v, x in zip(wmu_l, s):
            obj += v * x
        trace.append(obj)

    out = finalize_feasible(s, constraints)
    return out, OptDiagnostics(
        c2=c2,
        beta=beta,
        c3=c3,
        objective_trace=tuple(trace),
        final_objective=float(np.dot(wmu, out)),
        handoff_messages=params.cycles * n,
        excess_broadcasts=broadcasts,
    )

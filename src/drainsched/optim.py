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
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .network import ConfigError, ConstraintSet, Halfspace, integer, number

INIT_MODES = ("ones", "zeros")
DIVISOR_MODES = ("coordinates", "links")


def _floats(values) -> list[float]:
    """values as a list of floats, each entry converted as np.asarray(values,
    dtype=float) converts it; anything but a 1-d sequence is a ValueError."""
    if isinstance(values, list):
        try:
            return list(map(float, values))
        except TypeError:
            pass  # a nested entry: let numpy find the shape
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError("w and mu must be 1-d vectors of equal length")
    return array.tolist()


@dataclass(frozen=True)
class WeightVector:
    """Per-coordinate objective data at a review instant.

    w[k] is theta^f * (backlog of queue (i(k), f(k))), mu[k] the link rate.
    Both are stored as tuples of floats, each finite and >= 0; any 1-d sequence
    (a list, a tuple or an ndarray) is accepted. theta_hat (finite, >= 1) is
    the largest configured priority weight; it only feeds the convergence bound.
    """

    w: tuple[float, ...]
    mu: tuple[float, ...]
    theta_hat: float = 1.0

    def __post_init__(self):
        w = _floats(self.w)
        mu = _floats(self.mu)
        if len(w) != len(mu):
            raise ValueError("w and mu must be 1-d vectors of equal length")
        # One inline pass per vector (the review path); number words the error.
        for name, values in (("w", w), ("mu", mu)):
            for x in values:
                if not 0.0 <= x < math.inf:  # NaN fails both comparisons
                    number(x, name, 0)
        object.__setattr__(self, "theta_hat", number(self.theta_hat, "theta_hat", 1))
        # Built from the lists, never from an iterator: a tuple grown from an
        # iterator is resized, and the freed ones pile up on CPython's tuple
        # free list instead of being reused.
        object.__setattr__(self, "w", tuple(w))
        object.__setattr__(self, "mu", tuple(mu))

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
    A bad value is a ConfigError naming its config key (optimizer.<key>).
    """

    step_size: float = 1e-4
    cycles: int = 8
    projection_repeats: int = 10
    init_mode: str = "ones"
    divisor_mode: str = "coordinates"

    def __post_init__(self):
        object.__setattr__(self, "step_size",
                           number(self.step_size, "optimizer.step_size", 0, strict=True))
        for name in ("cycles", "projection_repeats"):
            object.__setattr__(self, name, integer(getattr(self, name), f"optimizer.{name}", 1))
        if self.init_mode not in INIT_MODES:
            raise ConfigError(
                f"optimizer.init_mode must be one of {INIT_MODES}, got {self.init_mode!r}"
            )
        if self.divisor_mode not in DIVISOR_MODES:
            raise ConfigError(
                f"optimizer.projection_divisor must be one of {DIVISOR_MODES}, "
                f"got {self.divisor_mode!r}"
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
    """sum_k w_k * mu_k * s(k), the package's one dot product; the solver's
    final_objective is this value. Each w_k * mu_k is one IEEE multiply, as
    in the solver."""
    wmu = list(map(operator.mul, weights.w, weights.mu))
    s = np.asarray(s, dtype=float)
    if s.shape != (len(wmu),):
        raise ValueError(f"dimension mismatch: schedule has {s.shape}, weights have {(len(wmu),)}")
    return float(np.dot(wmu, s))


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


def finalize_feasible(s, constraints: ConstraintSet) -> list[float]:
    """Clamp negatives to zero, then rescale every oversubscribed halfspace.

    Halfspaces are visited in their fixed construction order; dividing a
    member group by its sum can only lower other groups' sums, so a single
    pass lands inside the polytope with every coordinate in [0, 1]. Accepts
    any 1-d sequence of numbers and returns a new list of floats.
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


def solve_review_optimization(
    weights: WeightVector, constraints: ConstraintSet, params: OptParams
) -> tuple[list[float], OptDiagnostics]:
    """Run the cyclic ascent; return a feasible schedule (a list) and diagnostics.

    Each cycle visits every coordinate once in index order: one gradient
    step, then the endpoint-halfspace repair. After the last cycle the
    iterate is clamped and rescaled into the polytope. The handoff count is
    one message per coordinate step; each applied projection broadcasts one
    correction value to the other member coordinates. Every solve runs the
    cycles in the compiled kernel of the set's endpoint plan (cycle_kernel).
    """
    n = constraints.n_coords
    if weights.n_coords != n:
        raise ValueError(f"weights have {weights.n_coords} coordinates, constraints {n}")
    mu = weights.mu
    top = max(mu, default=0.0)
    if top == 0.0 and n:
        # Only a zero max can differ: on rates of mixed-sign zeros the sign
        # np.maximum.reduce (what ndarray.max() wraps) returns depends on its
        # vectorized reduction order, which no list loop matches.
        top = float(np.maximum.reduce(mu))
    c2 = weights.theta_hat * top
    try:
        beta, c3 = theorem_gap_bound(params.step_size, n, c2)
    except OverflowError:  # c2**2 beyond the float range
        c3 = math.inf
    if c3 == math.inf:
        raise ValueError(
            f"mu too large: the gap bound c3 overflows at c2 = theta_hat * max(mu) = {c2!r}"
            f" and step size {params.step_size!r}"
        )

    s = [1.0 if params.init_mode == "ones" else 0.0] * n
    # The products numpy's w * mu gives, one IEEE multiply each.
    wmu = list(map(operator.mul, weights.w, mu))
    if not any(wmu):
        return finalize_feasible(s, constraints), OptDiagnostics(
            c2=c2,
            beta=beta,
            c3=c3,
            objective_trace=(0.0,) * params.cycles,
            final_objective=0.0,
            handoff_messages=0,
            excess_broadcasts=0,
        )

    run = cycle_kernel(constraints, params.divisor_mode)
    step = params.step_size
    s, broadcasts, trace = run(
        s, [step * v for v in wmu], wmu, params.cycles, params.projection_repeats
    )

    out = finalize_feasible(s, constraints)
    final = objective(out, weights)
    # An infinite product w[k] * mu[k] makes the objective inf or NaN.
    if not final < math.inf:
        raise ValueError(f"w and mu too large: the objective sum(w * mu * s) is {final!r}")
    return out, OptDiagnostics(
        c2=c2,
        beta=beta,
        c3=c3,
        objective_trace=tuple(trace),
        final_objective=final,
        handoff_messages=params.cycles * n,
        excess_broadcasts=broadcasts,
    )


# -- the cycle loop -----------------------------------------------------------


# The solver's cycles run as generated straight-line code. In each cycle every
# coordinate k, in index order, steps s[k] += incs[k]; then the member sums of
# its tail and head halfspaces are taken left to right from the first member,
# and an oversubscribed one is projected by subtracting (total - 1) * divisor
# from each member; when both are, the two projections alternate up to
# projection_repeats times. Each cycle ends by appending sum(wmu[k] * s[k]),
# taken left to right from 0.0, to the trace. The code has one local per
# coordinate, every sum unrolled in member order, and the plan's reciprocal
# divisors baked in as exact float literals. tests/test_optim.py keeps the
# same cycles as a plain loop over the plan, with every sum from 0.0, and
# checks the kernel against it bit for bit. A member sum may skip the leading
# 0.0 + because 0.0 + x differs from x only when x is -0.0, and a member total
# is only compared with 1.0 and used in (total - 1.0) only above 1.0; the
# trace keeps it, as the sign of a zero objective is exported.


def _sum(total, terms, pad, head=None) -> list[str]:
    """Lines setting total to head + terms[0] + terms[1] + ..., left to right,
    or to terms[0] + terms[1] + ... when there is no head.

    Each statement takes at most 64 terms and the next one continues from
    total, which is the same left-nested sum: one expression of a few
    thousand terms exceeds the compiler's recursion limit.
    """
    lines = []
    for i in range(0, max(len(terms), 1), 64):
        chunk = terms[i : i + 64]
        lines.append(f"{pad}{total} = " + " + ".join(chunk if head is None else [head, *chunk]))
        head = total
    return lines


def _member_sum(members, total, pad) -> list[str]:
    return _sum(total, [f"s{q}" for q in members], pad)


def _sum_cap_projection(members, divisor, broadcasts, total, pad) -> list[str]:
    """Lines subtracting (total - 1) * divisor from each member coordinate."""
    return (
        [f"{pad}d = ({total} - 1.0) * {divisor!r}"]
        + [f"{pad}s{q} -= d" for q in members]
        + [f"{pad}broadcasts += {broadcasts}"]
    )


def _kernel_source(plan) -> str:
    n = len(plan)
    coords = ", ".join(f"s{k}" for k in range(n))
    incs = ", ".join(f"i{k}" for k in range(n))
    values = ", ".join(f"v{k}" for k in range(n))
    pad = " " * 8
    lines = [
        "def kernel(s, incs, wmu, cycles, projection_repeats):",
        f"    [{coords}] = s",
        f"    [{incs}] = incs",
        f"    [{values}] = wmu",
        "    broadcasts = 0",
        "    trace = []",
        "    for _ in range(cycles):",
    ]
    for k, (m1, d1, b1, m2, d2, b2) in enumerate(plan):
        lines += [f"{pad}s{k} += i{k}", *_member_sum(m1, "t1", pad)]
        if not m2:  # both endpoints in one halfspace
            lines += [f"{pad}if t1 > 1.0:", *_sum_cap_projection(m1, d1, b1, "t1", pad + " " * 4)]
            continue
        # When both are violated the projections alternate: each pass projects
        # onto whichever of the two is still violated, re-summing after every
        # projection, and a pass that projects onto neither ends the loop.
        rep = pad + " " * 12
        lines += [
            *_member_sum(m2, "t2", pad),
            f"{pad}if t1 > 1.0:",
            f"{pad}    if t2 > 1.0:",
            f"{pad}        for _rep in range(projection_repeats):",
            f"{rep}if t1 > 1.0:",
            *_sum_cap_projection(m1, d1, b1, "t1", rep + " " * 4),
            *_member_sum(m2, "t2", rep),
            f"{rep}if t2 > 1.0:",
            *_sum_cap_projection(m2, d2, b2, "t2", rep + " " * 4),
            f"{rep}elif not t1 > 1.0:",
            f"{rep}    break",
            *_member_sum(m1, "t1", rep),
            f"{pad}    else:",
            *_sum_cap_projection(m1, d1, b1, "t1", pad + " " * 8),
            f"{pad}elif t2 > 1.0:",
            *_sum_cap_projection(m2, d2, b2, "t2", pad + " " * 4),
        ]
    lines += [
        *_sum("obj", [f"v{k} * s{k}" for k in range(n)], pad, "0.0"),
        f"{pad}trace.append(obj)",
        f"    return [{coords}], broadcasts, trace",
    ]
    return "\n".join(lines) + "\n"


# Kernels are keyed by endpoint plan, not by ConstraintSet: the source is a
# pure function of the plan, and plans repeat across sets (1000 random
# instances have ~120-146 distinct ones), so equal plans share one kernel.
KERNEL_CACHE_SIZE = 256


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _compiled(plan):
    source = _kernel_source(plan)
    namespace: dict = {}
    exec(compile(source, "<cycle kernel>", "exec"), namespace)
    kernel = namespace["kernel"]
    kernel.source = source
    return kernel


def cycle_kernel(constraints: ConstraintSet, divisor_mode: str = "coordinates"):
    """The compiled cycle loop of solve_review_optimization for one set and mode.

    kernel(s, incs, wmu, cycles, projection_repeats) -> (s, broadcasts, trace)
    runs the cycles from the list s, with incs[k] = step_size * wmu[k], and
    returns the final iterate as a list, the broadcast count and the
    per-cycle objectives. Its source text is kernel.source. It is compiled
    once per distinct endpoint plan per process and kept in a bounded LRU
    cache (KERNEL_CACHE_SIZE plans), so sets with equal plans share one
    kernel. Raises ValueError for a divisor mode not in DIVISOR_MODES.
    """
    try:
        plan = constraints.endpoint_plans[divisor_mode]
    except KeyError:
        raise ValueError(
            f"divisor_mode must be one of {DIVISOR_MODES}, got {divisor_mode!r}"
        ) from None
    return _compiled(plan)

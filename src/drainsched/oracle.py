"""Exact reference solver for the review LP, by a rational simplex.

The review LP is the packing LP: maximise c.s subject to A s <= 1 (one row
per halfspace, A its 0/1 membership), s <= 1 and s >= 0, with cost
c_k = w_k * mu_k. Every right-hand side is 1, so the slack basis is
feasible and the simplex starts there. Pivots follow Bland's rule (Bland,
Math. Oper. Res. 1977), which cannot cycle, and every entry is a
fractions.Fraction, so the optimum is exact (Applegate, Cook, Dash &
Espinoza, Oper. Res. Lett. 2007). No size limit and no tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .network import ConstraintSet
from .optim import WeightVector

_ZERO = Fraction(0)
_ONE = Fraction(1)


def oracle_solve(
    weights: WeightVector, constraints: ConstraintSet
) -> tuple[list[float], float]:
    """Globally maximize the review objective over the constraint polytope.

    Returns (argmax, optimal value): the optimal vertex Bland's rule reaches,
    as a list of floats, and the exact optimum rounded once to float. Each
    cost is the float product w[k] * mu[k], taken as exact. Raises ValueError
    when a product, or the optimum, is not finite.
    """
    n = constraints.n_coords
    if weights.n_coords != n:
        raise ValueError(f"weights have {weights.n_coords} coordinates, constraints {n}")
    cost = [w * mu for w, mu in zip(weights.w, weights.mu)]
    for k, c in enumerate(cost):
        if not math.isfinite(c):
            raise ValueError(f"w and mu too large: the cost w[{k}] * mu[{k}] is {c!r}")

    # Dictionary form: basic variable i equals rows[i][n] - sum_j rows[i][j] x_j
    # over the nonbasic variables x_j, and the objective is -obj[n] +
    # sum_j obj[j] x_j. Variable k < n is s_k; variable n + i is row i's
    # slack. The rows are the halfspaces, then the bounds s_k <= 1.
    groups = [*map(frozenset, constraints.member_groups), *({k} for k in range(n))]
    rows = [[_ONE if k in g else _ZERO for k in range(n)] + [_ONE] for g in groups]
    obj = [Fraction(c) for c in cost] + [_ZERO]
    nonbasic = list(range(n))
    basic = list(range(n, n + len(rows)))
    while True:
        # Bland: the lowest-labelled improving variable enters, and ratio
        # ties leave by the lowest basic label.
        improving = [j for j in range(n) if obj[j] > 0]
        if not improving:
            break
        c = min(improving, key=nonbasic.__getitem__)
        r = min(
            (i for i, row in enumerate(rows) if row[c] > 0),
            key=lambda i: (rows[i][n] / rows[i][c], basic[i]),
        )
        pivot = rows[r]
        p = pivot[c]
        pivot[:] = [x / p for x in pivot]
        pivot[c] = 1 / p
        support = [j for j in range(n + 1) if j != c and pivot[j]]
        for row in rows + [obj]:
            f = row[c]
            if f and row is not pivot:
                for j in support:
                    row[j] -= f * pivot[j]
                row[c] = -f / p
        basic[r], nonbasic[c] = nonbasic[c], basic[r]

    s = [0.0] * n
    for i, label in enumerate(basic):
        if label < n:
            s[label] = float(rows[i][n])
    try:
        return s, float(-obj[n])
    except OverflowError:
        raise ValueError("w and mu too large: the optimum is beyond the float range") from None

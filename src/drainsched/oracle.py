"""Exact reference solver for the review LP, by vertex enumeration.

The feasible set is {0 <= s <= 1, member sums <= 1 per halfspace}; the
maximum of a linear objective is attained at a vertex, and every vertex is
determined by some choice of m tight halfspaces plus box faces (0 or 1) for
the remaining coordinates. All such candidates are enumerated, filtered for
feasibility, and the best objective wins. Exponential in the coordinate
count, hence the hard size guard.
"""

from __future__ import annotations

import itertools

import numpy as np

from .network import ConstraintSet
from .optim import WeightVector

ORACLE_MAX_COORDS = 12
_FEAS_TOL = 1e-9
_DET_TOL = 0.5  # membership matrices are 0/1, so nonsingular means |det| >= 1


def oracle_solve(
    weights: WeightVector, constraints: ConstraintSet
) -> tuple[np.ndarray, float]:
    """Globally maximize the review objective over the constraint polytope.

    Returns (argmax vector, optimal value). Ties keep the first candidate in
    the deterministic enumeration order, which starts at the all-zeros
    vertex. Refuses instances with more than ORACLE_MAX_COORDS coordinates.
    """
    n = constraints.n_coords
    if n > ORACLE_MAX_COORDS:
        raise ValueError(
            f"oracle_solve enumerates vertices and is limited to "
            f"{ORACLE_MAX_COORDS} coordinates, got {n}"
        )
    if weights.n_coords != n:
        raise ValueError(f"weights have {weights.n_coords} coordinates, constraints {n}")

    cost = np.asarray(weights.w, dtype=float) * np.asarray(weights.mu, dtype=float)
    n_half = len(constraints.halfspaces)
    membership = np.zeros((n_half, n))
    for hi, h in enumerate(constraints.halfspaces):
        membership[hi, list(h.members)] = 1.0

    grids = {
        nf: np.array(list(itertools.product((0.0, 1.0), repeat=nf)))
        if nf
        else np.zeros((1, 0))
        for nf in range(n + 1)
    }

    best_val = -np.inf
    best_s: np.ndarray | None = None
    all_coords = list(range(n))

    for m in range(0, min(n_half, n) + 1):
        for tight in itertools.combinations(range(n_half), m):
            rows = membership[list(tight)]
            for solved in itertools.combinations(all_coords, m):
                sub = rows[:, list(solved)]
                if m:
                    if abs(np.linalg.det(sub)) < _DET_TOL:
                        continue
                solved_set = set(solved)
                fixed = [i for i in all_coords if i not in solved_set]
                grid = grids[len(fixed)]
                if m:
                    rhs = 1.0 - grid @ rows[:, fixed].T
                    solved_vals = np.linalg.solve(sub, rhs.T).T
                else:
                    solved_vals = np.zeros((grid.shape[0], 0))
                cand = np.empty((grid.shape[0], n))
                if fixed:
                    cand[:, fixed] = grid
                if m:
                    cand[:, list(solved)] = solved_vals
                ok = (
                    (cand >= -_FEAS_TOL).all(axis=1)
                    & (cand <= 1.0 + _FEAS_TOL).all(axis=1)
                    & ((cand @ membership.T) <= 1.0 + _FEAS_TOL).all(axis=1)
                )
                if not ok.any():
                    continue
                feas = cand[ok]
                vals = feas @ cost
                j = int(np.argmax(vals))
                if float(vals[j]) > best_val:
                    best_val = float(vals[j])
                    best_s = feas[j].copy()

    assert best_s is not None  # all-zeros is always feasible
    return best_s, best_val

"""Seeded random small instances for optimizer-versus-oracle validation.

Each instance is a tiny network (a random path, often with a second flow on
a reversed segment so the node interference sets overlap), node-set
constraints, and random nonnegative weights.

The weight vector is sampled inside the iteration's validity domain: the
cyclic method drops the positivity constraints and projects only onto the
interference halfspaces, so its objective is bounded exactly when the
per-coordinate gains w_k * mu_k lie in the cone spanned by the constraint
normals (LP duality). Weights are therefore built as w_k * mu_k =
sum of positive per-halfspace loads y_h over the halfspaces containing k;
outside this cone the relaxed problem is unbounded and the iterate drifts
along a feasible ray, which no step size can repair. The step size is
scaled so the largest coordinate moves 0.025 per visit, which finishes the
transient within 50 cycles while keeping the constant-step limit cycle well
inside a 1% objective band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (
    ConstraintSet,
    Flow,
    NetworkSpec,
    build_constraints,
    build_link_flow_index,
    derive_interference_sets,
)
from .optim import WeightVector

INSTANCE_DOMAIN = 7  # seed-sequence tag for instance generation
_REGIMES = (1.0, 10.0, 100.0, 1000.0)
_STEP_PER_VISIT = 0.025
_STEP_CAP = 0.2


@dataclass(frozen=True)
class RandomInstance:
    seed: int
    spec: NetworkSpec
    constraints: ConstraintSet
    weights: WeightVector
    step_size: float


def _random_topology(rng) -> NetworkSpec | None:
    n_nodes = int(rng.integers(3, 7))
    perm = [int(v) for v in rng.permutation(n_nodes)]
    hops1 = int(rng.integers(2, min(4, n_nodes)))
    route1 = tuple(perm[: hops1 + 1])
    links = set(zip(route1, route1[1:]))
    flows = [
        Flow(source=route1[0], destination=route1[-1], routes=(route1,), arrival_rate=1.0)
    ]
    if rng.random() < 0.7:
        hops2 = int(rng.integers(1, 3))
        start = int(rng.integers(0, n_nodes - hops2))
        route2 = tuple(perm[start : start + hops2 + 1][::-1])
        links.update(zip(route2, route2[1:]))
        flows.append(
            Flow(source=route2[0], destination=route2[-1], routes=(route2,),
                 arrival_rate=1.0)
        )
    positions = tuple((float(x), float(y)) for x, y in rng.random((n_nodes, 2)))
    try:
        return derive_interference_sets(
            NetworkSpec(positions=positions, links=tuple(sorted(links)),
                        flows=tuple(flows))
        )
    except ValueError:
        return None  # a same-destination pair formed a directed cycle; retry


def random_instance(seed: int, max_coords: int = 6) -> RandomInstance:
    """Deterministically generate one instance with 2..max_coords coordinates."""
    # Every topology has at least 2 coordinates: a smaller bound (or NaN)
    # would reject every draw and never return.
    if not max_coords >= 2:
        raise ValueError(f"max_coords must be >= 2, got {max_coords!r}")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(INSTANCE_DOMAIN,))
    )
    while True:
        spec = _random_topology(rng)
        if spec is None:
            continue
        entries = build_link_flow_index(spec)
        n = len(entries)
        if not 2 <= n <= max_coords:
            continue
        constraints = build_constraints(entries, spec)

        regime = float(_REGIMES[int(rng.integers(0, len(_REGIMES)))])
        loads = regime * rng.uniform(0.5, 1.0, len(constraints.halfspaces))
        gains = np.zeros(n)
        for hid, h in enumerate(constraints.halfspaces):
            for k in h.members:
                gains[k] += loads[hid]
        mu_by_link = {link: 0.5 + 5.5 * float(rng.random()) for link in spec.links}
        mu = np.array([mu_by_link[(i, j)] for i, j, _ in entries])
        weights = WeightVector(w=gains / mu, mu=mu, theta_hat=1.0)
        max_gain = float(gains.max())
        step = 1e-4 if max_gain == 0 else min(_STEP_CAP, _STEP_PER_VISIT / max_gain)
        return RandomInstance(
            seed=seed,
            spec=spec,
            constraints=constraints,
            weights=weights,
            step_size=step,
        )


def instance_stream(count: int, base_seed: int = 0, max_coords: int = 6):
    for i in range(count):
        yield random_instance(base_seed + i, max_coords=max_coords)

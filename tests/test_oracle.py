import numpy as np
import pytest

from drainsched.instances import random_instance
from drainsched.network import Flow, NetworkSpec, build_constraints, \
    build_link_flow_index, derive_interference_sets
from drainsched.optim import WeightVector, objective
from drainsched.oracle import ORACLE_MAX_COORDS, oracle_solve


def star3():
    """Three one-hop flows out of node 0: one simplex halfspace over all coords."""
    flows = tuple(
        Flow(source=0, destination=d, routes=((0, d),), arrival_rate=1.0)
        for d in (1, 2, 3)
    )
    spec = derive_interference_sets(
        NetworkSpec(positions=((0, 0), (0.1, 0), (0, 0.1), (0.1, 0.1)),
                    links=((0, 1), (0, 2), (0, 3)), flows=flows)
    )
    entries = build_link_flow_index(spec)
    return entries, build_constraints(entries, spec)


def chain_overlap():
    """Three coordinates with overlapping caps {0,1} and {1,2}."""
    flows = (
        Flow(source=0, destination=3, routes=((0, 1, 2, 3),), arrival_rate=1.0),
    )
    spec = derive_interference_sets(
        NetworkSpec(positions=((0, 0), (0.2, 0), (0.4, 0), (0.6, 0)),
                    links=((0, 1), (1, 2), (2, 3)), flows=flows)
    )
    entries = build_link_flow_index(spec)
    return entries, build_constraints(entries, spec)


class TestOracleSolve:
    def test_simplex_picks_best_vertex(self):
        entries, cons = star3()
        wv = WeightVector(w=np.array([3.0, 2.0, 1.0]), mu=np.ones(3))
        s, value = oracle_solve(wv, cons)
        assert value == pytest.approx(3.0, abs=1e-12)
        assert s == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_zero_objective_returns_origin(self):
        entries, cons = star3()
        wv = WeightVector(w=np.zeros(3), mu=np.ones(3))
        s, value = oracle_solve(wv, cons)
        assert value == 0.0
        assert np.array_equal(s, np.zeros(3))

    def test_overlapping_caps_middle_dominates(self):
        entries, cons = chain_overlap()
        # caps are {0,1} and {1,2}: putting everything on the middle coordinate wins
        wv = WeightVector(w=np.array([1.0, 5.0, 1.0]), mu=np.ones(3))
        s, value = oracle_solve(wv, cons)
        assert value == pytest.approx(5.0, abs=1e-12)
        assert s == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_overlapping_caps_agrees_with_grid_search(self):
        entries, cons = chain_overlap()
        wv = WeightVector(w=np.array([1.0, 5.0, 1.0]), mu=np.ones(3))
        _, value = oracle_solve(wv, cons)
        grid = np.arange(201) / 200.0
        obj = grid[:, None, None] + 5.0 * grid[None, :, None] + grid[None, None, :]
        feas = (grid[:, None, None] + grid[None, :, None] <= 1.0 + 1e-12) & (
            grid[None, :, None] + grid[None, None, :] <= 1.0 + 1e-12
        )
        best_grid = float(obj[feas].max())
        assert value == pytest.approx(best_grid, abs=1e-2)

    def test_size_guard(self):
        entries, cons = star3()
        big = type(cons)(
            halfspaces=cons.halfspaces,
            endpoints=cons.endpoints,
            n_coords=ORACLE_MAX_COORDS + 1,
        )
        wv = WeightVector(w=np.zeros(ORACLE_MAX_COORDS + 1),
                          mu=np.ones(ORACLE_MAX_COORDS + 1))
        with pytest.raises(ValueError, match="limited to"):
            oracle_solve(wv, big)

    def test_result_is_feasible_and_dominates_random_feasible_points(self):
        rng = np.random.default_rng(17)
        from drainsched.optim import finalize_feasible

        for seed in range(30):
            inst = random_instance(seed + 400)
            s, value = oracle_solve(inst.weights, inst.constraints)
            assert inst.constraints.feasible(s)
            assert value == pytest.approx(objective(s, inst.weights), abs=1e-9)
            for _ in range(50):
                cand = finalize_feasible(
                    rng.uniform(0, 1.2, inst.constraints.n_coords), inst.constraints
                )
                assert objective(cand, inst.weights) <= value + 1e-9

    def test_deterministic(self):
        inst = random_instance(900)
        s1, v1 = oracle_solve(inst.weights, inst.constraints)
        s2, v2 = oracle_solve(inst.weights, inst.constraints)
        assert v1 == v2 and np.array_equal(s1, s2)

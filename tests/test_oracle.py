import hashlib

import numpy as np
import pytest

from conftest import record_reviews
from drainsched.config import with_run
from drainsched.experiments import bundled_preset_config
from drainsched.instances import instance_stream, random_instance
from drainsched.network import Flow, NetworkSpec, build_constraints, \
    build_link_flow_index, derive_interference_sets
from drainsched.optim import WeightVector, objective
from drainsched.oracle import oracle_solve


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

    def test_overflowing_cost_is_value_error_naming_the_product(self):
        entries, cons = star3()
        wv = WeightVector(w=[1.0, 1e300, 1.0], mu=[1.0, 1e10, 1.0])
        with pytest.raises(ValueError, match=r"w\[1\] \* mu\[1\] is inf"):
            oracle_solve(wv, cons)

    def test_optimum_beyond_the_float_range_is_value_error(self):
        entries, cons = chain_overlap()
        # s = (1, 0, 1) is feasible and worth 2e308
        wv = WeightVector(w=[1e308, 0.0, 1e308], mu=[1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="optimum is beyond the float range"):
            oracle_solve(wv, cons)

    def test_result_is_feasible_and_dominates_random_feasible_points(self):
        rng = np.random.default_rng(17)
        from drainsched.optim import finalize_feasible

        for seed in range(30):
            inst = random_instance(seed + 400)
            s, value = oracle_solve(inst.weights, inst.constraints)
            assert type(s) is list and all(type(x) is float for x in s)
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

    def test_values_pinned_on_instance_seeds_0_to_1999(self):
        # sha256 of repr of the 2,000 optimal values as the vertex enumeration
        # that this simplex replaced computed them; seeds 1000-1999 are the
        # perfbench oracle-battery's golden input.
        values = [oracle_solve(i.weights, i.constraints)[1] for i in instance_stream(2000)]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == (
            "57d04ece7575771a7b6f211d015c5ca22984ba971d57ad99db13f4bc939c9a5c"
        )


def test_values_match_highs_on_mesh10_reviews_and_random_instances():
    optimize = pytest.importorskip("scipy.optimize")
    seen, _ = record_reviews(with_run(bundled_preset_config(), horizon_slots=300), seed=3)
    cases = [(r.weights, r.constraints) for r in seen]
    cases += [(inst.weights, inst.constraints) for inst in instance_stream(200)]
    values = []
    for wv, cons in cases:
        a_ub = np.zeros((len(cons.halfspaces), cons.n_coords))
        for hi, members in enumerate(cons.member_groups):
            a_ub[hi, list(members)] = 1.0
        cost = np.asarray(wv.w) * np.asarray(wv.mu)
        res = optimize.linprog(-cost, A_ub=a_ub, b_ub=np.ones(len(a_ub)),
                               bounds=(0.0, 1.0), method="highs")
        assert res.status == 0
        values.append(oracle_solve(wv, cons)[1])
        assert values[-1] == pytest.approx(-res.fun, rel=1e-12)
    assert any(values[:len(seen)])


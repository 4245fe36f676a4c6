import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from drainsched.instances import random_instance
from drainsched.network import ConstraintSet, Flow, Halfspace, NetworkSpec, build_constraints, \
    build_link_flow_index, derive_interference_sets
from drainsched.optim import (
    DIVISOR_MODES,
    INIT_MODES,
    OptParams,
    WeightVector,
    alternating_project,
    cycle_kernel,
    finalize_feasible,
    objective,
    project_onto_halfspace,
    solve_review_optimization,
    theorem_gap_bound,
)


def random_general_halfspace(rng, n, violated_by=None, satisfied_by=None, margin=None):
    """A random unit nonnegative normal on a random support, with the bound
    placed to violate or satisfy a given point."""
    size = int(rng.integers(1, n + 1))
    members = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
    raw = rng.random(size) + 1e-3
    nu = raw / math.sqrt(float(np.dot(raw, raw)))
    bound = float(rng.normal())
    h = Halfspace(members=members, normal=tuple(float(c) for c in nu), bound=bound,
                  uniform=False)
    if violated_by is not None:
        bound = h.value(violated_by) - float(margin if margin is not None else rng.uniform(0.05, 1.0))
    elif satisfied_by is not None:
        bound = h.value(satisfied_by) + float(margin if margin is not None else rng.uniform(0.05, 1.0))
    return Halfspace(members=members, normal=h.normal, bound=bound, uniform=False)


def exact_two_halfspace_projection(p, h1, h2, n):
    """Active-set solve of min ||x - p||^2 s.t. both halfspaces hold."""
    def dense(h):
        a = np.zeros(n)
        a[list(h.members)] = h.normal
        return a, h.bound

    a1, b1 = dense(h1)
    a2, b2 = dense(h2)
    if a1 @ p <= b1 + 1e-12 and a2 @ p <= b2 + 1e-12:
        return p.copy()
    for a, b, ao, bo in ((a1, b1, a2, b2), (a2, b2, a1, b1)):
        lam = a @ p - b  # normals are unit vectors
        if lam >= -1e-12:
            x = p - lam * a
            if ao @ x <= bo + 1e-9:
                return x
    stack = np.vstack([a1, a2])
    rhs = np.array([b1, b2])
    lam = np.linalg.solve(stack @ stack.T, stack @ p - rhs)
    assert (lam >= -1e-9).all()
    return p - stack.T @ lam


def two_flow_chain():
    """|K| = 4 network whose middle node couples two sum-cap halfspaces."""
    flows = (
        Flow(source=0, destination=2, routes=((0, 1, 2),), arrival_rate=1.0),
        Flow(source=3, destination=1, routes=((3, 1),), arrival_rate=1.0),
        Flow(source=2, destination=4, routes=((2, 4),), arrival_rate=1.0),
    )
    spec = NetworkSpec(
        positions=((0, 0), (0.3, 0), (0.6, 0), (0.3, 0.3), (0.9, 0)),
        links=((0, 1), (1, 2), (3, 1), (2, 4)),
        flows=flows,
    )
    spec = derive_interference_sets(spec)
    entries = build_link_flow_index(spec)
    return spec, entries, build_constraints(entries, spec)


class TestWeightVector:
    @pytest.mark.parametrize("field", ["w", "mu"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_entry_named(self, field, bad):
        values = {"w": np.ones(3), "mu": np.ones(3)}
        values[field][1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0"):
            WeightVector(**values)

    @pytest.mark.parametrize("theta_hat", [math.nan, math.inf, 0.5])
    def test_bad_theta_hat_named(self, theta_hat):
        with pytest.raises(ValueError, match="^theta_hat must be finite and >= 1"):
            WeightVector(w=np.ones(2), mu=np.ones(2), theta_hat=theta_hat)

    def test_zeros_and_empty_accepted(self):
        wv = WeightVector(w=[0.0, -0.0, 2.0], mu=[-0.0, 0.0, 1e300])
        assert wv.n_coords == 3
        assert WeightVector(w=[], mu=[]).n_coords == 0


class TestObjective:
    def test_zero_vector(self):
        wv = WeightVector(w=np.array([1.0, 2.0]), mu=np.array([1.0, 1.0]))
        assert objective(np.zeros(2), wv) == 0.0

    def test_arithmetic(self):
        wv = WeightVector(w=np.array([1.0, 2.0]), mu=np.array([1.0, 1.0]))
        assert objective(np.array([0.5, 0.5]), wv) == pytest.approx(1.5)

    def test_matches_componentwise_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            wv = WeightVector(w=rng.random(n) * 10, mu=rng.random(n) * 4)
            s = rng.random(n)
            by_hand = sum(float(wv.w[k]) * float(wv.mu[k]) * float(s[k]) for k in range(n))
            assert objective(s, wv) == pytest.approx(by_hand, rel=1e-12)

    def test_dimension_mismatch(self):
        wv = WeightVector(w=np.ones(3), mu=np.ones(3))
        with pytest.raises(ValueError, match="mismatch"):
            objective(np.ones(2), wv)


class TestProjectOntoHalfspace:
    def test_three_variable_update_bit_exact(self):
        # members {1, 2, 4} over-subscribed: each drops by (sum - 1) / 3
        s = np.array([0.0, 0.7, 0.8, 0.0, 0.9])
        h = Halfspace.sum_cap((1, 2, 4))
        out = project_onto_halfspace(s, h)
        total = s[1] + s[2] + s[4]
        delta = (total - 1.0) / 3.0
        expected = s.copy()
        for k in (1, 2, 4):
            expected[k] = s[k] - delta
        assert np.array_equal(out, expected)

    def test_feasible_point_identity(self):
        s = np.array([0.1, 0.2, 0.3])
        h = Halfspace.sum_cap((0, 1, 2))
        assert np.array_equal(project_onto_halfspace(s, h), s)

    def test_symmetric_over_subscription(self):
        s = np.ones(3)
        out = project_onto_halfspace(s, Halfspace.sum_cap((0, 1, 2)))
        assert out == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-15)
        assert float(out.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_equality_within_1e12(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 10))
            s = rng.normal(0, 1, n)
            h = random_general_halfspace(rng, n, violated_by=s)
            out = project_onto_halfspace(s, h)
            assert abs(h.value(out) - h.bound) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            s = rng.normal(0, 2, n)
            h = random_general_halfspace(rng, n, violated_by=s)
            once = project_onto_halfspace(s, h)
            twice = project_onto_halfspace(once, h)
            assert np.allclose(twice, once, rtol=0, atol=1e-12)

    def test_proposition_projection_never_breaks_satisfied_constraint(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            n = int(rng.integers(2, 10))
            s = rng.normal(0, 1.5, n)
            h_v = random_general_halfspace(rng, n, violated_by=s)
            h_w = random_general_halfspace(rng, n, satisfied_by=s)
            out = project_onto_halfspace(s, h_v)
            assert h_w.value(out) <= h_w.bound

    def test_proposition_holds_on_exact_boundary_disjoint_support(self):
        # h_w tight at s with support disjoint from h_v: untouched coordinates
        # keep the inner product bit-identical.
        s = np.array([0.4, 0.9, 0.8, 0.25])
        h_v = Halfspace.sum_cap((1, 2))
        nu = (0.6, 0.8)
        h_w = Halfspace(members=(0, 3), normal=nu,
                        bound=0.6 * s[0] + 0.8 * s[3], uniform=False)
        out = project_onto_halfspace(s, h_v)
        assert h_w.value(out) <= h_w.bound


class TestAlternatingProject:
    def overlapping_pair(self):
        return Halfspace.sum_cap((0, 1, 2, 3)), Halfspace.sum_cap((2, 3, 4, 5))

    def test_neither_violated_identity(self):
        h1, h2 = self.overlapping_pair()
        s = np.full(6, 0.1)
        assert np.array_equal(alternating_project(s, h1, h2, 10), s)

    def test_one_violated_single_pass_fixes_both(self):
        h1, h2 = self.overlapping_pair()
        s = np.array([0.5, 0.5, 0.3, 0.3, 0.05, 0.05])  # h1 sum 1.6, h2 sum 0.7
        out = alternating_project(s, h1, h2, 10)
        assert h1.violation(out) <= 1e-12 and h2.violation(out) <= 1e-12
        assert np.array_equal(out, project_onto_halfspace(s, h1))

    def test_both_violated_residual_and_distance_to_exact(self):
        rng = np.random.default_rng(21)
        h1, h2 = self.overlapping_pair()
        for _ in range(300):
            s = rng.uniform(0.25, 1.2, 6)
            v0 = max(h1.violation(s), h2.violation(s))
            if v0 <= 0 or min(h1.violation(s), h2.violation(s)) <= 0:
                continue
            out = alternating_project(s, h1, h2, 10)
            assert h1.violation(out) <= 1e-3 * v0
            assert h2.violation(out) <= 1e-3 * v0
            exact = exact_two_halfspace_projection(s, h1, h2, 6)
            assert np.linalg.norm(out - exact) <= np.linalg.norm(s - exact) + 1e-12

    def test_residual_monotone_in_repeats(self):
        rng = np.random.default_rng(22)
        h1, h2 = self.overlapping_pair()
        for _ in range(100):
            s = rng.uniform(0.3, 1.5, 6)
            if h1.violation(s) <= 0 or h2.violation(s) <= 0:
                continue
            residuals = []
            for reps in range(1, 6):
                out = alternating_project(s, h1, h2, reps)
                residuals.append(max(h1.violation(out), h2.violation(out), 0.0))
            assert all(a >= b - 1e-15 for a, b in zip(residuals, residuals[1:]))

    def test_same_halfspace_twice(self):
        h = Halfspace.sum_cap((0, 1))
        s = np.array([0.8, 0.9])
        out = alternating_project(s, h, h, 10)
        assert np.array_equal(out, project_onto_halfspace(s, h))


class TestFinalizeFeasible:
    def test_clamp_only(self):
        flows = (
            Flow(source=0, destination=1, routes=((0, 1),), arrival_rate=1.0),
            Flow(source=2, destination=3, routes=((2, 3),), arrival_rate=1.0),
        )
        spec = derive_interference_sets(
            NetworkSpec(positions=((0, 0), (0.1, 0), (0.5, 0), (0.6, 0)),
                        links=((0, 1), (2, 3)), flows=flows)
        )
        entries = build_link_flow_index(spec)
        cons = build_constraints(entries, spec)
        out = finalize_feasible(np.array([-0.2, 0.5]), cons)
        assert out.tolist() == [0.0, 0.5]

    def test_scale_by_sum(self):
        flows = (
            Flow(source=0, destination=1, routes=((0, 1),), arrival_rate=1.0),
            Flow(source=0, destination=2, routes=((0, 2),), arrival_rate=1.0),
        )
        spec = derive_interference_sets(
            NetworkSpec(positions=((0, 0), (0.1, 0), (0, 0.1)),
                        links=((0, 1), (0, 2)), flows=flows)
        )
        entries = build_link_flow_index(spec)
        cons = build_constraints(entries, spec)
        out = finalize_feasible(np.array([0.8, 0.6]), cons)
        assert out == pytest.approx([0.8 / 1.4, 0.6 / 1.4], rel=1e-15)

    def test_random_vectors_become_feasible(self):
        rng = np.random.default_rng(31)
        for iseed in range(20):
            inst = random_instance(1000 + iseed)
            for _ in range(500):
                raw = rng.uniform(-1.5, 3.0, inst.constraints.n_coords)
                out = finalize_feasible(raw, inst.constraints)
                assert inst.constraints.feasible(out, tol=1e-9)
                assert (out >= 0).all() and (out <= 1.0 + 1e-12).all()

    def test_fixed_point(self):
        rng = np.random.default_rng(32)
        inst = random_instance(5)
        for _ in range(200):
            raw = rng.uniform(-1, 3, inst.constraints.n_coords)
            once = finalize_feasible(raw, inst.constraints)
            twice = finalize_feasible(once, inst.constraints)
            assert np.allclose(twice, once, rtol=0, atol=1e-12)


def numpy_finalize_feasible(s, constraints):
    """finalize_feasible as written with numpy fancy indexing before it ran
    on plain lists; the bitwise reference for the list version."""
    out = np.array(s, dtype=float, copy=True)
    np.clip(out, 0.0, None, out=out)
    for h in constraints.halfspaces:
        idx = list(h.members)
        total = float(out[idx].sum())
        if total > 1.0:
            out[idx] /= total
    return out


def assert_same_bits(got, want):
    assert isinstance(got, np.ndarray)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestFinalizeMatchesNumpyReference:
    """finalize_feasible must give exactly the bits of the numpy version."""

    def test_mesh10_reviews(self, monkeypatch):
        from drainsched import engine, optim
        from drainsched.experiments import bundled_preset_config

        seen = []
        finalize = optim.finalize_feasible

        def recording(s, constraints):
            seen.append((list(s), constraints))
            return finalize(s, constraints)

        monkeypatch.setattr(optim, "finalize_feasible", recording)
        engine.run_simulation(bundled_preset_config(), horizon=3000, seed=1)
        assert len(seen) > 100
        for s, cons in seen:
            assert_same_bits(finalize(s, cons), numpy_finalize_feasible(s, cons))

    def test_instance_stream(self, monkeypatch):
        from drainsched import optim
        from drainsched.instances import instance_stream

        seen = []
        finalize = optim.finalize_feasible

        def recording(s, constraints):
            seen.append((list(s), constraints))
            return finalize(s, constraints)

        monkeypatch.setattr(optim, "finalize_feasible", recording)
        rng = np.random.default_rng(41)
        for inst in instance_stream(200):
            params = OptParams(step_size=inst.step_size, cycles=50)
            solve_review_optimization(inst.weights, inst.constraints, params)
            for _ in range(5):
                seen.append((rng.uniform(-1.5, 3.0, inst.constraints.n_coords), inst.constraints))
        assert len(seen) == 1200
        rescaled = 0
        for s, cons in seen:
            want = numpy_finalize_feasible(s, cons)
            assert_same_bits(finalize(s, cons), want)
            rescaled += not np.array_equal(want, np.clip(s, 0.0, None))
        assert rescaled > 500

    @pytest.mark.parametrize("s", [
        [-0.5, 0.25, 0.5, -1e-300],
        [-0.0, -0.0, 0.7, -0.0],
        [float("nan"), 0.5, 0.75, 0.2],
        [0.25, 0.5, 0.5, 0.25],
        [0.25, 0.5, 0.5000000000000001, 0.25],
        [float("inf"), 0.5, 0.5, 0.1],
        [2, 1, 0, 3],
    ], ids=["negatives", "negative-zero", "nan", "sums-exactly-one", "just-above-one",
            "inf", "ints"])
    def test_edge_inputs(self, s):
        _, _, cons = two_flow_chain()  # halfspaces (0, 1, 3) and (1, 2)
        with np.errstate(invalid="ignore"):  # inf / inf
            want = numpy_finalize_feasible(s, cons)
        for form in (s, tuple(s), np.array(s)):
            assert_same_bits(finalize_feasible(form, cons), want)

    def test_empty_sequence(self):
        from drainsched.network import ConstraintSet

        empty = ConstraintSet(halfspaces=(), endpoints=(), n_coords=0)
        assert_same_bits(finalize_feasible([], empty), numpy_finalize_feasible([], empty))

    def test_input_not_modified(self):
        _, _, cons = two_flow_chain()
        s = [0.9, 0.9, 0.9, -0.1]
        finalize_feasible(s, cons)
        assert s == [0.9, 0.9, 0.9, -0.1]


class TestCachedPlan:
    def test_endpoint_plans_follow_the_halfspaces(self):
        from drainsched.experiments import bundled_preset_config
        from drainsched.optim import DIVISOR_MODES

        spec = bundled_preset_config().network
        cons = build_constraints(build_link_flow_index(spec), spec)
        plans = cons.endpoint_plans
        assert tuple(plans) == DIVISOR_MODES
        hs = cons.halfspaces
        divisor = {
            "coordinates": lambda h: 1.0 / len(hs[h].members),
            "links": lambda h: 1.0 / (hs[h].link_count or len(hs[h].members)),
        }
        for mode, plan in plans.items():
            assert len(plan) == cons.n_coords
            for (h1, h2), (m1, d1, b1, m2, d2, b2) in zip(cons.endpoints, plan):
                assert (m1, d1, b1) == (hs[h1].members, divisor[mode](h1), len(m1) - 1)
                if h1 == h2:
                    assert (m2, d2, b2) == ((), 0.0, 0)
                else:
                    assert (m2, d2, b2) == (hs[h2].members, divisor[mode](h2), len(m2) - 1)
        # mesh10 has a coordinate whose endpoints share one halfspace
        assert any(h1 == h2 for h1, h2 in cons.endpoints)

    def test_divisor_modes_do_not_share_a_plan(self):
        from drainsched.experiments import bundled_preset_config

        spec = bundled_preset_config().network
        entries = build_link_flow_index(spec)
        shared = build_constraints(entries, spec)
        rng = np.random.default_rng(3)
        wv = WeightVector(w=rng.uniform(0, 50, len(entries)),
                          mu=rng.uniform(0.5, 4.0, len(entries)))
        got = {}
        for mode in ("coordinates", "links", "coordinates"):
            params = OptParams(divisor_mode=mode)
            s, diag = solve_review_optimization(wv, shared, params)
            fresh_s, fresh_diag = solve_review_optimization(
                wv, build_constraints(entries, spec), params
            )
            assert s.tobytes() == fresh_s.tobytes()
            assert diag == fresh_diag
            got.setdefault(mode, s)
        assert got["coordinates"].tobytes() != got["links"].tobytes()


class TestSolveReviewOptimization:
    def test_zero_weights_return_finalized_init(self):
        _, entries, cons = two_flow_chain()
        wv = WeightVector(w=np.zeros(len(entries)), mu=np.ones(len(entries)))
        params = OptParams()
        s, diag = solve_review_optimization(wv, cons, params)
        expected = finalize_feasible(np.ones(len(entries)), cons)
        assert np.array_equal(s, expected)
        assert diag.final_objective == 0.0
        assert diag.objective_trace == (0.0,) * params.cycles

    def test_concentrates_on_dominant_coordinate(self):
        # one interference set covering all coordinates: LP max is the best vertex
        flows = tuple(
            Flow(source=0, destination=d, routes=((0, d),), arrival_rate=1.0)
            for d in (1, 2, 3)
        )
        spec = derive_interference_sets(
            NetworkSpec(positions=((0, 0), (0.1, 0), (0, 0.1), (0.1, 0.1)),
                        links=((0, 1), (0, 2), (0, 3)), flows=flows)
        )
        entries = build_link_flow_index(spec)
        cons = build_constraints(entries, spec)
        assert len(cons.halfspaces) == 1 and cons.halfspaces[0].members == (0, 1, 2)
        wv = WeightVector(w=np.array([5.0, 1.0, 1.0]), mu=np.ones(3))
        s, diag = solve_review_optimization(
            wv, cons, OptParams(step_size=2e-3, cycles=400)
        )
        assert diag.final_objective >= 0.98 * 5.0
        assert s[0] > 0.95

    def test_never_beats_oracle(self):
        from drainsched.oracle import oracle_solve

        for seed in range(40):
            inst = random_instance(seed)
            s, _ = solve_review_optimization(
                inst.weights, inst.constraints,
                OptParams(step_size=inst.step_size, cycles=50),
            )
            _, best = oracle_solve(inst.weights, inst.constraints)
            assert objective(s, inst.weights) <= best + 1e-9

    def test_output_feasible_and_trace_shape(self):
        inst = random_instance(123)
        params = OptParams(step_size=inst.step_size, cycles=12)
        s, diag = solve_review_optimization(inst.weights, inst.constraints, params)
        assert inst.constraints.feasible(s)
        assert len(diag.objective_trace) == 12
        assert diag.handoff_messages == 12 * inst.constraints.n_coords

    def test_divisor_mode_links_still_feasible(self):
        inst = random_instance(7)
        params = OptParams(step_size=inst.step_size, cycles=20, divisor_mode="links")
        s, _ = solve_review_optimization(inst.weights, inst.constraints, params)
        assert inst.constraints.feasible(s)

    @staticmethod
    def mesh10_constraints():
        from drainsched.experiments import bundled_preset_config

        spec = bundled_preset_config().network
        return build_constraints(build_link_flow_index(spec), spec)

    def test_overflowing_weight_products_rejected(self):
        # Each w[k] and mu[k] is finite, but w[k] * mu[k] = 1e310 is not; the
        # first solve runs the list loop, the second the generated kernel.
        cons = self.mesh10_constraints()
        wv = WeightVector(w=[1e300] * 15, mu=[1e10] * 15)
        for _ in range(2):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValueError, match=r"^w and mu too large"):
                solve_review_optimization(wv, cons, OptParams())

    def test_overflowing_gap_bound_rejected(self):
        # c2**2 = 1e400 is beyond the float range.
        wv = WeightVector(w=[1.0] * 15, mu=[1e200] * 15)
        with pytest.raises(ValueError, match=r"^mu too large: .* = 1e\+200"):
            solve_review_optimization(wv, self.mesh10_constraints(), OptParams())


def public_reference_solve(weights, constraints, params):
    """The cyclic method written with the public projection functions that
    criterion 2 gates: one gradient step per coordinate, then
    alternating_project onto its endpoint halfspaces, then finalize_feasible.
    An all-zero objective skips the cycles, as the solver documents."""
    s = np.ones(constraints.n_coords)
    wmu = weights.w * weights.mu
    if wmu.any():
        hs = constraints.halfspaces
        for _ in range(params.cycles):
            for k, (h1, h2) in enumerate(constraints.endpoints):
                s[k] += params.step_size * wmu[k]
                s = alternating_project(s, hs[h1], hs[h2], params.projection_repeats)
    return finalize_feasible(s, constraints)


class TestSolverMatchesPublicProjection:
    """The solver inlines its projections; these tests tie it to the public
    project_onto_halfspace / alternating_project that criterion 2 checks."""

    @staticmethod
    def assert_matches(weights, constraints, params):
        got, _ = solve_review_optimization(weights, constraints, params)
        want = public_reference_solve(weights, constraints, params)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12

    def test_mesh10_reviews(self, monkeypatch):
        from drainsched import engine
        from drainsched.experiments import bundled_preset_config

        seen = []
        solve = engine.solve_review_optimization

        def recording(weights, constraints, params):
            seen.append((weights, constraints, params))
            return solve(weights, constraints, params)

        monkeypatch.setattr(engine, "solve_review_optimization", recording)
        engine.run_simulation(bundled_preset_config(), horizon=3000, seed=1)
        assert len(seen) > 100
        for case in seen:
            self.assert_matches(*case)

    def test_instance_stream(self):
        from drainsched.instances import instance_stream

        for inst in instance_stream(200):
            params = OptParams(step_size=inst.step_size, cycles=50)
            self.assert_matches(inst.weights, inst.constraints, params)


KERNEL_VARIANTS = [
    {"divisor_mode": mode, "init_mode": init} for mode in DIVISOR_MODES for init in INIT_MODES
]


def list_loop_cycles(plan, s, incs, wmu, cycles, projection_repeats):
    """The solver's cycles as a plain loop over the endpoint plan: the
    reference the generated kernel must match bit for bit.

    Takes the arguments of a cycle_kernel kernel after the plan and returns
    the same (s, broadcasts, trace); s is updated in place.
    """
    steps = [(k, inc) + p for k, (inc, p) in enumerate(zip(incs, plan))]
    broadcasts = 0
    trace = []

    for _ in range(cycles):
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
                    for _rep in range(projection_repeats):
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
        for v, x in zip(wmu, s):
            obj += v * x
        trace.append(obj)
    return s, broadcasts, trace


def assert_same_cycles(weights, constraints, params):
    """The kernel and list_loop_cycles, from the arguments the solver passes,
    give the same bits."""
    wmu = (weights.w * weights.mu).tolist()
    s = [1.0 if params.init_mode == "ones" else 0.0] * len(wmu)
    args = ([params.step_size * v for v in wmu], wmu, params.cycles, params.projection_repeats)
    mode = params.divisor_mode
    got_s, got_broadcasts, got_trace = cycle_kernel(constraints, mode)(list(s), *args)
    want_s, want_broadcasts, want_trace = list_loop_cycles(
        constraints.endpoint_plans[mode], list(s), *args
    )
    assert_same_bits(np.array(got_s, dtype=float), np.array(want_s, dtype=float))
    assert got_broadcasts == want_broadcasts
    assert_same_bits(np.array(got_trace, dtype=float), np.array(want_trace, dtype=float))


def counting_generations(monkeypatch):
    """Empty the kernel cache and record the plan of every kernel generated
    from now on."""
    from drainsched import optim

    optim._compiled.cache_clear()
    generated = []
    source = optim._kernel_source

    def counting(plan):
        generated.append(plan)
        return source(plan)

    monkeypatch.setattr(optim, "_kernel_source", counting)
    return generated


def wide_constraints(n):
    """n coordinates in overlapping groups of six, plus one halfspace holding
    all of them as coordinate 0's tail, so one member sum has n terms."""
    groups = [tuple(range(max(0, g - 3), min(n, g + 3))) for g in range(0, n, 3)]
    last = len(groups) - 1
    endpoints = tuple((last + 1 if k == 0 else k // 3, min(k // 3 + 1, last)) for k in range(n))
    groups.append(tuple(range(n)))
    return ConstraintSet(tuple(map(Halfspace.sum_cap, groups)), endpoints, n)


class TestCycleKernel:
    """The generated kernel must give exactly the bits of the list loop."""

    def test_mesh10_reviews(self, monkeypatch):
        from drainsched import engine
        from drainsched.experiments import bundled_preset_config

        seen = []
        solve = engine.solve_review_optimization

        def recording(weights, constraints, params):
            seen.append((weights, constraints, params))
            return solve(weights, constraints, params)

        monkeypatch.setattr(engine, "solve_review_optimization", recording)
        engine.run_simulation(bundled_preset_config(), horizon=3000, seed=1)
        assert len(seen) > 100
        for weights, constraints, params in seen:
            for variant in KERNEL_VARIANTS:
                assert_same_cycles(weights, constraints, replace(params, **variant))

    def test_instance_stream(self):
        from drainsched.instances import instance_stream

        for inst in instance_stream(200):
            for variant in KERNEL_VARIANTS:
                params = OptParams(step_size=inst.step_size, cycles=50, **variant)
                assert_same_cycles(inst.weights, inst.constraints, params)

    def test_large_set(self):
        # A member sum and an objective of 3000 terms each: emitted as one
        # expression, either would exceed the compiler's recursion limit.
        cons = wide_constraints(3000)
        rng = np.random.default_rng(7)
        wv = WeightVector(w=rng.uniform(0, 50, 3000), mu=rng.uniform(0, 3, 3000))
        for mode in DIVISOR_MODES:
            assert_same_cycles(wv, cons, OptParams(step_size=1e-3, cycles=2, divisor_mode=mode))

    def test_sets_with_equal_plans_share_a_kernel(self):
        spec, entries, cons = two_flow_chain()
        other = build_constraints(entries, spec)
        assert other is not cons and other.endpoint_plans == cons.endpoint_plans
        for mode in DIVISOR_MODES:
            assert cycle_kernel(other, mode) is cycle_kernel(cons, mode)

    def test_one_kernel_per_divisor_mode(self, monkeypatch):
        from drainsched.experiments import bundled_preset_config

        generated = counting_generations(monkeypatch)
        spec = bundled_preset_config().network
        cons = build_constraints(build_link_flow_index(spec), spec)
        plans = cons.endpoint_plans
        assert plans["coordinates"] != plans["links"]
        kernels = {mode: cycle_kernel(cons, mode) for mode in DIVISOR_MODES * 2}
        assert kernels["coordinates"] is not kernels["links"]
        assert generated == [plans[mode] for mode in DIVISOR_MODES]

    def test_first_solve_runs_the_kernel(self, monkeypatch):
        from drainsched import optim

        generated = counting_generations(monkeypatch)
        ran = []
        compiled = optim._compiled

        def recording(plan):
            kernel = compiled(plan)

            def run(*args):
                ran.append(plan)
                return kernel(*args)

            return run

        monkeypatch.setattr(optim, "_compiled", recording)
        spec, entries, cons = two_flow_chain()
        plan = cons.endpoint_plans["coordinates"]
        wv = WeightVector(w=np.array([3.0, 1.0, 2.0, 4.0]), mu=np.ones(4))
        first, first_diag = solve_review_optimization(wv, cons, OptParams())
        assert generated == [plan] and ran == [plan]
        for again in (cons, build_constraints(entries, spec), cons):
            got, got_diag = solve_review_optimization(wv, again, OptParams())
            assert_same_bits(got, first)
            assert got_diag == first_diag
        assert generated == [plan] and ran == [plan] * 4

    def test_pickled_set_solves_bit_identically(self):
        import pickle

        _, _, cons = two_flow_chain()
        wv = WeightVector(w=np.array([3.0, 1.0, 2.0, 4.0]), mu=np.ones(4))
        for mode in DIVISOR_MODES:
            want, want_diag = solve_review_optimization(wv, cons, OptParams(divisor_mode=mode))
            copy = pickle.loads(pickle.dumps(cons))
            assert copy == cons and copy.endpoint_plans == cons.endpoint_plans
            got, got_diag = solve_review_optimization(wv, copy, OptParams(divisor_mode=mode))
            assert_same_bits(got, want)
            assert got_diag == want_diag

    def test_unknown_divisor_mode_rejected(self):
        _, _, cons = two_flow_chain()
        with pytest.raises(ValueError, match="divisor_mode must be one of .*'coordinates'"):
            cycle_kernel(cons, "bogus")

    def test_source_is_the_code_that_runs(self):
        _, _, cons = two_flow_chain()
        kernel = cycle_kernel(cons)
        assert kernel.source.startswith("def kernel(s, incs, wmu, cycles, projection_repeats):\n")
        namespace = {}
        exec(kernel.source, namespace)
        args = ([1.0] * 4, [0.3, 0.1, 0.2, 0.4], [3.0, 1.0, 2.0, 4.0], 5, 10)
        assert namespace["kernel"](*args) == kernel(*args)

    def test_mesh10_source_pinned(self):
        # Any change to the emitted code must show up here as a reviewed diff.
        from drainsched.experiments import bundled_preset_config

        spec = bundled_preset_config().network
        cons = build_constraints(build_link_flow_index(spec), spec)
        source = cycle_kernel(cons, "coordinates").source
        assert hashlib.sha256(source.encode()).hexdigest() == (
            "b67534513f1f178788bf10e03910067417f47abddc0a07bb5e61b82fc7bf21f8"
        )


def signed_zero_patterns(n):
    """mu vectors of n zeros with their signs in several orders."""
    rng = np.random.default_rng(n)
    signs = [[1.0] * n, [-1.0] * n, [(-1.0) ** k for k in range(n)],
             [(-1.0) ** (k + 1) for k in range(n)], [-1.0] + [1.0] * (n - 1),
             [1.0] * (n - 1) + [-1.0]]
    signs += [rng.choice([-1.0, 1.0], n).tolist() for _ in range(4)]
    return [np.copysign(np.zeros(n), sign) for sign in signs]


class TestDiagnostics:
    @pytest.mark.parametrize("n", [1, 2, 15, 40])
    def test_c2_keeps_the_sign_of_zero_max(self, n):
        # c2's sign of zero is whatever ndarray.max() returns on the rates.
        cons = wide_constraints(n)
        for mu in signed_zero_patterns(n):
            wv = WeightVector(w=np.ones(n), mu=mu, theta_hat=2.0)
            _, diag = solve_review_optimization(wv, cons, OptParams())
            want = 2.0 * float(mu.max())
            assert np.float64(diag.c2).tobytes() == np.float64(want).tobytes()

    def test_gap_bound_zero_step(self):
        _, c3 = theorem_gap_bound(0.0, 5, 10.0)
        assert c3 == 0.0

    def test_gap_bound_formula(self):
        beta, c3 = theorem_gap_bound(1.0, 1, 1.0)
        assert beta == 5.0
        assert c3 == 2.5

    def test_solver_bound_uses_theta_hat(self):
        _, _, cons = two_flow_chain()
        wv = WeightVector(w=np.ones(4), mu=np.full(4, 3.0), theta_hat=6.0)
        _, diag = solve_review_optimization(wv, cons, OptParams(step_size=1e-4))
        assert diag.c2 == 18.0
        assert diag.beta == pytest.approx(4 + 1 / 4)
        assert diag.c3 == pytest.approx(1e-4 * (4 + 1 / 4) * 16 * 18.0**2 / 2)

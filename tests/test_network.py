import math

import numpy as np
import pytest

from drainsched.network import (
    ConfigError,
    Flow,
    Halfspace,
    NetworkSpec,
    build_constraints,
    build_link_flow_index,
    derive_interference_sets,
)


def simple_net(links, flows, n_nodes=None, extra=()):
    if n_nodes is None:
        n_nodes = 1 + max(max(i, j) for i, j in links)
    # place nodes on a line with distinct positions
    positions = tuple((0.1 * v, 0.05 * v) for v in range(n_nodes))
    return NetworkSpec(positions=positions, links=tuple(links), flows=tuple(flows),
                       interference_sets=tuple(extra))


MESH10_POSITIONS = (
    (0.5, 0.9), (0.25, 0.65), (1.0, 0.65), (0.5, 0.4), (0.75, 0.4),
    (0.0, 0.4), (0.95, 0.225), (0.25, 0.15), (1.0, 0.0), (0.5, 0.05),
)
MESH10_LINKS = (
    (0, 1), (0, 2), (0, 4), (1, 3), (2, 6), (3, 7),
    (4, 9), (5, 7), (6, 8), (7, 9), (8, 9),
)
MESH10_FLOWS = (
    Flow(source=0, destination=9, arrival_rate=3.3,
         routes=((0, 1, 3, 7, 9), (0, 4, 9), (0, 2, 6, 8, 9))),
    Flow(source=1, destination=7, arrival_rate=3.3, routes=((1, 3, 7),)),
    Flow(source=5, destination=7, arrival_rate=3.3, routes=((5, 7),)),
    Flow(source=2, destination=8, arrival_rate=3.3, routes=((2, 6, 8),)),
    Flow(source=4, destination=9, arrival_rate=3.3, routes=((4, 9),)),
)


@pytest.fixture()
def mesh10():
    return derive_interference_sets(
        NetworkSpec(positions=MESH10_POSITIONS, links=MESH10_LINKS, flows=MESH10_FLOWS)
    )


class TestValidation:
    def test_self_link_rejected(self):
        with pytest.raises(ConfigError, match="self-link"):
            simple_net([(1, 1)], [], n_nodes=2)

    def test_route_with_undefined_link_names_route_and_hop(self):
        flow = Flow(source=0, destination=2, routes=((0, 1, 2),), arrival_rate=1.0)
        with pytest.raises(ConfigError, match=r"routes\[0\] hop 1.*\(1, 2\)"):
            simple_net([(0, 1)], [flow], n_nodes=3)

    def test_route_must_start_at_source(self):
        flow = Flow(source=0, destination=2, routes=((1, 2),), arrival_rate=1.0)
        with pytest.raises(ConfigError, match="starts at 1"):
            simple_net([(0, 1), (1, 2)], [flow], n_nodes=3)

    def test_negative_rate_rejected(self):
        flow = Flow(source=0, destination=1, routes=((0, 1),), arrival_rate=-0.5)
        with pytest.raises(ConfigError, match="arrival rate"):
            simple_net([(0, 1)], [flow])

    @pytest.mark.parametrize("routes, rate, message", [
        ((), 1.0, "needs at least one route"),
        (((0, 1),), math.nan, "arrival rate must be >= 0, got nan"),
        (((0, 1),), -math.inf, "arrival rate must be >= 0, got -inf"),
    ], ids=["no-routes", "rate-nan", "rate-minus-inf"])
    def test_flow_rule_names_the_flow_by_path(self, routes, rate, message):
        # Two streams with the same endpoints: only the path tells them apart.
        flows = [
            Flow(source=0, destination=1, routes=((0, 1),), arrival_rate=1.0),
            Flow(source=0, destination=1, routes=routes, arrival_rate=rate),
        ]
        with pytest.raises(ConfigError) as exc:
            simple_net([(0, 1)], flows)
        assert str(exc.value) == f"network.flows[1]: {message}"

    def test_flow_alone_is_not_checked(self):
        flow = Flow(source=0, destination=1, routes=(), arrival_rate=-1)
        assert (flow.routes, flow.arrival_rate) == ((), -1.0)

    def test_coincident_link_endpoints_rejected(self):
        with pytest.raises(ConfigError, match="coincident"):
            NetworkSpec(positions=((0.0, 0.0), (0.0, 0.0)), links=((0, 1),), flows=())

    @pytest.mark.parametrize("positions, what", [
        (((0.0, 0.0), (1e-200, 0.0)), "1e-200 apart; the squared length underflows to 0"),
        (((0.0, 0.0), (1e200, 0.0)), "1e\\+200 apart; the squared length overflows"),
        (((-1e308, 0.0), (1e308, 0.0)), "inf apart; the squared length overflows"),
    ], ids=["underflow", "overflow", "infinite"])
    def test_squared_length_out_of_float_range_rejected(self, positions, what):
        with pytest.raises(ConfigError, match=rf"^network\.links\[0\]: nodes 0 and 1 are {what}"):
            NetworkSpec(positions=positions, links=((0, 1),), flows=())

    def test_cyclic_route_union_rejected(self):
        flows = [
            Flow(source=0, destination=3, routes=((0, 1, 2, 3),), arrival_rate=1.0),
            Flow(source=2, destination=3, routes=((2, 1, 0, 4, 3),), arrival_rate=1.0),
        ]
        with pytest.raises(ConfigError, match="cycle"):
            simple_net([(0, 1), (1, 2), (2, 3), (2, 1), (1, 0), (0, 4), (4, 3)], flows)


class TestLinkFlowIndex:
    def test_single_one_hop_flow(self):
        flow = Flow(source=5, destination=7, routes=((5, 7),), arrival_rate=1.0)
        spec = simple_net([(5, 7)], [flow], n_nodes=8)
        assert build_link_flow_index(spec) == ((5, 7, 7),)

    def test_multi_route_flow_covers_all_distinct_route_links(self):
        flow = Flow(source=0, destination=9, arrival_rate=1.0,
                    routes=((0, 1, 3, 7, 9), (0, 4, 9), (0, 2, 6, 8, 9)))
        spec = simple_net(MESH10_LINKS, [flow], n_nodes=10)
        entries = build_link_flow_index(spec)
        expected_links = set()
        for route in flow.routes:
            expected_links.update(zip(route, route[1:]))
        assert {(i, j) for (i, j, f) in entries} == expected_links
        assert all(f == 9 for (_, _, f) in entries)
        assert len(entries) == len(expected_links)

    def test_two_flows_sharing_a_link_get_two_entries(self, mesh10):
        entries_13 = [e for e in build_link_flow_index(mesh10) if (e[0], e[1]) == (1, 3)]
        assert entries_13 == [(1, 3, 7), (1, 3, 9)]

    def test_ordering_is_lexicographic(self, mesh10):
        entries = build_link_flow_index(mesh10)
        assert list(entries) == sorted(entries)


class TestDeriveInterferenceSets:
    def test_star_sharing_node_lands_in_one_set(self):
        spec = simple_net([(1, 2), (3, 2), (2, 4)], [], n_nodes=5)
        derived = derive_interference_sets(spec)
        assert (0, 1, 2) in derived.interference_sets

    def test_changes_only_the_sets_of_a_copy_without_validating(self, monkeypatch):
        spec = simple_net([(0, 1), (1, 2)], [], extra=[(1,)])
        calls = []
        monkeypatch.setattr(NetworkSpec, "_validate", lambda self: calls.append(self))
        derived = derive_interference_sets(spec)
        assert calls == []
        assert spec.interference_sets == ((1,),)
        assert derived.interference_sets == ((0, 1),)
        for name in ("positions", "links", "flows"):
            assert getattr(derived, name) is getattr(spec, name)

    def test_disjoint_links_share_no_set(self):
        spec = simple_net([(1, 2), (3, 4)], [], n_nodes=5)
        derived = derive_interference_sets(spec)
        assert not any(
            0 in members and 1 in members for members in derived.interference_sets
        )

    def test_mesh_node9_incident_set(self, mesh10):
        li = mesh10.link_index
        node9 = tuple(sorted((li[(7, 9)], li[(4, 9)], li[(8, 9)])))
        assert node9 in mesh10.interference_sets

    def test_subset_sets_are_dropped(self):
        spec = simple_net([(1, 2), (3, 2), (2, 4)], [], n_nodes=5, extra=((0,),))
        derived = derive_interference_sets(spec)
        assert (0,) not in derived.interference_sets
        assert (0, 1, 2) in derived.interference_sets

    def test_user_supersets_are_preserved(self):
        spec = simple_net([(1, 2), (3, 4)], [], n_nodes=5, extra=((0, 1),))
        derived = derive_interference_sets(spec)
        assert derived.interference_sets == ((0, 1),)

    def test_deterministic(self, mesh10):
        again = derive_interference_sets(
            NetworkSpec(positions=MESH10_POSITIONS, links=MESH10_LINKS, flows=MESH10_FLOWS)
        )
        assert again.interference_sets == mesh10.interference_sets


class TestBuildConstraints:
    def test_three_member_set_normal_and_bound(self):
        flows = [
            Flow(source=0, destination=1, routes=((0, 1),), arrival_rate=1.0),
            Flow(source=0, destination=2, routes=((0, 2),), arrival_rate=1.0),
            Flow(source=0, destination=3, routes=((0, 3),), arrival_rate=1.0),
        ]
        spec = derive_interference_sets(simple_net([(0, 1), (0, 2), (0, 3)], flows))
        entries = build_link_flow_index(spec)
        cons = build_constraints(entries, spec)
        assert len(cons.halfspaces) == 1
        h = cons.halfspaces[0]
        assert h.members == (0, 1, 2)
        assert h.normal == (1 / math.sqrt(3),) * 3
        assert h.bound == 1 / math.sqrt(3)
        assert h.uniform

    def test_singleton_set_is_box_cap(self):
        flow = Flow(source=0, destination=1, routes=((0, 1),), arrival_rate=1.0)
        spec = derive_interference_sets(simple_net([(0, 1)], [flow], n_nodes=2))
        entries = build_link_flow_index(spec)
        cons = build_constraints(entries, spec)
        assert len(cons.halfspaces) == 1
        assert cons.halfspaces[0].normal == (1.0,)
        assert cons.halfspaces[0].bound == 1.0

    def test_endpoint_lookup_is_node_sets(self, mesh10):
        entries = build_link_flow_index(mesh10)
        cons = build_constraints(entries, mesh10)
        k = entries.index((3, 7, 7))
        h_tail, h_head = (cons.halfspaces[h] for h in cons.endpoints[k])
        # tail halfspace covers node 3's links, head covers node 7's links
        tail_links = {entries[m][:2] for m in h_tail.members}
        head_links = {entries[m][:2] for m in h_head.members}
        assert {(1, 3), (3, 7)} <= tail_links
        assert {(3, 7), (5, 7), (7, 9)} <= head_links

    def test_endpoint_halfspaces_contain_coordinate(self, mesh10):
        entries = build_link_flow_index(mesh10)
        cons = build_constraints(entries, mesh10)
        for k in range(len(entries)):
            for h in cons.endpoints[k]:
                assert k in cons.halfspaces[h].members

    def test_masks_have_exactly_the_membership_bits(self, mesh10):
        entries = build_link_flow_index(mesh10)
        cons = build_constraints(entries, mesh10)
        assert len(cons.masks) == len(entries)
        for k, mask in enumerate(cons.masks):
            bits = {h for h in range(len(cons.halfspaces)) if mask >> h & 1}
            assert bits == set(cons.memberships[k])
            assert mask >> len(cons.halfspaces) == 0

    def test_link_without_flow_contributes_no_coordinate(self, mesh10):
        entries = build_link_flow_index(mesh10)
        cons = build_constraints(entries, mesh10)
        used = {(i, j) for i, j, _ in entries}
        assert used == set(MESH10_LINKS)  # every mesh link carries flow here
        # add an unused link and rebuild: no new coordinates appear
        spec2 = derive_interference_sets(
            NetworkSpec(
                positions=MESH10_POSITIONS,
                links=MESH10_LINKS + ((9, 8),),
                flows=MESH10_FLOWS,
            )
        )
        entries2 = build_link_flow_index(spec2)
        assert entries2 == entries
        cons2 = build_constraints(entries2, spec2)
        assert all(h.members for h in cons2.halfspaces)

    def test_requires_derived_sets(self, mesh10):
        entries = build_link_flow_index(mesh10)
        raw = NetworkSpec(positions=MESH10_POSITIONS, links=MESH10_LINKS, flows=MESH10_FLOWS)
        with pytest.raises(ConfigError, match="derive_interference_sets"):
            build_constraints(entries, raw)

    def test_deterministic_construction(self, mesh10):
        entries = build_link_flow_index(mesh10)
        assert build_constraints(entries, mesh10) == build_constraints(entries, mesh10)

    def test_feasible_point_obeys_link_and_pairwise_sums(self, mesh10):
        from drainsched.optim import finalize_feasible

        entries = build_link_flow_index(mesh10)
        cons = build_constraints(entries, mesh10)
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = finalize_feasible(rng.uniform(-1, 3, len(entries)), cons)
            assert cons.feasible(s)
            # per-link sum over flows <= 1
            for link in MESH10_LINKS:
                total = sum(
                    s[k] for k, (i, j, _) in enumerate(entries) if (i, j) == link
                )
                assert total <= 1.0 + 1e-9
            # pairwise link sums within any common interference set <= 1
            link_sum = {
                link: sum(s[k] for k, (i, j, _) in enumerate(entries) if (i, j) == link)
                for link in MESH10_LINKS
            }
            for members in mesh10.interference_sets:
                for a in members:
                    for b in members:
                        if a < b:
                            la, lb = mesh10.links[a], mesh10.links[b]
                            assert link_sum[la] + link_sum[lb] <= 1.0 + 1e-9


class TestHalfspace:
    def test_rejects_non_unit_normal(self):
        with pytest.raises(ValueError, match="unit length"):
            Halfspace(members=(0, 1), normal=(1.0, 1.0), bound=1.0, uniform=False)

    def test_rejects_negative_normal(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Halfspace(members=(0, 1), normal=(-0.6, 0.8), bound=1.0, uniform=False)

    def test_sum_cap_violation_sign(self):
        h = Halfspace.sum_cap((0, 1, 2))
        assert h.violation(np.array([0.2, 0.2, 0.2])) < 0
        assert h.violation(np.array([0.6, 0.6, 0.6])) > 0

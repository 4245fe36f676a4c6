"""Network model: graph, flows, schedule coordinates, interference constraints.

The optimizer and the slot scheduler both work on a fixed coordinate space:
the ordered list of (directed link, flow) pairs that may carry traffic, built
from the declared routes. This module constructs that space, derives the
node-based interference sets (any two links touching a common node are
mutually exclusive), and assembles the feasibility polytope as one
"sum of member coordinates <= 1" halfspace per interference set.
"""

from __future__ import annotations

import copy
import graphlib
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

Link = tuple[int, int]

# The largest rate numpy's Poisson sampler accepts: int64 max - 10 sqrt(int64 max).
_MAX_ARRIVAL_RATE = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


def is_integer(value) -> bool:
    """An int or numpy integer; bool, float and everything else are not."""
    # type(value) is int first: the ABC check alone costs ~10x as much.
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def integer(value, name: str, low: int) -> int:
    """value, an integer (see is_integer) >= low, as an int; else a ConfigError
    naming it name. The one rule for every count, seed, id and option: a numpy
    integer is stored as an int, so a config has one digest."""
    if not is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return int(value)


def number(value, name: str, low: float, *, strict=False, high: float | None = None) -> float:
    """value, a real number (not a bool; an int past the float range counts as
    infinite), finite and >= low (> low when strict) and, given high, <= high
    (< high when strict), as a float; else a ConfigError naming it name. The
    one rule for every real-valued input: a rate, a scale, a power, a review
    constant, a weight or a position."""
    x = value
    if type(x) is not float:  # an in-range float goes straight to the bounds
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        try:
            x = float(x)
        except OverflowError:
            x = math.inf
    if -math.inf < x < math.inf and (low < x if strict else low <= x) and (
        high is None or (x < high if strict else x <= high)
    ):
        return x
    bounds = "" if low == -math.inf else f" and {'>' if strict else '>='} {low}"
    if high is not None:
        bounds += f" and {'<' if strict else '<='} {high}"
    raise ConfigError(f"{name} must be finite{bounds}, got {value}")


@dataclass(frozen=True)
class Flow:
    """One exogenous arrival stream.

    Traffic identity follows the destination: every stream addressed to the
    same node belongs to the same flow and shares that flow's per-node queues
    and statistics. Routes are fixed node paths from source to
    destination; the scheduler may split traffic across them. A Flow is a
    plain record: the NetworkSpec that holds it checks it and stores its node
    ids as ints, its routes as tuples and its rate as a float.
    """

    source: int
    destination: int
    routes: tuple[tuple[int, ...], ...]
    arrival_rate: float


def _ids(values, path: str) -> tuple[int, ...]:
    """values as ints by integer's rule (ids are >= 0), item k named path[k]."""
    return tuple(integer(v, f"{path}[{k}]", 0) for k, v in enumerate(values))


def _checked_flow(fl: Flow, path: str) -> Flow:
    """fl, read at path: ids by integer's rule, the rate by number's."""
    return Flow(
        source=integer(fl.source, f"{path}.source", 0),
        destination=integer(fl.destination, f"{path}.destination", 0),
        routes=tuple(_ids(route, f"{path}.routes[{ri}]") for ri, route in enumerate(fl.routes)),
        arrival_rate=number(fl.arrival_rate, f"{path}.rate_pkts_per_slot", 0,
                            high=_MAX_ARRIVAL_RATE),
    )


@dataclass(frozen=True)
class NetworkSpec:
    """Static description of the network.

    positions: one (x, y) per node, node ids are 0..N-1.
    links: directed (i, j) pairs, no self-links.
    flows: arrival streams with fixed routes.
    interference_sets: sets of link indices of which at most one link may be
        active per slot. Usually produced by derive_interference_sets.
    Node ids and link indices follow integer's rule, positions and rates
    number's, each named by its config path (network.links[0].i,
    network.flows[0].routes[0][1], network.nodes[3].x, ...).
    """

    positions: tuple[tuple[float, float], ...]
    links: tuple[Link, ...]
    flows: tuple[Flow, ...]
    interference_sets: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(
            (number(x, f"network.nodes[{v}].x", -math.inf),
             number(y, f"network.nodes[{v}].y", -math.inf))
            for v, (x, y) in enumerate(self.positions)
        ))
        object.__setattr__(self, "links", tuple(
            (integer(i, f"network.links[{li}].i", 0), integer(j, f"network.links[{li}].j", 0))
            for li, (i, j) in enumerate(self.links)
        ))
        object.__setattr__(self, "flows", tuple(
            _checked_flow(fl, f"network.flows[{fi}]") for fi, fl in enumerate(self.flows)
        ))
        object.__setattr__(self, "interference_sets", tuple(
            tuple(sorted(set(_ids(members, f"network.extra_interference_sets[{si}]"))))
            for si, members in enumerate(self.interference_sets)
        ))
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        n = len(self.positions)
        if n == 0:
            raise ConfigError("network.nodes: at least one node is required")
        seen: set[Link] = set()
        for li, (i, j) in enumerate(self.links):
            if not (0 <= i < n and 0 <= j < n):
                raise ConfigError(f"network.links[{li}]: endpoint out of range in ({i}, {j})")
            if i == j:
                raise ConfigError(f"network.links[{li}]: self-link ({i}, {j}) not allowed")
            if (i, j) in seen:
                raise ConfigError(f"network.links[{li}]: duplicate link ({i}, {j})")
            seen.add((i, j))
            d = self.distance((i, j))
            # The channel divides by d ** 2, so it must be a positive finite float.
            try:
                d2 = d ** 2
            except OverflowError:
                d2 = math.inf
            number(d2, f"network.links[{li}]: nodes {i} and {j} are {d!r} apart; the squared"
                   " length", 0, strict=True)
        for si, members in enumerate(self.interference_sets):
            if not members:
                raise ConfigError(f"network.extra_interference_sets[{si}]: empty set")
            for m in members:
                if not 0 <= m < len(self.links):
                    raise ConfigError(
                        f"network.extra_interference_sets[{si}]: link index {m} out of range"
                    )
        by_dest: dict[int, list[Flow]] = {}
        for fi, fl in enumerate(self.flows):
            if not fl.routes:
                raise ConfigError(f"network.flows[{fi}]: needs at least one route")
            if not (0 <= fl.source < n and 0 <= fl.destination < n):
                raise ConfigError(f"network.flows[{fi}]: source/destination out of range")
            for ri, route in enumerate(fl.routes):
                if len(route) < 2:
                    raise ConfigError(
                        f"network.flows[{fi}].routes[{ri}]: route needs at least two nodes"
                    )
                if route[0] != fl.source:
                    raise ConfigError(
                        f"network.flows[{fi}].routes[{ri}]: route starts at {route[0]}, "
                        f"flow source is {fl.source}"
                    )
                if route[-1] != fl.destination:
                    raise ConfigError(
                        f"network.flows[{fi}].routes[{ri}]: route ends at {route[-1]}, "
                        f"flow destination is {fl.destination}"
                    )
                for hi in range(len(route) - 1):
                    hop = (route[hi], route[hi + 1])
                    if hop not in seen:
                        raise ConfigError(
                            f"network.flows[{fi}].routes[{ri}] hop {hi}: "
                            f"link ({hop[0]}, {hop[1]}) is not defined"
                        )
            by_dest.setdefault(fl.destination, []).append(fl)
        for dest, group in sorted(by_dest.items()):
            self._check_acyclic(dest, group)

    def _check_acyclic(self, dest: int, group: list[Flow]) -> None:
        # Packets of a flow may hop between routes, so the union of the
        # flow's route links must not contain a directed cycle.
        adj: dict[int, set[int]] = {}
        for fl in group:
            for route in fl.routes:
                for a, b in zip(route, route[1:]):
                    adj.setdefault(a, set()).add(b)
        try:
            graphlib.TopologicalSorter(adj).prepare()
        except graphlib.CycleError as exc:
            raise ConfigError(
                f"flow {dest}: union of route links contains a directed cycle"
            ) from exc

    # -- derived views ----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.positions)

    @cached_property
    def link_index(self) -> dict[Link, int]:
        return {link: li for li, link in enumerate(self.links)}

    @cached_property
    def flow_ids(self) -> tuple[int, ...]:
        """Distinct flow identifiers (destinations), ascending."""
        return tuple(sorted({fl.destination for fl in self.flows}))

    def distance(self, link: Link) -> float:
        (x1, y1), (x2, y2) = self.positions[link[0]], self.positions[link[1]]
        return math.hypot(x1 - x2, y1 - y2)

    @cached_property
    def squared_lengths(self) -> tuple[float, ...]:
        """distance(link) ** 2 per link, in declared link order."""
        return tuple(self.distance(l) ** 2 for l in self.links)

    def incident_links(self, node: int) -> tuple[int, ...]:
        return tuple(li for li, (i, j) in enumerate(self.links) if node in (i, j))


def derive_interference_sets(spec: NetworkSpec) -> NetworkSpec:
    """Return a spec whose interference sets cover the node-sharing rule.

    For each node, the set of all links incident on it (in or out) becomes an
    interference set. User-declared sets are preserved. Duplicates and sets
    wholly contained in another set are dropped; the result is ordered by the
    sorted member tuples so identical inputs give identical outputs.

    Only the interference sets change, and each derived set is a nonempty
    set of declared link indices, so the spec is not validated again.
    """
    candidates = {frozenset(s) for s in spec.interference_sets}
    for v in range(spec.n_nodes):
        inc = frozenset(spec.incident_links(v))
        if inc:
            candidates.add(inc)
    keep = [s for s in candidates if not any(s < t for t in candidates)]
    keep.sort(key=lambda s: tuple(sorted(s)))
    # The copy keeps spec's cached views; none of them reads interference_sets.
    derived = copy.copy(spec)
    object.__setattr__(derived, "interference_sets", tuple(tuple(sorted(s)) for s in keep))
    return derived


def build_link_flow_index(spec: NetworkSpec) -> tuple[tuple[int, int, int], ...]:
    """Enumerate exactly the (link, flow) pairs allowed by the routes.

    Coordinate k is entries[k] = (i, j, flow_id); entries are sorted
    lexicographically, which pins the cyclic update order of the optimizer
    and every other per-coordinate iteration in the system.
    """
    return tuple(sorted({
        (i, j, fl.destination)
        for fl in spec.flows
        for route in fl.routes
        for i, j in zip(route, route[1:])
    }))


@dataclass(frozen=True)
class Halfspace:
    """A constraint <s, normal> <= bound with a unit, nonnegative normal.

    ``uniform`` marks the equal-coefficient case produced by interference
    sets, where the constraint is exactly "sum of member coordinates <= 1"
    (each nonzero normal component and the bound both equal 1/sqrt(n)).
    ``link_count`` records how many distinct links the source interference
    set contains; it only matters for the alternative projection divisor.
    """

    members: tuple[int, ...]
    normal: tuple[float, ...]
    bound: float
    uniform: bool
    link_count: int | None = None

    def __post_init__(self):
        if not self.members:
            raise ValueError("halfspace needs at least one member coordinate")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("halfspace members must be sorted and unique")
        if len(self.normal) != len(self.members):
            raise ValueError("normal length must match member count")
        if any(c < 0 for c in self.normal):
            raise ValueError("halfspace normal must be componentwise nonnegative")
        norm = math.sqrt(sum(c * c for c in self.normal))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"halfspace normal must have unit length, got {norm}")

    @staticmethod
    def sum_cap(members, link_count: int | None = None) -> "Halfspace":
        """The halfspace 'sum of the member coordinates <= 1' (members by integer's rule)."""
        members = tuple(sorted({integer(m, "halfspace member", 0) for m in members}))
        c = 1.0 / math.sqrt(len(members))
        return Halfspace(members, (c,) * len(members), c, True, link_count)

    def value(self, s) -> float:
        return float(sum(s[m] * c for m, c in zip(self.members, self.normal)))

    def violation(self, s) -> float:
        """Signed excess <s, normal> - bound; positive means violated."""
        if self.uniform:
            total = float(sum(s[m] for m in self.members))
            return (total - 1.0) * self.normal[0]
        return self.value(s) - self.bound


class EndpointPlan(tuple):
    """An endpoint plan (see ConstraintSet.endpoint_plans): a tuple that
    computes its hash once. optim.cycle_kernel looks the compiled kernel up
    by plan on every solve, and a plain tuple of nested tuples would be
    hashed again each time (~1.5 us for mesh10's 15 coordinates). Equal
    plans hash and compare as the plain tuples do. A plan pickles as its
    items and hashes them again when loaded, so the stored hash is always
    the one of the interpreter that holds it.
    """

    def __init__(self, items):
        self._hash = tuple.__hash__(self)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return EndpointPlan, (tuple(self),)


@dataclass(frozen=True)
class ConstraintSet:
    """The feasibility polytope over the coordinate space.

    halfspaces: one sum-cap halfspace per nonempty interference set, in the
        interference-set order of the source NetworkSpec.
    endpoints: per coordinate k, the ids of the halfspaces covering the tail
        node i(k) and the head node j(k); these are the only constraints a
        single-coordinate increase can break.

    The derived views are computed on first use and kept for the life of
    the set:
    memberships: per coordinate, the ascending ids of all halfspaces whose
        member set contains it.
    masks: memberships as bitmasks (bit h set when halfspace h contains the
        coordinate); two coordinates conflict exactly when their masks share
        a bit.
    The rest are the static data of the review path: the member tuple of
    each halfspace and, per divisor mode, the endpoint plan of every
    coordinate. The solver's kernel is compiled from a plan and cached
    by optim.cycle_kernel, keyed by the plan, not kept on the set; a set
    holds only plain data and pickles as such. A plan is an EndpointPlan,
    so the lookup hashes it once per set, not once per solve.
    """

    halfspaces: tuple[Halfspace, ...]
    endpoints: tuple[tuple[int, int], ...]
    n_coords: int

    def feasible(self, s, tol: float = 1e-9) -> bool:
        if any(x < -tol or x > 1.0 + tol for x in s):
            return False
        for h in self.halfspaces:
            if sum(s[m] for m in h.members) > 1.0 + tol:
                return False
        return True

    @cached_property
    def memberships(self) -> tuple[tuple[int, ...], ...]:
        member_lists: list[list[int]] = [[] for _ in range(self.n_coords)]
        for hi, h in enumerate(self.halfspaces):
            for m in h.members:
                member_lists[m].append(hi)
        return tuple(map(tuple, member_lists))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << hid for hid in ms) for ms in self.memberships)

    @cached_property
    def member_groups(self) -> tuple[tuple[int, ...], ...]:
        """Member coordinates of each halfspace, in halfspace order."""
        return tuple(h.members for h in self.halfspaces)

    @cached_property
    def endpoint_plans(self) -> dict[str, EndpointPlan]:
        """Per divisor mode, (m1, d1, b1, m2, d2, b2) per coordinate.

        These are the members, the projection divisor and the broadcast
        count (members - 1) of the tail and the head halfspace. When both
        endpoints lie in one halfspace the head entry is ((), 0.0, 0).
        "coordinates" divides by the member count (the exact orthogonal
        projection); "links" by the link count, or the member count when
        none is recorded.
        """
        groups = self.member_groups
        divisors = {
            "coordinates": [1.0 / len(m) for m in groups],
            "links": [
                1.0 / (h.link_count if h.link_count else len(h.members)) for h in self.halfspaces
            ],
        }
        return {
            mode: EndpointPlan(
                (groups[h1], d[h1], len(groups[h1]) - 1)
                + (((), 0.0, 0) if h1 == h2 else (groups[h2], d[h2], len(groups[h2]) - 1))
                for h1, h2 in self.endpoints
            )
            for mode, d in divisors.items()
        }


def build_constraints(
    entries: tuple[tuple[int, int, int], ...], spec: NetworkSpec
) -> ConstraintSet:
    """Build the polytope over the coordinates entries (as returned by
    build_link_flow_index) and the per-coordinate endpoint lookup.

    Requires derived interference sets: each node's incident links must be
    contained in a single set, otherwise the endpoint lookup is undefined.
    Links that carry no flow contribute no coordinates; interference sets
    with no coordinates at all are omitted.
    """
    if not spec.interference_sets:
        raise ConfigError("interference sets missing; call derive_interference_sets first")

    set_links = [set(members) for members in spec.interference_sets]
    home_set: dict[int, int] = {}
    for v in range(spec.n_nodes):
        inc = set(spec.incident_links(v))
        if not inc:
            continue
        for si, links in enumerate(set_links):
            if inc <= links:
                home_set[v] = si
                break
        else:
            raise ConfigError(
                f"interference sets do not jointly cover node {v}; "
                "call derive_interference_sets first"
            )

    coord_links = [spec.link_index[(i, j)] for i, j, _ in entries]
    halfspaces: list[Halfspace] = []
    h_of_set: dict[int, int] = {}
    for si, links in enumerate(set_links):
        members = tuple(k for k, li in enumerate(coord_links) if li in links)
        if not members:
            continue
        h_of_set[si] = len(halfspaces)
        halfspaces.append(Halfspace.sum_cap(members, link_count=len(links)))

    endpoints = tuple((h_of_set[home_set[i]], h_of_set[home_set[j]]) for i, j, _ in entries)
    return ConstraintSet(
        halfspaces=tuple(halfspaces), endpoints=endpoints, n_coords=len(entries)
    )

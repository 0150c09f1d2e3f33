"""Differential oracle: the built-in router against networkx.

:class:`~repro.arch.topology.Topology` finds bus clusters by union-find
and routes by breadth-first search over the bridge multigraph.  These
tests rebuild both queries on networkx (connected components and
``all_shortest_paths`` on a ``MultiGraph``) and require identical
clusters, identical routes and identical errors on every scenario the
registry can produce, DSL round-trips and hand-built corner cases.
"""

import random

import pytest

from repro import scenarios
from repro.arch.dsl import parse_topology, serialize_topology
from repro.arch.templates import paper_figure1
from repro.arch.topology import Route, Topology
from repro.errors import TopologyError

nx = pytest.importorskip("networkx")

#: random-mesh cluster counts; each is drawn with MESH_SEEDS seeds.
MESH_CLUSTERS = (1, 2, 3, 4, 6, 8, 12, 16)
MESH_SEEDS = 26


def oracle_clusters(topology: Topology):
    graph = nx.Graph()
    graph.add_nodes_from(topology.buses)
    for link in topology.links:
        graph.add_edge(link.bus_a, link.bus_b)
    clusters = [frozenset(c) for c in nx.connected_components(graph)]
    return sorted(clusters, key=min)


def oracle_route(topology: Topology, flow_name: str) -> Route:
    """Shortest bridge path on a networkx cluster multigraph."""
    flow = topology.flows[flow_name]
    clusters = oracle_clusters(topology)
    cluster_by_bus = {bus: c for c in clusters for bus in c}
    src = cluster_by_bus[topology.processors[flow.source].bus]
    dst = cluster_by_bus[topology.processors[flow.destination].bus]
    if src == dst:
        return Route(clusters=(src,), bridges=())
    graph = nx.MultiGraph()
    graph.add_nodes_from(clusters)
    for bridge in sorted(topology.bridges.values(), key=lambda b: b.name):
        graph.add_edge(
            cluster_by_bus[bridge.bus_a],
            cluster_by_bus[bridge.bus_b],
            key=bridge.name,
        )
    try:
        node_paths = list(nx.all_shortest_paths(graph, src, dst))
    except nx.NetworkXNoPath:
        raise TopologyError(
            f"flow {flow_name!r}: no bridge path between clusters"
        ) from None
    candidates = []
    for path in node_paths:
        expansions = [[]]
        for a, b in zip(path, path[1:]):
            expansions = [
                prefix + [key]
                for prefix in expansions
                for key in sorted(graph[a][b])
            ]
        candidates.extend((tuple(path), tuple(e)) for e in expansions)
    candidates.sort(key=lambda item: item[1])
    digest = sum(flow_name.encode("utf-8")) * 2654435761 % 2**32
    clusters_taken, bridges = candidates[digest % len(candidates)]
    return Route(clusters=clusters_taken, bridges=bridges)


def assert_matches_oracle(topology: Topology) -> int:
    """Compare clusters and every flow's route; returns routes checked."""
    assert topology.bus_clusters() == oracle_clusters(topology)
    for flow_name in topology.flows:
        assert topology.route(flow_name) == oracle_route(topology, flow_name)
    return len(topology.flows)


class TestScenarios:
    @pytest.mark.parametrize("name", scenarios.names())
    def test_registry(self, name):
        assert assert_matches_oracle(scenarios.get(name).topology()) > 0

    @pytest.mark.parametrize("clusters", MESH_CLUSTERS)
    def test_random_mesh_members(self, clusters):
        routes = 0
        for seed in range(MESH_SEEDS):
            spec = scenarios.get(f"random-mesh-{clusters}-{seed}")
            routes += assert_matches_oracle(spec.topology())
        assert routes > 0

    def test_member_count(self):
        assert len(MESH_CLUSTERS) * MESH_SEEDS >= 200

    @pytest.mark.parametrize("n", [2, 3, 6, 17])
    def test_single_bus(self, n):
        assert_matches_oracle(scenarios.get(f"single-bus-{n}").topology())

    @pytest.mark.parametrize(
        "name", scenarios.names() + ["random-mesh-4-7", "random-mesh-8-3"]
    )
    def test_dsl_roundtrip(self, name):
        original = scenarios.get(name).topology()
        rebuilt = parse_topology(serialize_topology(original))
        assert_matches_oracle(rebuilt)
        for flow_name in original.flows:
            assert rebuilt.route(flow_name) == original.route(flow_name)


def random_topology(rng: random.Random) -> Topology:
    """Small bus graphs dense in links, parallel and internal bridges."""
    topo = Topology("fuzz")
    buses = [f"b{i}" for i in range(rng.randint(2, 9))]
    for bus in buses:
        topo.add_bus(bus)
        topo.add_processor(f"p_{bus}", bus, service_rate=4.0)
    for _ in range(rng.randint(0, len(buses) // 2)):
        a, b = rng.sample(buses, 2)
        topo.add_link(a, b)
    for i in range(rng.randint(0, 2 * len(buses))):
        a, b = rng.sample(buses, 2)
        topo.add_bridge(f"br{rng.randint(0, 99)}_{i}", a, b, service_rate=3.0)
    for i in range(8):
        a, b = rng.sample(buses, 2)
        topo.add_poisson_flow(f"f{i}_{a}_{b}", f"p_{a}", f"p_{b}", 0.1)
    return topo


class TestCornerCases:
    def test_fig1_parallel_paths_spread_flows(self):
        # Buses f and g are two equal-length ways from b to d; the
        # bridged flows must use both.
        topo = paper_figure1()
        assert_matches_oracle(topo)
        bridged = ("f_25", "f_35", "f_52", "f_53")
        used = {b for f in bridged for b in topo.route(f).bridges}
        assert used == {"b1", "b2", "b3", "b4"}

    def test_parallel_bridges_between_one_pair(self):
        topo = Topology("parallel")
        for bus in ("x", "y", "z"):
            topo.add_bus(bus)
            topo.add_processor(f"p{bus}", bus, service_rate=2.0)
        for name in ("k2", "k1", "k3"):
            topo.add_bridge(name, "x", "y", service_rate=3.0)
        topo.add_bridge("yz1", "y", "z", service_rate=3.0)
        topo.add_bridge("yz2", "z", "y", service_rate=3.0)
        for i in range(12):
            topo.add_poisson_flow(f"f{i}", "px", "pz", 0.1)
        assert_matches_oracle(topo)
        used = {topo.route(f"f{i}").bridges for i in range(12)}
        assert len(used) > 1
        assert all(len(bridges) == 2 for bridges in used)

    def test_bridge_inside_linked_cluster_is_never_crossed(self):
        topo = Topology("loop")
        for bus in ("x", "y", "z"):
            topo.add_bus(bus)
        topo.add_processor("px", "x", service_rate=2.0)
        topo.add_processor("py", "y", service_rate=2.0)
        topo.add_processor("pz", "z", service_rate=2.0)
        topo.add_link("x", "y")
        topo.add_bridge("inner", "x", "y", service_rate=3.0)
        topo.add_bridge("outer", "y", "z", service_rate=3.0)
        topo.add_poisson_flow("xy", "px", "py", 0.5)
        topo.add_poisson_flow("xz", "px", "pz", 0.5)
        topo.add_poisson_flow("zx", "pz", "px", 0.5)
        assert_matches_oracle(topo)
        assert topo.route("xy").bridges == ()
        assert topo.route("xz").bridges == ("outer",)
        assert topo.route("zx").bridges == ("outer",)

    def test_unreachable_cluster_message_unchanged(self):
        topo = Topology()
        topo.add_bus("x")
        topo.add_bus("y")
        topo.add_bus("z")
        topo.add_processor("a", "x", 1.0)
        topo.add_processor("b", "y", 1.0)
        topo.add_processor("c", "z", 1.0)
        topo.add_bridge("br", "x", "z", service_rate=3.0)
        topo.add_poisson_flow("ab", "a", "b", 1.0)
        with pytest.raises(TopologyError) as ours:
            topo.route("ab")
        with pytest.raises(TopologyError) as theirs:
            oracle_route(topo, "ab")
        assert str(ours.value) == str(theirs.value)
        assert str(ours.value) == "flow 'ab': no bridge path between clusters"

    @pytest.mark.parametrize("seed", range(40))
    def test_random_bus_graphs(self, seed):
        topo = random_topology(random.Random(seed))
        assert topo.bus_clusters() == oracle_clusters(topo)
        for flow_name in topo.flows:
            try:
                expected = oracle_route(topo, flow_name)
            except TopologyError as exc:
                with pytest.raises(TopologyError) as ours:
                    topo.route(flow_name)
                assert str(ours.value) == str(exc)
            else:
                assert topo.route(flow_name) == expected

"""Intermediate representation of an SoC communication sub-system.

The IR mirrors the paper's Figure 1: **processors** attach to **buses**;
buses may be rigidly joined by :class:`BusLink` (they then form one *bus
cluster* arbitrated together, like buses a–e in the figure) or coupled
through a :class:`Bridge` (the case that makes the naive CTMDP quadratic
and that buffer insertion resolves).  **Flows** describe who talks to
whom and at what rate.

The topology exposes the two queries the split method needs:

* :meth:`Topology.bus_clusters` — connected components of the bus graph
  after *cutting every bridge*; each cluster becomes one linear subsystem.
* :meth:`Topology.route` — the sequence of clusters and bridges a flow
  traverses from its source processor to its destination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.traffic import PoissonTraffic, TrafficDescriptor
from repro.errors import TopologyError


@dataclass(frozen=True)
class Bus:
    """A shared communication medium with a single arbiter."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("bus name must be non-empty")


@dataclass(frozen=True)
class Processor:
    """An IP core attached to exactly one bus.

    Parameters
    ----------
    name:
        Unique identifier.
    bus:
        Name of the bus the processor's buffer feeds.
    service_rate:
        Exponential rate at which the bus drains one of this processor's
        requests once granted (bus transactions per unit time).
    loss_weight:
        Importance of this processor's losses in the sizing objective.
    """

    name: str
    bus: str
    service_rate: float
    loss_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("processor name must be non-empty")
        if self.service_rate <= 0:
            raise TopologyError(
                f"processor {self.name!r}: service rate must be > 0"
            )
        if self.loss_weight < 0:
            raise TopologyError(
                f"processor {self.name!r}: loss weight must be >= 0"
            )


@dataclass(frozen=True)
class Bridge:
    """A bidirectional bridge between two buses.

    Crossing a bridge costs one extra bus transaction on the far side;
    the split method inserts a buffer at each *entry* of the bridge.
    ``service_rate`` is the rate at which the destination bus drains
    bridge-buffer requests.
    """

    name: str
    bus_a: str
    bus_b: str
    service_rate: float
    loss_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("bridge name must be non-empty")
        if self.bus_a == self.bus_b:
            raise TopologyError(
                f"bridge {self.name!r} must join two distinct buses"
            )
        if self.service_rate <= 0:
            raise TopologyError(
                f"bridge {self.name!r}: service rate must be > 0"
            )

    def other_end(self, bus: str) -> str:
        """The bus on the opposite side of ``bus``."""
        if bus == self.bus_a:
            return self.bus_b
        if bus == self.bus_b:
            return self.bus_a
        raise TopologyError(
            f"bus {bus!r} is not an endpoint of bridge {self.name!r}"
        )


@dataclass(frozen=True)
class BusLink:
    """A rigid (buffer-less) join between two buses of the same cluster."""

    bus_a: str
    bus_b: str

    def __post_init__(self) -> None:
        if self.bus_a == self.bus_b:
            raise TopologyError("bus link must join two distinct buses")


@dataclass(frozen=True)
class Flow:
    """A unidirectional traffic flow between two processors."""

    name: str
    source: str
    destination: str
    traffic: TrafficDescriptor

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("flow name must be non-empty")
        if self.source == self.destination:
            raise TopologyError(
                f"flow {self.name!r}: source equals destination"
            )

    @property
    def rate(self) -> float:
        """Mean request rate of the flow."""
        return self.traffic.mean_rate


@dataclass(frozen=True)
class Route:
    """The path a flow takes: clusters visited and bridges crossed.

    ``clusters[i]`` is traversed before ``bridges[i]``, which leads into
    ``clusters[i + 1]``; hence ``len(clusters) == len(bridges) + 1``.
    """

    clusters: Tuple[frozenset, ...]
    bridges: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.clusters) != len(self.bridges) + 1:
            raise TopologyError("malformed route")

    @property
    def crosses_bridge(self) -> bool:
        """Whether the flow leaves its source cluster at all."""
        return bool(self.bridges)


class Topology:
    """A complete communication sub-system description."""

    def __init__(self, name: str = "soc") -> None:
        if not name:
            raise TopologyError("topology name must be non-empty")
        self.name = name
        self.buses: Dict[str, Bus] = {}
        self.processors: Dict[str, Processor] = {}
        self.bridges: Dict[str, Bridge] = {}
        self.links: List[BusLink] = []
        self.flows: Dict[str, Flow] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_bus(self, name: str) -> Bus:
        """Register a bus."""
        if name in self.buses:
            raise TopologyError(f"duplicate bus {name!r}")
        bus = Bus(name)
        self.buses[name] = bus
        return bus

    def add_processor(
        self,
        name: str,
        bus: str,
        service_rate: float,
        loss_weight: float = 1.0,
    ) -> Processor:
        """Attach a processor to an existing bus."""
        if name in self.processors:
            raise TopologyError(f"duplicate processor {name!r}")
        if bus not in self.buses:
            raise TopologyError(
                f"processor {name!r} references unknown bus {bus!r}"
            )
        proc = Processor(name, bus, service_rate, loss_weight)
        self.processors[name] = proc
        return proc

    def add_bridge(
        self,
        name: str,
        bus_a: str,
        bus_b: str,
        service_rate: float,
        loss_weight: float = 1.0,
    ) -> Bridge:
        """Join two existing buses through a bridge."""
        if name in self.bridges:
            raise TopologyError(f"duplicate bridge {name!r}")
        for bus in (bus_a, bus_b):
            if bus not in self.buses:
                raise TopologyError(
                    f"bridge {name!r} references unknown bus {bus!r}"
                )
        bridge = Bridge(name, bus_a, bus_b, service_rate, loss_weight)
        self.bridges[name] = bridge
        return bridge

    def add_link(self, bus_a: str, bus_b: str) -> BusLink:
        """Rigidly join two buses into the same cluster."""
        for bus in (bus_a, bus_b):
            if bus not in self.buses:
                raise TopologyError(
                    f"bus link references unknown bus {bus!r}"
                )
        link = BusLink(bus_a, bus_b)
        self.links.append(link)
        return link

    def add_flow(
        self,
        name: str,
        source: str,
        destination: str,
        traffic: TrafficDescriptor,
    ) -> Flow:
        """Declare a traffic flow between two existing processors."""
        if name in self.flows:
            raise TopologyError(f"duplicate flow {name!r}")
        for proc in (source, destination):
            if proc not in self.processors:
                raise TopologyError(
                    f"flow {name!r} references unknown processor {proc!r}"
                )
        flow = Flow(name, source, destination, traffic)
        self.flows[name] = flow
        return flow

    def add_poisson_flow(
        self, name: str, source: str, destination: str, rate: float
    ) -> Flow:
        """Shorthand for the common Poisson flow."""
        return self.add_flow(name, source, destination, PoissonTraffic(rate))

    # ------------------------------------------------------------------
    # Graph queries
    # ------------------------------------------------------------------

    def _cluster_index(self) -> Tuple[List[frozenset], Dict[str, int]]:
        """Bus clusters and each bus's position among them.

        Union-find over the links; clusters sorted by smallest bus name.
        """
        parent = {bus: bus for bus in self.buses}

        def find(bus: str) -> str:
            while parent[bus] != bus:
                parent[bus] = parent[parent[bus]]
                bus = parent[bus]
            return bus

        for link in self.links:
            parent[find(link.bus_a)] = find(link.bus_b)
        members: Dict[str, List[str]] = {}
        for bus in self.buses:
            members.setdefault(find(bus), []).append(bus)
        clusters = sorted((frozenset(m) for m in members.values()), key=min)
        index = {bus: i for i, c in enumerate(clusters) for bus in c}
        return clusters, index

    def bus_clusters(self) -> List[frozenset]:
        """Bus clusters: components after cutting every bridge.

        Each cluster is one linear subsystem of the split method;
        deterministic order (by smallest bus name) for reproducibility.
        """
        return self._cluster_index()[0]

    def cluster_of_bus(self, bus: str) -> frozenset:
        """The cluster containing a bus."""
        if bus not in self.buses:
            raise TopologyError(f"unknown bus {bus!r}")
        clusters, index = self._cluster_index()
        return clusters[index[bus]]

    def cluster_processors(self, cluster: frozenset) -> List[Processor]:
        """Processors attached to any bus of a cluster, sorted by name."""
        procs = [
            p for p in self.processors.values() if p.bus in cluster
        ]
        return sorted(procs, key=lambda p: p.name)

    def cluster_bridges(self, cluster: frozenset) -> List[Bridge]:
        """Bridges with at least one endpoint in the cluster, sorted."""
        bridges = [
            b
            for b in self.bridges.values()
            if b.bus_a in cluster or b.bus_b in cluster
        ]
        return sorted(bridges, key=lambda b: b.name)

    def route(self, flow_name: str) -> Route:
        """Route of a flow: the clusters visited and bridges crossed.

        Shortest path on the *cluster graph* whose edges are bridges.
        When several shortest paths exist (parallel bridges, as between
        buses b and d via f or g in the paper's Figure 1), flows are
        spread across them deterministically by a stable digest of the
        flow name — each flow always takes the same path, and different
        flows balance over the alternatives, matching the paper's setup
        where both intermediate buses carry traffic.

        Raises
        ------
        TopologyError
            If no path exists between the two processors' clusters.
        """
        if flow_name not in self.flows:
            raise TopologyError(f"unknown flow {flow_name!r}")
        flow = self.flows[flow_name]
        clusters, index = self._cluster_index()
        src = index[self.processors[flow.source].bus]
        dst = index[self.processors[flow.destination].bus]
        if src == dst:
            return Route(clusters=(clusters[src],), bridges=())
        # Cluster multigraph: one edge per bridge, so parallel bridges
        # between the same cluster pair count as distinct paths.  A
        # bridge inside one cluster is a self-loop no shortest path uses.
        edges: List[List[Tuple[str, int]]] = [[] for _ in clusters]
        for bridge in self.bridges.values():
            a, b = index[bridge.bus_a], index[bridge.bus_b]
            if a != b:
                edges[a].append((bridge.name, b))
                edges[b].append((bridge.name, a))
        depth = {src: 0}
        frontier = [src]
        while frontier and dst not in depth:
            reached = []
            for node in frontier:
                for _name, other in edges[node]:
                    if other not in depth:
                        depth[other] = depth[node] + 1
                        reached.append(other)
            frontier = reached
        if dst not in depth:
            raise TopologyError(
                f"flow {flow_name!r}: no bridge path between clusters"
            )
        # Every shortest path, grown backwards from the destination one
        # bridge at a time through clusters one hop closer to the source.
        candidates: List[Tuple[Tuple[int, ...], Tuple[str, ...]]] = [
            ((dst,), ())
        ]
        for _hop in range(depth[dst]):
            candidates = [
                ((other,) + nodes, (name,) + bridges)
                for nodes, bridges in candidates
                for name, other in edges[nodes[0]]
                if depth.get(other) == depth[nodes[0]] - 1
            ]
        candidates.sort(key=lambda item: item[1])
        digest = sum(flow_name.encode("utf-8")) * 2654435761 % 2**32
        chosen_nodes, chosen_bridges = candidates[digest % len(candidates)]
        return Route(
            clusters=tuple(clusters[node] for node in chosen_nodes),
            bridges=chosen_bridges,
        )

    # ------------------------------------------------------------------
    # Aggregates used by the sizing pipeline
    # ------------------------------------------------------------------

    def processor_offered_rate(self, processor: str) -> float:
        """Total mean rate the processor offers to its bus buffer."""
        if processor not in self.processors:
            raise TopologyError(f"unknown processor {processor!r}")
        return sum(
            f.rate for f in self.flows.values() if f.source == processor
        )

    def total_offered_rate(self) -> float:
        """Sum of all flow mean rates."""
        return sum(f.rate for f in self.flows.values())

    def validate(self) -> None:
        """Structural validation of the whole description.

        Raises
        ------
        TopologyError
            If any bus has neither processors nor bridges, any processor
            sends no flow *and* receives none (a dead component is allowed
            only if it also has zero loss weight), or any flow cannot be
            routed.
        """
        if not self.buses:
            raise TopologyError("topology has no buses")
        if not self.processors:
            raise TopologyError("topology has no processors")
        used_buses = {p.bus for p in self.processors.values()}
        for bridge in self.bridges.values():
            used_buses.add(bridge.bus_a)
            used_buses.add(bridge.bus_b)
        for link in self.links:
            used_buses.add(link.bus_a)
            used_buses.add(link.bus_b)
        orphans = set(self.buses) - used_buses
        if orphans:
            raise TopologyError(
                f"buses with no processors, bridges or links: {sorted(orphans)}"
            )
        for flow_name in self.flows:
            self.route(flow_name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.name!r}: {len(self.buses)} buses, "
            f"{len(self.processors)} processors, "
            f"{len(self.bridges)} bridges, {len(self.flows)} flows)"
        )


def processor_names(topology: Topology) -> List[str]:
    """Processor names of any topology in report order.

    Numeric where names carry numbers (p1, p2, ..., p17 — the netproc
    testbed and the single-bus family), lexicographic otherwise (cpu,
    dma, ... on the template scenarios).  Every scenario-generic driver
    uses this ordering for its per-processor tables and bars.
    """
    def sort_key(name: str):
        digits = "".join(ch for ch in name if ch.isdigit())
        return (int(digits) if digits else 0, name)

    return sorted(topology.processors, key=sort_key)


def rebuilt_topology(
    topology: Topology,
    name: Optional[str] = None,
    flow_traffic=None,
    processor_loss_weight=None,
) -> Topology:
    """Structure-preserving copy with optional per-element transforms.

    Buses, links, bridges and processors are copied verbatim;
    ``flow_traffic(flow) -> TrafficDescriptor`` replaces each flow's
    traffic (load scaling, burstification) and
    ``processor_loss_weight(processor) -> float`` replaces each
    processor's loss weight (the weighted-loss extension).  The single
    copy loop every transform shares — so a new structural attribute
    only needs mirroring here.  The result is validated.
    """
    rebuilt = Topology(topology.name if name is None else name)
    for bus in topology.buses.values():
        rebuilt.add_bus(bus.name)
    for link in topology.links:
        rebuilt.add_link(link.bus_a, link.bus_b)
    for bridge in topology.bridges.values():
        rebuilt.add_bridge(
            bridge.name,
            bridge.bus_a,
            bridge.bus_b,
            service_rate=bridge.service_rate,
            loss_weight=bridge.loss_weight,
        )
    for proc in topology.processors.values():
        rebuilt.add_processor(
            proc.name,
            proc.bus,
            proc.service_rate,
            (
                proc.loss_weight
                if processor_loss_weight is None
                else processor_loss_weight(proc)
            ),
        )
    for flow in topology.flows.values():
        rebuilt.add_flow(
            flow.name,
            flow.source,
            flow.destination,
            flow.traffic if flow_traffic is None else flow_traffic(flow),
        )
    rebuilt.validate()
    return rebuilt

"""A small textual format for communication architectures.

Real sizing tools are driven by architecture files, not Python; this
module defines a line-oriented description the CLI consumes and a
serialiser so any :class:`~repro.arch.topology.Topology` round-trips.

Grammar (one directive per line, ``#`` comments)::

    soc <name>
    bus <name>
    link <bus_a> <bus_b>
    bridge <name> <bus_a> <bus_b> service=<rate> [weight=<w>]
    processor <name> <bus> service=<rate> [weight=<w>]
    flow <name> <source> <destination> rate=<rate>
    flow <name> <source> <destination> onoff peak=<r> on=<t> off=<t>
    flow <name> <source> <destination> hyper r1=<r> r2=<r> p1=<p>

Example::

    soc amba-mini
    bus ahb
    bus apb
    bridge ahb2apb ahb apb service=3.0
    processor cpu ahb service=10.0
    processor uart apb service=2.0 weight=2.0
    flow cpu_uart cpu uart rate=0.8
"""

from __future__ import annotations

from typing import Dict, List

from repro.arch.topology import Topology
from repro.arch.traffic import (
    HyperexponentialTraffic,
    OnOffTraffic,
    PoissonTraffic,
)
from repro.errors import TopologyError


def _parse_kwargs(tokens: List[str], line_no: int) -> Dict[str, str]:
    kwargs: Dict[str, str] = {}
    for token in tokens:
        if "=" not in token:
            raise TopologyError(
                f"line {line_no}: expected key=value, got {token!r}"
            )
        key, value = token.split("=", 1)
        if key in kwargs:
            raise TopologyError(
                f"line {line_no}: duplicate key {key!r}"
            )
        kwargs[key] = value
    return kwargs


def _float(kwargs: Dict[str, str], key: str, line_no: int) -> float:
    if key not in kwargs:
        raise TopologyError(f"line {line_no}: missing {key}=")
    try:
        return float(kwargs[key])
    except ValueError:
        raise TopologyError(
            f"line {line_no}: {key}={kwargs[key]!r} is not a number"
        ) from None


def parse_topology(text: str) -> Topology:
    """Parse the DSL into a validated topology.

    Raises
    ------
    TopologyError
        On any syntax or semantic error, with the offending line number.
    """
    topo: Topology | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive == "soc":
            if topo is not None:
                raise TopologyError(
                    f"line {line_no}: duplicate 'soc' directive"
                )
            if len(args) != 1:
                raise TopologyError(f"line {line_no}: soc takes one name")
            topo = Topology(args[0])
            continue
        if topo is None:
            raise TopologyError(
                f"line {line_no}: first directive must be 'soc <name>'"
            )
        if directive == "bus":
            if len(args) != 1:
                raise TopologyError(f"line {line_no}: bus takes one name")
            topo.add_bus(args[0])
        elif directive == "link":
            if len(args) != 2:
                raise TopologyError(f"line {line_no}: link takes two buses")
            topo.add_link(args[0], args[1])
        elif directive == "bridge":
            if len(args) < 3:
                raise TopologyError(
                    f"line {line_no}: bridge <name> <bus_a> <bus_b> service=.."
                )
            kwargs = _parse_kwargs(args[3:], line_no)
            topo.add_bridge(
                args[0],
                args[1],
                args[2],
                service_rate=_float(kwargs, "service", line_no),
                loss_weight=float(kwargs.get("weight", 1.0)),
            )
        elif directive == "processor":
            if len(args) < 2:
                raise TopologyError(
                    f"line {line_no}: processor <name> <bus> service=.."
                )
            kwargs = _parse_kwargs(args[2:], line_no)
            topo.add_processor(
                args[0],
                args[1],
                service_rate=_float(kwargs, "service", line_no),
                loss_weight=float(kwargs.get("weight", 1.0)),
            )
        elif directive == "flow":
            if len(args) < 3:
                raise TopologyError(
                    f"line {line_no}: flow <name> <src> <dst> ..."
                )
            name, source, destination = args[0], args[1], args[2]
            rest = args[3:]
            if rest and rest[0] == "onoff":
                kwargs = _parse_kwargs(rest[1:], line_no)
                traffic = OnOffTraffic(
                    peak_rate=_float(kwargs, "peak", line_no),
                    mean_on=_float(kwargs, "on", line_no),
                    mean_off=_float(kwargs, "off", line_no),
                )
            elif rest and rest[0] == "hyper":
                kwargs = _parse_kwargs(rest[1:], line_no)
                traffic = HyperexponentialTraffic(
                    rate1=_float(kwargs, "r1", line_no),
                    rate2=_float(kwargs, "r2", line_no),
                    phase1_prob=_float(kwargs, "p1", line_no),
                )
            else:
                kwargs = _parse_kwargs(rest, line_no)
                traffic = PoissonTraffic(_float(kwargs, "rate", line_no))
            topo.add_flow(name, source, destination, traffic)
        else:
            raise TopologyError(
                f"line {line_no}: unknown directive {directive!r}"
            )
    if topo is None:
        raise TopologyError("empty architecture description")
    topo.validate()
    return topo


def _number(value: float) -> str:
    """A rate or weight as the parser reads it back, bit for bit.

    Generated topologies carry numpy scalars, whose ``repr`` is
    ``np.float64(...)`` rather than a plain literal.
    """
    return repr(float(value))


def serialize_topology(topology: Topology) -> str:
    """Serialise a topology back into the DSL.

    Only the traffic models the DSL can express are supported; custom
    :class:`~repro.arch.traffic.TrafficDescriptor` subclasses raise.
    """
    lines: List[str] = [f"soc {topology.name}"]
    for bus in topology.buses.values():
        lines.append(f"bus {bus.name}")
    for link in topology.links:
        lines.append(f"link {link.bus_a} {link.bus_b}")
    for bridge in sorted(topology.bridges.values(), key=lambda b: b.name):
        lines.append(
            f"bridge {bridge.name} {bridge.bus_a} {bridge.bus_b} "
            f"service={_number(bridge.service_rate)} "
            f"weight={_number(bridge.loss_weight)}"
        )
    for proc in sorted(topology.processors.values(), key=lambda p: p.name):
        lines.append(
            f"processor {proc.name} {proc.bus} "
            f"service={_number(proc.service_rate)} "
            f"weight={_number(proc.loss_weight)}"
        )
    for flow in sorted(topology.flows.values(), key=lambda f: f.name):
        traffic = flow.traffic
        if isinstance(traffic, PoissonTraffic):
            spec = f"rate={_number(traffic.rate)}"
        elif isinstance(traffic, OnOffTraffic):
            spec = (
                f"onoff peak={_number(traffic.peak_rate)} "
                f"on={_number(traffic.mean_on)} "
                f"off={_number(traffic.mean_off)}"
            )
        elif isinstance(traffic, HyperexponentialTraffic):
            spec = (
                f"hyper r1={_number(traffic.rate1)} "
                f"r2={_number(traffic.rate2)} "
                f"p1={_number(traffic.phase1_prob)}"
            )
        else:
            raise TopologyError(
                f"flow {flow.name!r}: traffic {type(traffic).__name__} "
                "cannot be serialised to the DSL"
            )
        lines.append(
            f"flow {flow.name} {flow.source} {flow.destination} {spec}"
        )
    return "\n".join(lines) + "\n"

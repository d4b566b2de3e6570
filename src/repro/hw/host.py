"""The host computer: PPP hub, frame source, and result sink.

The paper's host (§4.2) is a PC with one USB/serial adaptor per Itsy,
one PPP network per port, and IP forwarding so the Itsys can talk to
each other "transparently". The host is mains-powered — it has no
battery and its power draw is out of scope.

Because every Itsy is IP-reachable from every other one through the
hub, the topology is a logical *full mesh* over a physical star:
:meth:`HostHub.link` lazily creates the point-to-point link between any
two actors. Node rotation (§5.5) depends on this — after a rotation the
pipeline's first stage lives on a different physical node, which then
talks to the host over its own serial port.

Timing note: although inter-node IP packets physically traverse two
serial hops (node -> host -> node), the paper's measured profile and
timing diagrams (Figs. 3, 6) show inter-node transactions costing a
*single* serial transaction, i.e. the host forwards cut-through at line
rate. ``HostHub`` therefore times inter-node links like host links by
default; pass ``store_and_forward=True`` to double inter-node cost
instead (used by an ablation bench).
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.errors import LinkError
from repro.hw.link import PAPER_LINK_TIMING, SerialLink, TransactionTiming
from repro.sim import Simulator

__all__ = ["HostHub", "HOST_NAME", "store_and_forward_timing"]

#: Reserved actor name for the host computer.
HOST_NAME = "host"


def store_and_forward_timing(timing: TransactionTiming) -> TransactionTiming:
    """Per-hop timing for a store-and-forward inter-node edge.

    Two serial transactions back to back: double startup, half the
    effective bandwidth, double jitter spread.
    """
    return TransactionTiming(
        bandwidth_bps=timing.bandwidth_bps / 2.0,
        startup_s=timing.startup_s * 2.0,
        startup_jitter_s=timing.startup_jitter_s * 2.0,
        corruption_prob=timing.corruption_prob,
    )


class HostHub:
    """Owns the serial-link topology between the host and the nodes.

    Parameters
    ----------
    sim:
        Owning simulator.
    node_names:
        All participating node names (pipeline order is a concern of
        the engine, not the topology).
    timing:
        Per-hop transaction timing.
    store_and_forward:
        If True, inter-node hops pay two serial transactions
        (node->host plus host->node) instead of cut-through forwarding.
    rng:
        RNG stream for startup jitter.
    obs:
        Optional telemetry event bus handed to every lazily created
        link (see :class:`~repro.hw.link.SerialLink`).
    """

    def __init__(
        self,
        sim: Simulator,
        node_names: t.Sequence[str],
        timing: TransactionTiming = PAPER_LINK_TIMING,
        store_and_forward: bool = False,
        rng: np.random.Generator | None = None,
        obs: t.Any = None,
    ):
        if not node_names:
            raise LinkError("at least one node is required")
        if len(set(node_names)) != len(node_names):
            raise LinkError(f"duplicate node names: {list(node_names)}")
        if HOST_NAME in node_names:
            raise LinkError(f"{HOST_NAME!r} is reserved for the host")
        self.sim = sim
        self.node_names = list(node_names)
        self.timing = timing
        self.store_and_forward = store_and_forward
        self.rng = rng
        self.obs = obs if obs else None
        self._links: dict[frozenset[str], SerialLink] = {}
        # (a, b) -> link, for pairs already validated: the pipeline looks
        # up the same few pairs on every frame.
        self._pairs: dict[tuple[str, str], SerialLink] = {}

        self._inter_timing = (
            store_and_forward_timing(timing) if store_and_forward else timing
        )

    # -- topology -----------------------------------------------------------
    def link(self, a: str, b: str) -> SerialLink:
        """The (lazily created) link between actors ``a`` and ``b``.

        Either actor may be :data:`HOST_NAME`. The same pair always
        returns the same link object regardless of argument order.
        """
        pair = self._pairs.get((a, b))
        if pair is not None:
            return pair
        for name in (a, b):
            if name != HOST_NAME and name not in self.node_names:
                raise LinkError(f"unknown actor {name!r}; have {self.node_names} + host")
        if a == b:
            raise LinkError(f"cannot link {a!r} to itself")
        key = frozenset((a, b))
        if key not in self._links:
            timing = self.timing if HOST_NAME in key else self._inter_timing
            self._links[key] = SerialLink(
                self.sim, a, b, timing, self.rng, obs=self.obs
            )
        link = self._pairs[a, b] = self._links[key]
        return link

    def host_link(self, node: str) -> SerialLink:
        """The node's own serial port to the host."""
        return self.link(HOST_NAME, node)

    def all_links(self) -> list[SerialLink]:
        """Every link created so far."""
        return list(self._links.values())

    def total_bytes_moved(self) -> int:
        """Aggregate payload bytes across all links and directions."""
        return sum(
            sum(link.bytes_moved.values()) for link in self._links.values()
        )

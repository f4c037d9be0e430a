"""The paper's contribution: SPMS, plus the SPIN baseline and helpers.

Public surface:

* :class:`~repro.core.metadata.DataDescriptor` / :class:`~repro.core.metadata.DataItem`
  — meta-data naming of sensor data, the basis of SPIN/SPMS negotiation.
* :class:`~repro.core.packets.Packet` — ADV / REQ / DATA packets.
* :class:`~repro.core.cache.DataCache` — per-node data store, keyed by
  meta-data name, consulted during negotiation.
* :class:`~repro.core.interests.InterestModel` implementations — which nodes
  want which data (all-to-all, or an explicit set per item for cluster-head
  collection).
* :class:`~repro.core.network.Network` — the glue object that wires the
  simulator, field, radio, MAC and failure state together and delivers
  packets between protocol nodes.
* :class:`~repro.core.spms.SpmsNode` — Shortest Path Minded SPIN, the paper's
  protocol, with PRONE/SCONE fail-over and multi-hop minimum-power routing.
* :class:`~repro.core.spin.SpinNode` — the SPIN baseline.
* :class:`~repro.core.flooding.FloodingNode` and
  :class:`~repro.core.gossip.GossipNode` — classic dissemination baselines.

Protocols are instantiated by name through the component registry in
:mod:`repro.build`.
"""

from repro.core.cache import DataCache
from repro.core.flooding import FloodingNode
from repro.core.gossip import GossipNode
from repro.core.interests import (
    AllInterested,
    ExplicitInterest,
    InterestModel,
)
from repro.core.metadata import DataDescriptor, DataItem
from repro.core.network import Network
from repro.core.node_base import ProtocolNode
from repro.core.packets import Packet, PacketType
from repro.core.spin import SpinNode
from repro.core.spms import SpmsNode

__all__ = [
    "AllInterested",
    "DataCache",
    "DataDescriptor",
    "DataItem",
    "ExplicitInterest",
    "FloodingNode",
    "GossipNode",
    "InterestModel",
    "Network",
    "Packet",
    "PacketType",
    "ProtocolNode",
    "SpinNode",
    "SpmsNode",
]

"""OpenFlow 1.0 style control plane substrate.

* :mod:`repro.openflow.messages` — the message subset the runs exchange
  (PacketIn, FlowMod, PacketOut, Heartbeat and the controller shards'
  lease and ownership messages).
* :mod:`repro.openflow.channel` — a latency-modelled control channel
  between one switch and one controller.

The controllers that speak over it live in :mod:`repro.baselines.nox`
(reactive, with a CPU queue on the packet path) and
:mod:`repro.core.controller` (proactive, off the packet path).
"""

from repro.openflow.messages import (
    FlowMod,
    FlowModCommand,
    Heartbeat,
    Message,
    PacketIn,
    PacketOut,
)
from repro.openflow.channel import ChannelFaultModel, ControlChannel

__all__ = [
    "Message",
    "PacketIn",
    "PacketOut",
    "FlowMod",
    "FlowModCommand",
    "Heartbeat",
    "ChannelFaultModel",
    "ControlChannel",
]

"""Scheduled bursts: a :class:`~repro.flowspace.batch.PacketBatch` and
the instant and ingress switch it enters at.

The burst-driven soaks (:func:`repro.workloads.streaming.epoch_bursts`)
emit one :class:`TimedBatch` per (instant, ingress switch);
:meth:`DifaneNetwork.send_batch_at` schedules it as one event, and every
packet of it then takes the per-packet path.
"""

from __future__ import annotations

from repro.flowspace.batch import PacketBatch

__all__ = ["TimedBatch"]


class TimedBatch:
    """One scheduled same-instant burst at an ingress switch."""

    __slots__ = ("time", "switch", "batch")

    def __init__(self, time: float, switch: str, batch: PacketBatch):
        self.time = time
        self.switch = switch
        self.batch = batch

    def __len__(self) -> int:
        return len(self.batch)

    def __repr__(self) -> str:
        return f"<TimedBatch t={self.time} switch={self.switch} n={len(self.batch)}>"

"""Message-passing network model with latency and bandwidth.

File transfers in FileInsurer are bounded by ``DelayPerSize * f.size``; a
transfer that exceeds the bound counts as failed (the provider never
confirms).  This module models point-to-point transfers with per-link
latency and bandwidth so the scenario harness can decide whether a transfer
beats its deadline, and counts the bytes moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.prng import DeterministicPRNG

__all__ = ["LatencyModel", "NetworkMessage", "SimulatedNetwork"]


@dataclass(frozen=True)
class LatencyModel:
    """Per-link latency and bandwidth parameters.

    ``bandwidth_bytes_per_s`` caps throughput; ``base_latency_s`` is the
    fixed per-message overhead; ``jitter_fraction`` adds deterministic
    pseudo-random jitter so transfers are not all identical.
    """

    base_latency_s: float = 0.05
    bandwidth_bytes_per_s: float = 100 * 1024 * 1024
    jitter_fraction: float = 0.1

    def transfer_time(self, size: int, prng: Optional[DeterministicPRNG] = None) -> float:
        """Seconds needed to move ``size`` bytes over one link."""
        if size < 0:
            raise ValueError("size must be non-negative")
        base = self.base_latency_s + size / self.bandwidth_bytes_per_s
        if prng is None or self.jitter_fraction <= 0:
            return base
        jitter = 1.0 + self.jitter_fraction * (2.0 * prng.random() - 1.0)
        return base * jitter


@dataclass
class NetworkMessage:
    """One point-to-point message/transfer."""

    sender: str
    receiver: str
    size: int
    sent_at: float
    delivered_at: float

    @property
    def duration(self) -> float:
        """Transfer duration in seconds."""
        return self.delivered_at - self.sent_at


class SimulatedNetwork:
    """Tracks transfers between named nodes and their delivery times."""

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        seed: int = 11,
    ) -> None:
        self.latency = latency or LatencyModel()
        self.prng = DeterministicPRNG.from_int(seed, domain="network-jitter")
        self.bytes_transferred = 0
        #: Nodes listed here drop every transfer (partitioned / offline).
        self.offline: set[str] = set()

    # ------------------------------------------------------------------
    # Node availability
    # ------------------------------------------------------------------
    def set_offline(self, node: str, offline: bool = True) -> None:
        """Mark a node as offline (its transfers fail) or back online."""
        if offline:
            self.offline.add(node)
        else:
            self.offline.discard(node)

    def is_online(self, node: str) -> bool:
        """True if the node can send and receive."""
        return node not in self.offline

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def transfer(
        self, sender: str, receiver: str, size: int, now: float
    ) -> Optional[NetworkMessage]:
        """Attempt a transfer; returns the message or None if either end is offline."""
        if not self.is_online(sender) or not self.is_online(receiver):
            return None
        duration = self.latency.transfer_time(size, self.prng)
        message = NetworkMessage(
            sender=sender,
            receiver=receiver,
            size=size,
            sent_at=now,
            delivered_at=now + duration,
        )
        self.bytes_transferred += size
        return message

    def meets_deadline(self, message: Optional[NetworkMessage], deadline: float) -> bool:
        """True if the transfer completed by ``deadline`` (None never does)."""
        return message is not None and message.delivered_at <= deadline

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def total_bytes_transferred(self) -> int:
        """Sum of all delivered transfer sizes."""
        return self.bytes_transferred

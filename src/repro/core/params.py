"""Protocol parameters for FileInsurer.

Collects every constant from Table I and Table II of the paper plus the
economic parameters of Section IV, with the defaults used in the paper's
concrete examples (k = 20, Ns = 1e6, capPara = 1e3, c = 1e-18).  A single
:class:`ProtocolParams` instance is shared by the protocol state machine,
the analysis module and the experiment harnesses so that an experiment's
configuration is always explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ProtocolParams", "GIB"]

GIB = 1 << 30


@dataclass(frozen=True)
class ProtocolParams:
    """All protocol constants.

    Sizes are in bytes, values in integer multiples of ``min_value`` tokens,
    and times in seconds of simulated time.
    """

    # --- Storage granularity (Table II) ---------------------------------
    #: Minimum sector capacity; every sector is an integer multiple of it.
    #: The paper suggests 64 GiB; experiments shrink it to keep runs fast.
    min_capacity: int = 64 * GIB
    #: Minimum file value; every file value is an integer multiple of it.
    min_value: int = 1
    #: Replicas stored for a file of value ``min_value`` (k in the paper).
    k: int = 20
    #: capPara = Nm_v / Ns, the designed file-value units per sector unit.
    cap_para: float = 1000.0
    #: Security parameter c (failure probability budget), 1e-18 in the paper.
    security_c: float = 1e-18
    #: Required redundancy: total capacity must be at least this factor
    #: times the total size of all replicas (the paper requires 2).
    redundancy_factor: float = 2.0

    # --- Timing (Table I) -------------------------------------------------
    #: Maximum transmit time allowed per byte of file size.
    delay_per_size: float = 1e-6
    #: Time between inspection proofs (one checkpoint).
    proof_cycle: float = 3600.0
    #: Mean number of proof cycles between storage refreshes of a file.
    avg_refresh: float = 100.0
    #: Proof older than this triggers a punishment.
    proof_due: float = 2 * 3600.0
    #: Proof older than this marks the sector corrupted and liquidates it.
    proof_deadline: float = 6 * 3600.0

    # --- Economics (Section IV-A/B) ----------------------------------------
    #: Deposit ratio gamma_deposit: total deposits / maximum storable value.
    deposit_ratio: float = 0.0046
    #: Storage rent per byte of replica per proof cycle, in tokens.
    rent_per_byte_cycle: float = 1e-9
    #: Traffic fee per byte transmitted, in tokens.
    traffic_fee_per_byte: float = 1e-9
    #: Token punishment for a late (but not fatal) proof.
    late_proof_penalty: int = 10
    #: Token punishment for failing to confirm a refresh swap.
    refresh_failure_penalty: int = 20
    #: Length of one revenue-distribution period, in seconds.
    rent_period: float = 24 * 3600.0
    #: Size of a Capacity Replica used by DRep, in bytes.
    capacity_replica_size: int = 1 * GIB
    #: Maximum size of a single file before erasure segmentation applies.
    size_limit: int = 8 * GIB

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def replica_count(self, value: int) -> int:
        """Number of replicas for a file of ``value``: ``(value/minValue) * k``.

        Section IV-C: ``f.cp = f.value / minValue * k``; values must be
        integer multiples of ``min_value``.
        """
        if value <= 0 or value % self.min_value != 0:
            raise ValueError(
                f"file value must be a positive multiple of min_value={self.min_value}"
            )
        return (value // self.min_value) * self.k

    def sector_deposit(self, capacity: int) -> int:
        """Deposit pledged when registering a sector of ``capacity`` bytes.

        Section IV-B: the sector's share of the network-wide deposit
        ``gamma_deposit * Nm_v * minValue``, proportional to its capacity,
        which reduces to
        ``capacity * gamma_deposit * capPara * minValue / minCapacity``.
        """
        if capacity <= 0 or capacity % self.min_capacity != 0:
            raise ValueError(
                "sector capacity must be a positive multiple of min_capacity"
            )
        per_unit = self.deposit_ratio * self.cap_para * self.min_value
        deposit = per_unit * (capacity / self.min_capacity)
        return max(1, int(round(deposit)))

    def transfer_deadline(self, size: int) -> float:
        """Upper bound on the time allowed to transmit ``size`` bytes."""
        return self.delay_per_size * size

    def rent_for_cycle(self, size: int, replica_count: int) -> int:
        """Storage rent for one proof cycle of a file.

        Proportional to file size times the number of replicas (Section
        IV-A2); rounded up so that rent is never zero for a non-empty file.
        """
        raw = self.rent_per_byte_cycle * size * replica_count
        return max(1, int(round(raw))) if size > 0 else 0

    def traffic_fee(self, size: int) -> int:
        """Traffic fee for transmitting ``size`` bytes."""
        if size <= 0:
            return 0
        return max(1, int(round(self.traffic_fee_per_byte * size)))

    def max_value_capacity(self, total_sector_capacity: int) -> int:
        """Maximum total file value (``Nm_v * minValue``) for a given capacity.

        ``Nm_v = capPara * Ns`` where ``Ns = capacity / minCapacity``.
        """
        ns = total_sector_capacity / self.min_capacity
        return int(self.cap_para * ns * self.min_value)

    def scaled(self, **overrides) -> "ProtocolParams":
        """Return a copy with selected fields overridden (for experiments)."""
        return replace(self, **overrides)

    @classmethod
    def small_test(cls) -> "ProtocolParams":
        """Small, fast parameters for unit tests and examples.

        Keeps the same ratios as the paper but shrinks sizes so that whole
        deployments fit comfortably in memory: 1 MiB minimum sectors, 64 KiB
        capacity replicas, k = 3 and short proof cycles.
        """
        return cls(
            min_capacity=1 << 20,
            capacity_replica_size=64 << 10,
            size_limit=1 << 19,
            k=3,
            cap_para=10.0,
            deposit_ratio=0.05,
            delay_per_size=1e-3,
            proof_cycle=60.0,
            avg_refresh=5.0,
            proof_due=120.0,
            proof_deadline=300.0,
            rent_period=600.0,
            rent_per_byte_cycle=1e-6,
            traffic_fee_per_byte=1e-6,
        )

"""Core FileInsurer protocol package.

The public API of the paper's primary contribution:

* :class:`~repro.core.params.ProtocolParams` -- every protocol constant.
* :class:`~repro.core.protocol.FileInsurerProtocol` -- the on-chain state
  machine (File / Sector / Auto protocols, deposits, compensation, fees).
* :mod:`~repro.core.analysis` -- Theorems 1-4 in closed form.
* :class:`~repro.core.drep.SectorContentPlan` -- the DRep sector content
  model.
* :class:`~repro.core.large_files.LargeFileCodec` -- erasure segmentation
  of oversized files.
"""

from repro.core.allocation import AllocEntry, AllocState, AllocationTable
from repro.core.analysis import (
    FilePopulation,
    theorem1_max_storable_size,
    theorem2_collision_probability_bound,
    theorem3_loss_ratio_bound,
    theorem4_deposit_ratio_bound,
)
from repro.core.deposit import CompensationShortfallError, InsuranceFund
from repro.core.drep import DRepCostModel, SectorContentPlan
from repro.core.events import EventLog, EventType, ProtocolEvent
from repro.core.fees import FeeEngine
from repro.core.file_descriptor import FileDescriptor, FileState
from repro.core.large_files import LargeFileCodec, SegmentedFile
from repro.core.params import ProtocolParams
from repro.core.pending import PendingList, PendingTask
from repro.core.protocol import FileInsurerProtocol, ProtocolError, RefreshNotice
from repro.core.sector import SectorRecord, SectorState
from repro.core.selector import CapacitySelector, SamplerInvariantError, WeightedSampler

__all__ = [
    "AllocEntry",
    "AllocState",
    "AllocationTable",
    "CapacitySelector",
    "CompensationShortfallError",
    "DRepCostModel",
    "EventLog",
    "EventType",
    "FeeEngine",
    "FileDescriptor",
    "FileInsurerProtocol",
    "FilePopulation",
    "FileState",
    "InsuranceFund",
    "LargeFileCodec",
    "PendingList",
    "PendingTask",
    "ProtocolError",
    "ProtocolEvent",
    "ProtocolParams",
    "RefreshNotice",
    "SectorContentPlan",
    "SectorRecord",
    "SectorState",
    "SegmentedFile",
    "SamplerInvariantError",
    "WeightedSampler",
    "theorem1_max_storable_size",
    "theorem2_collision_probability_bound",
    "theorem3_loss_ratio_bound",
    "theorem4_deposit_ratio_bound",
]

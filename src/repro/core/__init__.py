"""Core FileInsurer protocol package.

The public API of the paper's primary contribution:

* :class:`~repro.core.params.ProtocolParams` -- every protocol constant.
* :class:`~repro.core.columnar.ColumnarProtocol` -- the on-chain state
  machine (File / Sector / Auto protocols, deposits, compensation, fees)
  over columnar state.
* :class:`~repro.core.pending.PendingList` and
  :class:`~repro.core.events.EventLog` -- Figure 1's pending list as
  columns and the per-type event counters.
* :mod:`~repro.core.analysis` -- Theorems 1-4 in closed form.
* :class:`~repro.core.large_files.LargeFileCodec` -- erasure segmentation
  of oversized files.
"""

from repro.core.allocation import AllocState
from repro.core.analysis import (
    FilePopulation,
    theorem1_max_storable_size,
    theorem2_collision_probability_bound,
    theorem3_loss_ratio_bound,
    theorem4_deposit_ratio_bound,
)
from repro.core.columnar import ColumnarProtocol
from repro.core.deposit import CompensationShortfallError, InsuranceFund
from repro.core.events import EventLog, EventType
from repro.core.fees import FeeEngine
from repro.core.file_descriptor import FileState
from repro.core.large_files import LargeFileCodec, SegmentedFile
from repro.core.params import ProtocolParams
from repro.core.pending import PendingList
from repro.core.protocol import ProtocolError, RefreshNotice
from repro.core.sector import SectorState
from repro.core.selector import CapacitySelector, SamplerInvariantError, WeightedSampler

__all__ = [
    "AllocState",
    "CapacitySelector",
    "ColumnarProtocol",
    "CompensationShortfallError",
    "EventLog",
    "EventType",
    "FeeEngine",
    "FilePopulation",
    "FileState",
    "InsuranceFund",
    "LargeFileCodec",
    "PendingList",
    "ProtocolError",
    "ProtocolParams",
    "RefreshNotice",
    "SectorState",
    "SegmentedFile",
    "SamplerInvariantError",
    "WeightedSampler",
    "theorem1_max_storable_size",
    "theorem2_collision_probability_bound",
    "theorem3_loss_ratio_bound",
    "theorem4_deposit_ratio_bound",
]

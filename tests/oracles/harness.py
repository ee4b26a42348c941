"""The engine-differential harness: one deployment builder, one op
interpreter, and the identity engines must agree on.

* :func:`deploy` builds a funded deployment on either engine;
* :func:`apply` runs one op on it and returns the refusal message, if any;
* :func:`replay` runs an op list none of whose ops may be refused;
* :func:`identity` is what two engines must agree on after every op.

The engine differential is the state machine of
``tests/test_engine_machine.py``: one rule per op below, each rule one
:func:`apply` per engine, and starts that replay fixed op lists.  A new
differential is a rule or a start there, not a new test function or a
second interpreter.

The op vocabulary (sizes in bytes; a sector index ``i`` names the
``i``-th sector id in sorted order, modulo the sector count):

* ``("batch", sizes, value[, every])`` -- one ``file_add_batch``, then
  ``confirm_batch`` of every ``every``-th id (default 1: all of them; the
  other uploads stay unconfirmed and fail at their CheckAlloc);
* ``("add", size[, value])`` -- ``file_add``, every replica confirmed;
* ``("advance", seconds)`` -- the clock moves ``seconds`` on;
* ``("step",)`` -- exactly the tasks of the next pending time run;
* ``("crash", i)`` -- sector ``i`` collapses, detected (skipped if corrupted);
* ``("sick", i)`` / ``("crash_silent", i)`` -- sector ``i`` stops proving
  (a silent crash is a sick sector: the network only learns of it through
  the proofs it misses); ``("heal", i)`` -- it proves again;
* ``("crash_target",)`` -- the target of the oldest confirmed refresh
  still awaiting its CheckRefresh collapses;
* ``("discard", file_id)`` -- the client discards the file, if it exists;
* ``("disable", i)`` -- the owner disables sector ``i``;
* ``("confirm_refreshes"[, every])`` -- the target providers confirm every
  refresh still in flight (every ``every``-th one; the others stay silent).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.chain.ledger import Ledger
from repro.core.allocation import AllocState
from repro.core.columnar import ColumnarProtocol
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolError
from repro.crypto.prng import DeterministicPRNG

from oracles.kernel_oracle import BACKENDS
from oracles.protocol import FileInsurerProtocol, fingerprint

ENGINES = {"object": FileInsurerProtocol, "columnar": ColumnarProtocol}
ROOT = b"\x05" * 32
MB = 1 << 20


class Health:
    """The health oracle: every sector outside ``sick`` proves on time.

    Ops flip ``sick`` between ``advance_time`` calls only, so the oracle is
    pure within each sweep -- the contract the columnar engine's
    once-per-host consultation relies on.
    """

    def __init__(self) -> None:
        self.sick: set = set()

    def __call__(self, sector_id: str) -> bool:
        return sector_id not in self.sick


def deploy(
    engine="columnar",
    *,
    providers: int = 6,
    capacity_mb=10,
    charge_fees: bool = False,
    draw_batch: int = 1,
    backend="reference",
    seed: int = 11,
    **overrides,
):
    """``providers`` funded owners with one ``capacity_mb`` MiB sector each
    (one owner per size if ``capacity_mb`` is a tuple of sizes) and a funded
    ``client``, on ``ProtocolParams.small_test()`` scaled by ``overrides``.

    ``engine`` is a name of :data:`ENGINES` or a protocol class;
    ``backend`` a name of ``BACKENDS``, a kernel instance or ``None`` (the
    program's default).  Every sector proves until an op or a test adds
    it to ``protocol.health_oracle.sick``.
    """
    ledger = Ledger()
    protocol = ENGINES.get(engine, engine)(
        params=ProtocolParams.small_test().scaled(**overrides),
        ledger=ledger,
        prng=DeterministicPRNG.from_int(seed, domain="columnar-diff"),
        health_oracle=Health(),
        auto_prove=True,
        charge_fees=charge_fees,
        backend=BACKENDS.get(backend, backend),
        draw_batch=draw_batch,
    )
    if not isinstance(capacity_mb, tuple):
        capacity_mb = (capacity_mb,) * providers
    for index, size_mb in enumerate(capacity_mb):
        owner = f"prov-{index}"
        ledger.mint(owner, 50_000_000)
        protocol.sector_register(owner, size_mb * MB)
    ledger.mint("client", 500_000_000)
    return protocol


def _awaiting(protocol, notice, state) -> bool:
    """Is ``notice``'s swap still in ``state``, towards its target?"""
    entry = dict(protocol.alloc.entries_for_file(notice.file_id)).get(notice.replica_index)
    return entry is not None and entry.state == state and entry.next == notice.target_sector


def apply(protocol, op) -> Optional[str]:
    """Run one op of the vocabulary; returns the refusal message, if any."""
    kind, *args = op
    try:
        if kind == "batch":
            sizes, value, every = (*args, 1)[:3]
            ids = protocol.file_add_batch("client", list(sizes), [value] * len(sizes), ROOT)
            protocol.confirm_batch(ids[::every])
        elif kind == "add":
            size, value = (*args, 1)[:2]
            file_id = protocol.file_add("client", size, value, ROOT)
            for index, entry in protocol.alloc.entries_for_file(file_id):
                if entry.next is not None:
                    owner = protocol.sectors[entry.next].owner
                    protocol.file_confirm(owner, file_id, index, entry.next)
        elif kind == "advance":
            protocol.advance_time(protocol.now + args[0])
        elif kind == "step":
            if len(protocol.pending):
                protocol.advance_time(protocol.pending.peek_time())
        elif kind == "confirm_refreshes":
            (every,) = args or (1,)
            awaiting = (
                notice
                for notice in protocol.refresh_notices
                if _awaiting(protocol, notice, AllocState.ALLOC)
            )
            for notice in itertools.islice(awaiting, 0, None, every):
                protocol.file_confirm(
                    protocol.sectors[notice.target_sector].owner,
                    notice.file_id,
                    notice.replica_index,
                    notice.target_sector,
                )
        elif kind == "crash_target":
            for notice in protocol.refresh_notices:
                if _awaiting(protocol, notice, AllocState.CONFIRM):
                    protocol.crash_sector(notice.target_sector)
                    break
        elif kind == "discard":
            if args[0] in protocol.files:
                protocol.file_discard("client", args[0])
        else:
            targets = sorted(protocol.sectors)
            target = targets[args[0] % len(targets)]
            if kind == "crash":
                if not protocol.sectors[target].is_corrupted:
                    protocol.crash_sector(target)
            elif kind == "disable":
                protocol.sector_disable(protocol.sectors[target].owner, target)
            elif kind == "heal":
                protocol.health_oracle.sick.discard(target)
            elif kind in ("sick", "crash_silent"):
                protocol.health_oracle.sick.add(target)
            else:
                raise ValueError(f"unknown op {op!r}")
    except ProtocolError as error:
        return str(error)
    return None


def replay(protocol, ops) -> None:
    """Run every op of ``ops``; a refused op fails the caller."""
    for op in ops:
        refusal = apply(protocol, op)
        assert refusal is None, f"{op!r} refused: {refusal}"


def identity(protocol) -> Dict[str, object]:
    """What two engines must agree on: the state, the refresh notices in
    order, where the next sampler draw comes from, and both random
    streams."""
    selector = protocol.selector
    return {
        "state": fingerprint(protocol),
        "notices": list(protocol.refresh_notices),
        "sampler": (
            selector._draw_calls,
            selector.samples,
            selector.collisions,
            list(selector._draw_buffer),
        ),
        "prng": protocol.prng.state_fingerprint(),
    }

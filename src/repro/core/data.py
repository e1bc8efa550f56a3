"""Data operations: insert and delete (§IV-C).

Both ride the exact-match routing; an insert that falls outside the covered
domain reaches the leftmost (or rightmost) peer, which expands its range to
cover the new key and spends an extra O(log N) round of routing-table
updates — the special case called out in §IV-C.  Inserts may then trigger
load balancing (§IV-D) at the receiving peer.

The walks are step generators: the sync facades drive them atomically and
the event runtime prices each hop (:mod:`repro.util.stepper`).
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.core import search as search_protocol
from repro.core.results import DataOpResult
from repro.net.address import Address
from repro.net.message import MsgType
from repro.util.stepper import MessageSteps, drive

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork


def insert(net: "BatonNetwork", start: Address, key: int) -> DataOpResult:
    """Route ``key`` to its owner and store it there."""
    with net.open_trace("insert") as trace:
        owner, applied = drive(insert_steps(net, start, key))
    result = DataOpResult(applied=applied, owner=owner, trace=trace)
    balance_after_insert(net, result)
    return result


def delete(net: "BatonNetwork", start: Address, key: int) -> DataOpResult:
    """Route to the owner of ``key`` and remove one occurrence of it."""
    with net.open_trace("delete") as trace:
        owner, applied = drive(delete_steps(net, start, key))
    return DataOpResult(applied=applied, owner=owner, trace=trace)


def insert_steps(
    net: "BatonNetwork",
    start: Address,
    key: int,
    *,
    degraded: Optional[Callable[[], bool]] = None,
) -> MessageSteps:
    """Store ``key`` at its owner; return ``(owner address, True)``.

    The replication write-through and any subscriber notifications are
    priced hops of their own: the insert completes once they land.  Load
    balancing is left to the caller (:func:`balance_after_insert`), so
    the synchronous facade can keep its traffic out of the insert trace.
    """
    owner_address, _ = yield from search_protocol.route_steps(
        net, start, key, MsgType.INSERT, degraded=degraded, cached=True
    )
    owner = net.peer(owner_address)
    if not owner.range.contains(key):
        expand_extreme_range(net, owner, key)
    owner.store.insert(key)
    if net.config.replication:
        from repro.core import replication

        yield from replication.replicate_insert_steps(net, owner, key)
    if owner.subscriptions:
        from repro.pubsub.subscribe import notify_steps

        yield from notify_steps(net, owner, key)
    return owner_address, True


def delete_steps(
    net: "BatonNetwork",
    start: Address,
    key: int,
    *,
    degraded: Optional[Callable[[], bool]] = None,
) -> MessageSteps:
    """Remove one occurrence of ``key``; return ``(owner address, applied)``."""
    owner_address, _ = yield from search_protocol.route_steps(
        net, start, key, MsgType.DELETE, degraded=degraded, cached=True
    )
    owner = net.peer(owner_address)
    applied = owner.store.delete(key)
    if applied and net.config.replication:
        from repro.core import replication

        yield from replication.replicate_delete_steps(net, owner, key)
    return owner_address, applied


def balance_after_insert(net: "BatonNetwork", result: DataOpResult) -> None:
    """Run §IV-D load balancing at an insert's owner; note it on ``result``.

    A concurrent insert's owner can vanish during its write-through hop;
    a dead peer has no load left to balance.
    """
    if result.owner not in net.peers:
        return
    from repro.core import balance as balance_protocol

    event = balance_protocol.maybe_balance(net, result.owner)
    if event is not None:
        result.balance_trace = event.trace
        result.balance_moves = event.shift_size


def expand_extreme_range(net: "BatonNetwork", owner, key: int) -> None:
    """Extreme-node range expansion for out-of-domain inserts.

    Only the leftmost peer (no left adjacent) may grow downward and only the
    rightmost (no right adjacent) upward; anything else reaching here means
    routing failed and we must not paper over it.
    """
    if key < owner.range.low and owner.left_adjacent is None:
        owner.range = owner.range.extend_to_include(key)
    elif key >= owner.range.high and owner.right_adjacent is None:
        owner.range = owner.range.extend_to_include(key)
    else:
        from repro.util.errors import ProtocolError

        raise ProtocolError(
            f"insert of {key} routed to non-covering peer {owner.position} "
            f"{owner.range}"
        )
    # "It takes an additional log N step for updating its routing tables."
    net.broadcast_update(owner)

"""Query routing: exact-match and range search (§IV-A, §IV-B).

The exact-match step at a node holding range ``[low, high)`` for value
``v >= high`` is: jump to the *farthest* right-table neighbour whose lower
bound does not exceed ``v``; failing that descend to the right child, else
cross to the right adjacent node (mirror for the left).  Every hop at least
halves the remaining search space, giving O(log N) hops without routing
through the root.

A range query routes like a point query for the first intersecting node,
then expands along adjacent links — O(log N + X) for X covered nodes.

Both walks are step generators (:mod:`repro.util.stepper`): the sync
facades here drive them atomically, the event runtime prices each hop.

Fault tolerance (§III-D): each step computes an ordered candidate list
(greedy choice first, then nearer sideways entries, child, adjacent, parent);
a hop to a dead peer costs its message and falls through to the next
candidate, which is how queries route around failures while repair runs.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from repro.core import cache as route_cache
from repro.core.peer import BatonPeer
from repro.core.results import RangeSearchResult, SearchResult
from repro.net.address import Address
from repro.net.message import MsgType
from repro.sim.topology import Hop
from repro.util.errors import PeerNotFoundError, ProtocolError
from repro.util.stepper import MessageSteps, drive

if TYPE_CHECKING:
    from repro.core.network import BatonNetwork


def search_exact(net: "BatonNetwork", start: Address, key: int) -> SearchResult:
    """Route an exact-match query for ``key`` starting at ``start``."""
    with net.open_trace("search.exact") as trace:
        owner, _ = drive(route_steps(net, start, key, MsgType.SEARCH, cached=True))
        found = holds(net.peer(owner), key)
    return SearchResult(found=found, owner=owner, trace=trace)


def holds(peer: BatonPeer, key: int) -> bool:
    """An exact search's answer at the peer its walk reached."""
    return peer.range.contains(key) and key in peer.store


def route_steps(
    net: "BatonNetwork",
    start: Address,
    key: int,
    mtype: MsgType,
    *,
    size: float = 1.0,
    degraded: Optional[Callable[[], bool]] = None,
    cached: bool = False,
) -> MessageSteps:
    """Walk the overlay toward the peer whose range covers ``key``.

    Yields one :class:`~repro.sim.topology.Hop` per forwarding step and
    returns ``(reached address, hops)``.  The reached peer is the extreme
    (leftmost/rightmost) one when ``key`` falls outside the covered
    domain; callers that insert may then expand its range.

    ``degraded`` says whether stale links can legitimately strand the
    walk; while it holds, a dead end or an exhausted hop limit stops at
    the last peer reached (best effort) instead of raising.  It defaults
    to :func:`network_degraded`; the event runtime also counts other
    operations in flight.

    ``cached=True`` lets the entry peer's hot-range cache (locality
    extension, default off) shortcut the walk: a verified hit resolves in
    one direct message, a stale hint is invalidated and the walk continues
    from wherever it landed — never a wrong answer (see
    :mod:`repro.core.cache`).  A resolved walk is then recorded at the
    entry peer.
    """
    if degraded is None:

        def degraded() -> bool:
            return network_degraded(net)

    current = start
    hops = 0
    cached = cached and net.config.locality.cache_size > 0
    if cached:
        current = yield from route_cache.consult_steps(net, start, key, mtype)
        hops = int(current != start)
    for _ in range(hop_limit(net)):
        peer = net.peer(current)  # raises if the carrier vanished mid-walk
        if peer.range.contains(key):
            if cached:
                route_cache.record_route(net, start, peer)
            return current, hops
        primary, fallback = hop_candidates(peer, key)
        if not primary:
            return current, hops  # extreme node; key beyond the covered domain
        next_hop = first_live_hop(net, current, primary + fallback, mtype)
        if next_hop is None:
            if degraded():
                return current, hops  # marooned next to the failure
            raise ProtocolError(
                f"all routes from {peer.position} toward {key} are dead"
            )
        yield Hop(current, next_hop, size=size)
        hops += 1
        current = next_hop
    if degraded():
        # The owner itself is dead or routing state is still propagating:
        # the query gives up (TTL) and reports the last peer reached.
        return current, hops
    raise ProtocolError(f"route toward {key} did not terminate")


def network_degraded(net: "BatonNetwork") -> bool:
    """Whether unrepaired failures or in-flight updates can strand a query."""
    return bool(net.ghosts) or net.updates.deferred or net.updates.pending_count > 0


def hop_limit(net: "BatonNetwork") -> int:
    return 16 * max(net.size.bit_length(), 2) + 64


def hop_candidates(peer: BatonPeer, key: int) -> tuple[List[Address], List[Address]]:
    """Next hops from ``peer`` toward ``key``: (primary, failure fallbacks).

    Primary follows §IV-A — greedy farthest qualifying sideways entry, then
    nearer ones (which only matter when the greedy pick is dead), then the
    child, then the adjacent node.  The parent is never a primary: an
    extreme node with no primary hop *is* the stopping point for an
    out-of-domain key.  It serves only as a §III-D fallback around failures.
    """
    primary: List[Address] = []
    if key >= peer.range.high:
        table, child, adjacent = (
            peer.right_table,
            peer.right_child,
            peer.right_adjacent,
        )
        entries = table.entries
        for index in reversed(table.valid_indices()):
            info = entries[index]
            if info is not None and info.range.low <= key:
                primary.append(info.address)
    else:
        table, child, adjacent = (
            peer.left_table,
            peer.left_child,
            peer.left_adjacent,
        )
        entries = table.entries
        for index in reversed(table.valid_indices()):
            info = entries[index]
            if info is not None and info.range.high > key:
                primary.append(info.address)
    if child is not None:
        primary.append(child.address)
    if adjacent is not None:
        primary.append(adjacent.address)
    fallback: List[Address] = []
    if peer.parent is not None:
        fallback.append(peer.parent.address)
    seen: set[Address] = {peer.address}
    deduped_primary: List[Address] = []
    for address in primary:
        if address not in seen:
            seen.add(address)
            deduped_primary.append(address)
    deduped_fallback = [a for a in fallback if a not in seen]
    return deduped_primary, deduped_fallback


def first_live_hop(
    net: "BatonNetwork",
    current: Address,
    candidates: List[Address],
    mtype: MsgType,
) -> Optional[Address]:
    """Try candidates in order; a hop to a dead peer is paid for and skipped."""
    for candidate in candidates:
        try:
            net.count_message(current, candidate, mtype)
        except PeerNotFoundError:
            continue
        return candidate
    return None


def search_range(
    net: "BatonNetwork", start: Address, low: int, high: int
) -> RangeSearchResult:
    """Route a range query for [low, high) and expand over its owners."""
    if low >= high:
        raise ValueError(f"empty query range [{low}, {high})")
    with net.open_trace("search.range") as trace:
        owners, keys, complete = drive(range_steps(net, start, low, high))
    return RangeSearchResult(owners=owners, keys=keys, trace=trace, complete=complete)


def range_steps(
    net: "BatonNetwork",
    start: Address,
    low: int,
    high: int,
    *,
    degraded: Optional[Callable[[], bool]] = None,
) -> MessageSteps:
    """§IV-B: route to ``low``'s owner, then walk right adjacents.

    Returns ``(owners, keys, complete)``.  A dead adjacent, or a carrier
    that vanished between hops, truncates the answer (``complete`` stays
    False; repair restores the chain).
    """
    first, _ = yield from route_steps(
        net, start, low, MsgType.RANGE_SEARCH, degraded=degraded, cached=True
    )
    owners: List[Address] = []
    keys: List[int] = []
    # In a degraded network the route may give up and report a marooned
    # peer that does not anchor the interval; everything the walk collects
    # from there is suspect, so the answer can never be complete.  A
    # legitimate anchor either owns ``low`` or is the extreme peer on the
    # side of an out-of-domain ``low``.
    complete = False
    anchored = anchors_range(net.peer(first), low)
    current = first
    for _ in range(hop_limit(net) + net.size):
        peer = net.peers.get(current)
        if peer is None:
            break  # the carrier vanished between hops
        if peer.range.low >= high:
            complete = anchored
            break
        owners.append(current)
        keys.extend(peer.store.keys_in(low, high))
        if peer.range.high >= high or peer.right_adjacent is None:
            complete = anchored
            break
        next_hop = peer.right_adjacent.address
        try:
            net.count_message(current, next_hop, MsgType.RANGE_SEARCH)
        except PeerNotFoundError:
            break  # the chain is broken at a dead adjacent
        yield Hop(current, next_hop)
        current = next_hop
    return owners, keys, complete


def anchors_range(peer: BatonPeer, low: int) -> bool:
    """Whether ``peer`` is a valid starting point for a range walk at ``low``.

    True for the actual owner of ``low`` and for the extreme peers when
    ``low`` falls outside the covered domain (no keys can exist there).
    """
    if peer.range.contains(low):
        return True
    if low < peer.range.low and peer.left_adjacent is None:
        return True
    return low >= peer.range.high and peer.right_adjacent is None

"""Driving message-step generators to completion.

The overlay protocols are written as *step generators*: plain Python
generators that perform one protocol step (one message exchange, with the
usual bus accounting) and then ``yield`` a :class:`~repro.sim.topology.Hop`
declaring which pair of peers the next message travels between.  The
synchronous facades run a generator to exhaustion with :func:`drive` — one
atomic operation, exactly the pre-generator behaviour; the yielded hops are
ignored — while the event-driven runtime (:mod:`repro.sim.runtime`) runs
the same generator with ``yield from`` inside an operation's hop
generator, resuming it once per simulator event and turning each hop into
a per-link delay drawn from the run's :class:`~repro.sim.topology.Topology`.

Writing each protocol once and executing it under both regimes is what
guarantees the serialized-equivalence property the runtime tests pin down:
the two paths *cannot* diverge in message order because they are the same
code.  This holds for every overlay: the runtimes add scheduling around the
walks (client ingress hops, inbox flushes, race re-checks and retries) but
keep no copy of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.sim.topology import Hop

T = TypeVar("T")

#: A protocol step generator: yields one Hop (which link the next message
#: crosses) per network hop, returns the operation's result via
#: StopIteration.
MessageSteps = Generator["Hop", None, T]


def drive(steps: MessageSteps) -> T:
    """Run a step generator to completion synchronously; return its result."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value

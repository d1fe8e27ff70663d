"""Waiting for a threaded broker to go quiet.

``Broker.drain`` returns once everything queued *before the call* has
been delivered. A delivery on the dispatcher thread that publishes (a
unit's cascade, a supervisor's dead letter) queues that event behind
the drain marker, so one drain covers one hop. :func:`settle` drains
until a whole round publishes nothing new.
"""

import time


def settle(broker, timeout: float = 30.0) -> None:
    """Drain *broker* until no delivery publishes anything further."""
    deadline = time.monotonic() + timeout
    while True:
        published = broker.stats.published
        remaining = deadline - time.monotonic()
        assert remaining > 0 and broker.drain(remaining), "broker did not settle"
        if broker.stats.published == published:
            return

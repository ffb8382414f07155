"""Hosts: single-NIC sites with disk, CPU and per-actor mailboxes."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from repro.net.message import Message
from repro.sim import Environment, Event, Resource


@dataclass
class HostStats:
    """Per-host traffic accounting."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: float = 0.0
    bytes_received: float = 0.0
    #: Seconds the NIC spent occupied by transfers.
    nic_busy_time: float = 0.0


class MailboxGet(Event):
    """A receive from a :class:`Mailbox`; its value is the message.

    Its own class only so per-class kernel event counts
    (``sim.events.<Type>``) tell receipts apart from other events.
    """

    __slots__ = ()


class Mailbox:
    """Priority-ordered queue of delivered messages for one actor.

    Direct handoff: a delivery succeeds the oldest waiting ``get`` at
    once, or else joins a heap ordered by (priority, arrival), so the
    lowest priority value is received first and ties are FIFO.  A
    delivery schedules no calendar event of its own; the only event is
    the getter's, scheduled where the message reaches it.
    """

    __slots__ = ("env", "_heap", "_getters", "_sequence")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._heap: list[tuple[int, int, Message]] = []
        self._getters: deque[MailboxGet] = deque()
        self._sequence = 0

    def deliver(self, message: Message) -> None:
        """Hand ``message`` to a waiting getter, or queue it."""
        if self._getters:
            self._getters.popleft().succeed(message)
            return
        heappush(self._heap, (int(message.priority or 0), self._sequence, message))
        self._sequence += 1

    def get(self) -> MailboxGet:
        """Event whose value is the next message (in priority order)."""
        event = MailboxGet(self.env)
        if self._heap:
            event.succeed(heappop(self._heap)[2])
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._heap)

    def drain(self) -> list[Message]:
        """Remove and return all queued messages (used when an actor moves).

        Waiting getters stay queued: a detached mailbox keeps them.
        """
        drained = [message for _, _, message in sorted(self._heap)]
        self._heap.clear()
        return drained


class Host:
    """A participating site.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Unique host name.
    disk_rate:
        Sequential disk read bandwidth, bytes/second (paper: 3 MB/s).
    nic_capacity:
        Concurrent transfers the host's network attachment sustains
        (paper assumption 2: one).
    """

    #: Fluid facility fast path: hold an uncontended disk/CPU through a
    #: single timeout event instead of the request-grant/timeout pair
    #: (see :meth:`_use`).  Only the equivalence tests switch it off,
    #: with :attr:`repro.net.network.Network.FLUID_FAST_PATH`, for full-DES
    #: reference runs.
    FLUID_FACILITIES = True

    def __init__(
        self,
        env: Environment,
        name: str,
        disk_rate: float = 3 * 1024 * 1024,
        nic_capacity: int = 1,
    ) -> None:
        if disk_rate <= 0:
            raise ValueError(f"disk_rate must be positive, got {disk_rate!r}")
        if nic_capacity < 1:
            raise ValueError(f"nic_capacity must be >= 1, got {nic_capacity!r}")
        self.env = env
        self.name = name
        #: Concurrent transfers this host can sustain (paper assumption 2
        #: fixes this at one; the paper notes the assumption "can be
        #: relaxed", which this knob does).
        self.nic_capacity = nic_capacity
        #: Sequential-access disk.
        self.disk = Resource(env, capacity=1)
        #: Processor used for combination operations.
        self.cpu = Resource(env, capacity=1)
        self.disk_rate = disk_rate
        self.stats = HostStats()
        self._mailboxes: dict[str, Mailbox] = {}

    # -- mailboxes ------------------------------------------------------------
    def mailbox(self, actor: str) -> Mailbox:
        """The mailbox for ``actor``, created on first use."""
        box = self._mailboxes.get(actor)
        if box is None:
            box = Mailbox(self.env)
            self._mailboxes[actor] = box
        return box

    def remove_mailbox(self, actor: str) -> list[Message]:
        """Detach an actor's mailbox, returning any undelivered messages."""
        box = self._mailboxes.pop(actor, None)
        return box.drain() if box is not None else []

    # -- local facilities -------------------------------------------------------
    def _use(self, resource: Resource, seconds: float):
        """Generator: occupy one slot of ``resource`` for ``seconds``.

        When a slot is free, claim it synchronously
        (:meth:`~repro.sim.resources.Resource.try_acquire`) and sleep
        through a single timeout — the facility analogue of the
        network's fluid transfer fast path.  A contended facility (or
        ``FLUID_FACILITIES`` off) runs the classic request-grant then
        timeout sequence; occupancy intervals are identical either way.
        """
        hold = resource.try_acquire() if self.FLUID_FACILITIES else None
        if hold is None:
            with resource.request() as req:
                yield req
                yield self.env.timeout(seconds)
            return
        try:
            yield self.env.timeout(seconds)
        finally:
            resource.release(hold)

    def disk_read(self, nbytes: float):
        """Process generator: read ``nbytes`` from the local disk."""
        if nbytes < 0:
            raise ValueError(f"negative read size {nbytes!r}")
        yield from self._use(self.disk, nbytes / self.disk_rate)

    def compute(self, seconds: float):
        """Process generator: occupy the CPU for ``seconds``."""
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds!r}")
        yield from self._use(self.cpu, seconds)

    def __repr__(self) -> str:
        return f"<Host {self.name!r}>"

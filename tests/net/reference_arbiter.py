"""Reference transfer arbiter: the full-rescan heap, kept as an oracle.

The network's arbiter used to keep waiting transfers in a heap and, after
any NIC release, pop every entry, start those whose two endpoints were
free and push the rest back.  :class:`repro.net.network.Network` now
keeps a sorted list and scans only the transfers that touch a released
NIC.  :class:`ReferenceArbiterNetwork` restores the old arbiter on top of
the production network (every other part of the transfer path is
inherited); ``test_arbiter_oracle.py`` checks that both start the same
transfers in the same order and leave the same ones waiting.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.net.network import Network


class ReferenceArbiterNetwork(Network):
    """A :class:`Network` whose arbiter rescans the whole waiting heap."""

    #: True when NIC capacity has been released since the last full scan
    #: (a plain flag here, shadowing the production property).
    _scan_needed = False

    def _admit(self, message, src, dst, done) -> None:
        self._sequence += 1
        entry = (int(message.priority or 0), self._sequence, message, src, dst, done)
        if not self._scan_needed:
            active = self._active_transfers
            caps = self._nic_caps
            if active[src] < caps[src] and active[dst] < caps[dst]:
                active[src] += 1
                active[dst] += 1
                self._start_transfer(message, src, dst, done)
            else:
                heappush(self._waiting, entry)
            return
        heappush(self._waiting, entry)
        self._dispatch_transfers()

    def _release(self, src: str, dst: str) -> None:
        self._active_transfers[src] -= 1
        self._active_transfers[dst] -= 1
        self._scan_needed = True

    def _dispatch_transfers(self) -> None:
        self._scan_needed = False
        if not self._waiting:
            return
        active = self._active_transfers
        caps = self._nic_caps
        blocked: list[tuple] = []
        while self._waiting:
            entry = heappop(self._waiting)
            __, __, message, src, dst, done = entry
            if active[src] >= caps[src] or active[dst] >= caps[dst]:
                blocked.append(entry)
                continue
            active[src] += 1
            active[dst] += 1
            self._start_transfer(message, src, dst, done)
        for entry in blocked:
            heappush(self._waiting, entry)

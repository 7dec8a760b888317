"""Client-side file access (the file API of the baseline model)."""

from __future__ import annotations

from typing import Sequence

from ..errors import ProtocolError, ServiceError
from ..net.address import Address
from ..net.network import Node
from ..net.transport import StreamConnection
from ..sim.core import Simulation

__all__ = ["FileClient", "FileConnection"]


class FileConnection:
    """An established (mounted) connection to a file server."""

    def __init__(self, sim: Simulation, stream: StreamConnection) -> None:
        self.sim = sim
        self._stream = stream

    @property
    def closed(self) -> bool:
        return self._stream.closed

    def _round_trip(self, message: tuple):
        self._stream.send(message)
        envelope = yield self._stream.recv()
        reply = envelope.payload
        if reply and reply[0] == "error":
            raise ServiceError(reply[1])
        if not reply or reply[0] not in ("ok", "mounted"):
            raise ProtocolError(f"unexpected reply: {reply!r}")
        return reply

    def read(self, name: str):
        """Read one file; returns its result dict."""
        reply = yield from self._round_trip(("read", name))
        return dict(reply[1])

    def read_batch(self, names: Sequence[str]):
        """Read several files in one exchange; results in request order."""
        reply = yield from self._round_trip(("read_batch", tuple(names)))
        return list(reply[1])

    def stat(self, name: str):
        """File size in blocks."""
        reply = yield from self._round_trip(("stat", name))
        return reply[1]

    def list(self):
        """All file names on the server."""
        reply = yield from self._round_trip(("list",))
        return list(reply[1])

    def bye(self):
        """Orderly shutdown; a ``yield from`` generator."""
        if not self._stream.closed:
            self._stream.send(("bye",))
            self._stream.close()
        return
        yield  # pragma: no cover - makes this a generator


class FileClient:
    """Factory for :class:`FileConnection`."""

    @staticmethod
    def connect(sim: Simulation, node: Node, address: Address, name: str = ""):
        """Connect and mount; ``yield from`` this generator."""
        stream = yield from node.connect_stream(address)
        stream.send(("mount", name or node.name))
        envelope = yield stream.recv()
        reply = envelope.payload
        if not (isinstance(reply, tuple) and reply and reply[0] == "mounted"):
            stream.close()
            raise ProtocolError(f"mount failed: {reply!r}")
        return FileConnection(sim, stream)

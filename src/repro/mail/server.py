"""The networked mail server (SMTP-like submission, POP-like retrieval).

Protocol over a stream connection:

* client → ``("helo", name)`` / server → ``("hi",)``
* client → ``("send", sender, recipient, subject, body)``
  server → ``("ok", message_id)`` or ``("error", msg)``
* client → ``("list", owner)`` → ``("ok", [ids])``
* client → ``("retr", owner, id)`` → ``("ok", message_dict)``
* client → ``("dele", owner, id)`` → ``("ok",)``
* client → ``("quit",)``
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConnectionClosed, MailboxError
from ..metrics import MetricsRegistry
from ..net.network import Node
from ..net.transport import StreamConnection
from ..sim.core import Simulation
from ..sim.resources import Resource
from .store import MessageStore

__all__ = ["MailServer"]

#: Default mail port (SMTP's).
DEFAULT_PORT = 25

#: Operations served concurrently; further ones queue.
WORKERS = 8

# Service-time model, in seconds: every operation costs the base; storing
# or retrieving a message adds its bytes, listing a mailbox its messages.
BASE_TIME = 0.001
PER_BYTE_STORED = 2e-8
PER_MESSAGE_LISTED = 1e-5
HELO_TIME = 0.001


class MailServer:
    """Serves a :class:`MessageStore` over the simulated network."""

    def __init__(
        self,
        sim: Simulation,
        node: Node,
        store: Optional[MessageStore] = None,
        port: int = DEFAULT_PORT,
    ) -> None:
        self.sim = sim
        self.node = node
        self.store = store if store is not None else MessageStore()
        self.metrics = MetricsRegistry()
        self.workers = Resource(sim, WORKERS)
        self.listener = node.listen_stream(port)
        self.address = node.address(port)
        sim.process(self._accept_loop(), name=f"mail:{node.name}")

    def _accept_loop(self):
        while True:
            try:
                connection = yield self.listener.accept()
            except ConnectionClosed:
                return
            self.metrics.increment("mail.connections")
            self.sim.process(self._session(connection))

    def _session(self, connection: StreamConnection):
        greeted = False
        while True:
            try:
                envelope = yield connection.recv()
            except ConnectionClosed:
                return
            message = envelope.payload
            if not isinstance(message, tuple) or not message:
                connection.send(("error", f"malformed message: {message!r}"))
                continue
            command = message[0]
            if command == "helo":
                yield HELO_TIME
                greeted = True
                connection.send(("hi",))
                continue
            if command == "quit":
                connection.close()
                return
            if not greeted:
                connection.send(("error", "helo first"))
                continue
            yield from self._serve(connection, message)

    def _serve(self, connection: StreamConnection, message: tuple):
        request = self.workers.request()
        yield request
        try:
            try:
                reply = yield from self._handle(message)
            except MailboxError as exc:
                self.metrics.increment("mail.errors")
                reply = ("error", str(exc))
            except (TypeError, ValueError) as exc:
                self.metrics.increment("mail.errors")
                reply = ("error", f"malformed {message[0]!r}: {exc}")
            if not connection.closed:
                connection.send(reply)
        finally:
            self.workers.release(request)

    def _handle(self, message: tuple):
        command = message[0]
        if command == "send":
            _, sender, recipient, subject, body = message
            stored = self.store.deliver(sender, recipient, subject, body, self.sim.now)
            yield BASE_TIME + stored.size * PER_BYTE_STORED
            self.metrics.increment("mail.delivered")
            return ("ok", stored.message_id)
        if command == "list":
            _, owner = message
            mailbox = self.store.mailbox(owner)
            yield BASE_TIME + len(mailbox) * PER_MESSAGE_LISTED
            return ("ok", mailbox.list_ids())
        if command == "retr":
            _, owner, message_id = message
            stored = self.store.mailbox(owner).get(message_id)
            yield BASE_TIME + stored.size * PER_BYTE_STORED
            self.metrics.increment("mail.retrieved")
            return (
                "ok",
                {
                    "message_id": stored.message_id,
                    "sender": stored.sender,
                    "recipient": stored.recipient,
                    "subject": stored.subject,
                    "body": stored.body,
                    "delivered_at": stored.delivered_at,
                },
            )
        if command == "dele":
            _, owner, message_id = message
            self.store.mailbox(owner).delete(message_id)
            yield BASE_TIME
            return ("ok",)
        return ("error", f"unknown command: {command!r}")

    def close(self) -> None:
        """Stop accepting new connections."""
        self.listener.close()

    def __repr__(self) -> str:
        return f"<MailServer {self.address} mailboxes={len(self.store)}>"

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

from dataclasses import dataclass
from typing import Optional

from ..errors import ConnectionClosed, MailboxError
from ..metrics import MetricsRegistry
from ..net.network import Node
from ..net.transport import StreamConnection
from ..sim.core import Simulation
from ..sim.resources import Resource
from .store import MessageStore

__all__ = ["MailServer", "MailCostModel"]

#: Default mail port (SMTP's).
DEFAULT_PORT = 25


@dataclass(frozen=True)
class MailCostModel:
    """Service-time model for mail operations."""

    base: float = 0.001
    per_byte_stored: float = 2e-8
    per_message_listed: float = 1e-5
    helo_time: float = 0.001

    def send_time(self, size: int) -> float:
        """Service time to store a *size*-byte message."""
        return self.base + size * self.per_byte_stored

    def list_time(self, count: int) -> float:
        """Service time to list a *count*-message mailbox."""
        return self.base + count * self.per_message_listed

    def retr_time(self, size: int) -> float:
        """Service time to retrieve a *size*-byte message."""
        return self.base + size * self.per_byte_stored


class MailServer:
    """Serves a :class:`MessageStore` over the simulated network."""

    def __init__(
        self,
        sim: Simulation,
        node: Node,
        store: Optional[MessageStore] = None,
        port: int = DEFAULT_PORT,
        max_workers: int = 8,
        cost_model: Optional[MailCostModel] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.store = store if store is not None else MessageStore()
        self.cost_model = cost_model or MailCostModel()
        self.metrics = metrics or MetricsRegistry()
        self.workers = Resource(sim, max_workers)
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
                yield self.cost_model.helo_time
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
            yield self.cost_model.send_time(stored.size)
            self.metrics.increment("mail.delivered")
            return ("ok", stored.message_id)
        if command == "list":
            _, owner = message
            mailbox = self.store.mailbox(owner)
            yield self.cost_model.list_time(len(mailbox))
            return ("ok", mailbox.list_ids())
        if command == "retr":
            _, owner, message_id = message
            stored = self.store.mailbox(owner).get(message_id)
            yield self.cost_model.retr_time(stored.size)
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
            yield self.cost_model.base
            return ("ok",)
        return ("error", f"unknown command: {command!r}")

    def close(self) -> None:
        """Stop accepting new connections."""
        self.listener.close()

    def __repr__(self) -> str:
        return f"<MailServer {self.address} mailboxes={len(self.store)}>"

"""Mail service: message store, server, client."""

from .._lazy import lazy_exports

_EXPORTS = {
    "MailClient": "client",
    "MailConnection": "client",
    "MailServer": "server",
    "Mailbox": "store",
    "MailMessage": "store",
    "MessageStore": "store",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

"""Deterministic named random-number substreams and 64-bit string hashes.

Every stochastic component of a model draws from its own named stream
(for example ``"link.wan"`` or ``"client.3.think"``). Streams are derived
from the master seed with SHA-256, so:

* the same (seed, name) pair always yields the same sequence, and
* adding a new component with its own stream does not perturb the
  sequences observed by existing components.

:func:`hash64` is the one other hash a run takes: BLAKE2b with an 8-byte
digest, which places consistent-hash ring points (``core.sharding``) and
derives partition seeds (``workload.scenarios``).

Seeds and ring points are SHA-256 and BLAKE2b digests, whose bytes do
not depend on which implementation computes them. Both come from the
interpreter's own extension modules (``_sha2`` on 3.12+, ``_sha256`` on
3.10/3.11, ``_blake2``), not from ``hashlib``, which would map OpenSSL's
``libcrypto`` (about 3.3 MiB resident) into every run just to hash a few
hundred short strings. ``hashlib`` is the fallback only where those
modules are absent.
"""

from __future__ import annotations

import random
from typing import Dict, Set

try:  # Python 3.12+
    from _sha2 import sha256 as _sha256
except ImportError:
    try:  # Python 3.10 / 3.11
        from _sha256 import sha256 as _sha256
    except ImportError:  # an interpreter built without it
        from hashlib import sha256 as _sha256
try:
    from _blake2 import blake2b as _blake2b
except ImportError:  # an interpreter built without it
    from hashlib import blake2b as _blake2b

__all__ = ["RngRegistry", "derive_rng", "hash64"]


def derive_rng(seed: int, name: str) -> random.Random:
    """Create a ``random.Random`` deterministically derived from (seed, name)."""
    digest = _sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def hash64(text: str) -> int:
    """The 8-byte BLAKE2b digest of *text* (UTF-8) as a big-endian int."""
    digest = _blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class RngRegistry:
    """Caches one :class:`random.Random` per stream name.

    Repeated calls with the same name return the *same* generator object,
    so a component keeps consuming its own sequence across calls. A
    component that is gone for good lets its streams go with
    :meth:`forget`; a forgotten name is never derived again, since a
    second generator under it would silently restart the sequence.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}
        self._forgotten: Set[str] = set()

    def stream(self, name: str) -> random.Random:
        """Return the generator for *name*, creating it on first use.

        Raises :class:`LookupError` for a forgotten name.
        """
        rng = self._streams.get(name)
        if rng is None:
            if name in self._forgotten:
                raise LookupError(f"RNG stream {name!r} was forgotten")
            rng = derive_rng(self.seed, name)
            self._streams[name] = rng
        return rng

    def forget(self, name: str) -> None:
        """Drop the generator for *name* for good (see the class docstring).

        Draws nothing, so every other stream is unaffected.
        """
        self._streams.pop(name, None)
        self._forgotten.add(name)

    def __len__(self) -> int:
        return len(self._streams)

    def __contains__(self, name: str) -> bool:
        return name in self._streams

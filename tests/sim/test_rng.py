"""Seeds and ring points are SHA-256 and BLAKE2b digests, whatever computes them.

``repro.sim.rng`` hashes with the interpreter's built-in ``_sha2`` /
``_sha256`` and ``_blake2`` modules and falls back to ``hashlib`` only
where those are absent. These tests hold both paths to ``hashlib`` as
the independent reference, over generated seeds and names, and pin a
few values computed before the built-in modules were used, so a change
of hash (not only of implementation) shows as a failure here before it
shows as a moved golden.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
import sys

from hypothesis import given
from hypothesis import strategies as st

from repro.core.sharding import HashRing
from repro.sim import rng
from repro.sim.rng import derive_rng, hash64
from repro.workload.scenarios import _slice_seed

#: Seeds from negative through above 2**64; names include "" and non-ASCII.
seeds = st.one_of(
    st.integers(), st.integers(min_value=2**64), st.sampled_from([-1, 0, 2**64])
)
names = st.one_of(st.text(max_size=30), st.sampled_from(["", "link.wan", "été·Ω"]))


def reference_rng(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def reference_hash64(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def draws(generator: random.Random) -> list:
    return [generator.random() for _ in range(5)]


@given(seeds, names)
def test_derive_rng_draws_what_a_hashlib_seed_draws(seed, name):
    assert draws(derive_rng(seed, name)) == draws(reference_rng(seed, name))


@given(names)
def test_hash64_is_the_big_endian_8_byte_blake2b_digest(text):
    assert hash64(text) == reference_hash64(text)


def test_the_hashlib_fallback_gives_the_same_values(monkeypatch):
    for builtin in ("_sha2", "_sha256", "_blake2"):
        monkeypatch.setitem(sys.modules, builtin, None)
    # A second copy of the module, so the one every caller holds is untouched.
    spec = importlib.util.spec_from_file_location("rng_fallback", rng.__file__)
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)

    assert fallback._sha256 is hashlib.sha256
    for seed, name in [(-3, ""), (0, "link.wan"), (2**70, "été")]:
        assert draws(fallback.derive_rng(seed, name)) == draws(derive_rng(seed, name))
        assert fallback.hash64(f"{seed}:{name}") == hash64(f"{seed}:{name}")


def test_placements_and_seeds_are_the_values_hashlib_gave():
    ring = HashRing(seed=7, vnodes=16, nodes=["a", "b", "c", "d"])
    placement = {
        key: ring.owner(key)
        for key in ["item:1", "item:2", "item:42", "user:alice", "user:bob", "q:été", ""]
    }
    assert placement == {
        "item:1": "b", "item:2": "a", "item:42": "b", "user:alice": "c",
        "user:bob": "d", "q:été": "d", "": "d",
    }
    assert ring.preference("item:2") == ["a", "d", "b", "c"]
    assert hash64("7:item:1") == 518868759769716228
    assert _slice_seed(2026, 3) == 8160122024831598163
    assert derive_rng(2026, "link.wan").random() == 0.8188618671930685

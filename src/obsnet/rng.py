"""Named, reproducible random streams.

All randomness in the package flows from one user-facing seed. Independent
consumers (system pattern, costs, network, per-trial realizations) derive
their own stream from that seed plus a name, so adding a new consumer never
perturbs the draws of an existing one.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np

from .errors import ValidationError


def derive_seed(seed: int, *names: str | int) -> int:
    """Derive a child seed from ``seed`` and a path of stream names.

    Stable across processes and platforms (unlike ``hash()``). ``seed``
    must be an integer, numpy integers included and bools refused; anything
    else is a ValidationError.
    """
    if type(seed) is not int:  # plain ints, one per trial, skip the slow check
        if not isinstance(seed, numbers.Integral) or type(seed) is bool:
            raise ValidationError(f"seed must be an integer, got {seed!r}")
        seed = int(seed)
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode())
    for name in names:
        h.update(b"/")
        h.update(str(name).encode())
    return int.from_bytes(h.digest(), "big")


def rng_for(seed: int, *names: str | int) -> np.random.Generator:
    """Generator for the named stream rooted at ``seed``."""
    return np.random.default_rng(derive_seed(seed, *names))

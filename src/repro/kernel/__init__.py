"""The packed compute kernels and kernel selection.

Every query surface (``pmbc_online``/``pmbc_online_star``, the caching
engine, the serving layer, index construction) funnels into the same
branch-and-bound over candidate vertex sets.  This package provides
two interchangeable implementations of that hot path — *kernels* —
plus the machinery to pick one:

- ``"bitset"`` (the default) — candidate sets are Python ints used as
  packed bitmasks over degree-ordered local ids; intersections are
  big-int ``&`` and set sizes are ``int.bit_count()``.  CPython big-int
  arithmetic processes 30 bits (or 64 on some builds) per machine word,
  so the per-node constant factor drops by roughly an order of
  magnitude on medium subgraphs — the same packed-set trick BBK
  (Baudin et al., 2024) and Chen et al. (2020) credit for their
  constant factors, with zero new dependencies.
- ``"set"`` — the original ``frozenset`` implementation, kept forever
  as the differential-testing reference.

Both kernels explore the identical search tree (same candidate order,
same pruning decisions, same recorded answers and obs counters); see
``docs/kernel.md`` for the argument and ``tests/property`` for the
machine-checked version.

Selection, in priority order: an explicit ``kernel=`` argument on the
query/build API, the ``PMBC_KERNEL`` environment variable, then the
built-in default ``"bitset"``.
"""

from __future__ import annotations

import os

from repro.kernel.dynadj import DynamicPackedAdjacency
from repro.kernel.packed import (
    PackedLocalGraph,
    iter_bits,
    pack_count,
    pack_local,
)

__all__ = [
    "KERNEL_KINDS",
    "DEFAULT_KERNEL",
    "default_kernel",
    "resolve_kernel",
    "is_packed_kernel",
    "PackedLocalGraph",
    "pack_local",
    "pack_count",
    "iter_bits",
    "DynamicPackedAdjacency",
]

#: Valid ``kernel=`` selector values; CLI, config and env use these.
KERNEL_KINDS = ("bitset", "set")

#: The built-in default when nothing else selects a kernel.
DEFAULT_KERNEL = "bitset"

#: Environment variable consulted by :func:`default_kernel`.
KERNEL_ENV_VAR = "PMBC_KERNEL"


def _validate(kernel: str) -> str:
    if kernel not in KERNEL_KINDS:
        raise ValueError(
            f"kernel must be one of {KERNEL_KINDS}, got {kernel!r}"
        )
    return kernel


def default_kernel() -> str:
    """The kernel used when no explicit ``kernel=`` is given.

    The ``PMBC_KERNEL`` environment variable takes precedence over the
    built-in default (``"bitset"``).
    """
    env = os.environ.get(KERNEL_ENV_VAR)
    if env:
        return _validate(env)
    return DEFAULT_KERNEL


def resolve_kernel(kernel: str | None = None) -> str:
    """Validate an explicit kernel name, or fall back to the default.

    Call sites resolve once per query/engine/worker — never per search
    node — so the environment lookup stays off the hot path.
    """
    if kernel is None:
        return default_kernel()
    return _validate(kernel)


def is_packed_kernel(kernel: str) -> bool:
    """Whether a *resolved* kernel name runs on the packed machinery."""
    return kernel == "bitset"

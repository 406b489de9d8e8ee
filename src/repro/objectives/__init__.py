"""Pluggable query-family objectives over the shared search kernel.

One serving stack, many biclique-like products: an
:class:`~repro.objectives.base.Objective` plugs a family's scoring,
bounding, progressive-threshold, and finalization rules into the
shared progressive-bounding + Branch&Bound machinery, which both
compute kernels (``"set"`` and ``"bitset"``) execute
identically.

Built-in families:

- ``"pmbc"`` — the paper's personalized maximum biclique (edge count);
  the default everywhere, bit-for-bit compatible with the pre-seam
  behavior.
- ``"balanced"`` — personalized maximum *balanced* biclique
  (``min(|P|, |W|)``), served end to end: engine, HTTP, client, CLI
  (``--objective balanced``), and per-objective observability.

Adding a family: subclass ``Objective``, call
:func:`register_objective`, and every query surface (``QueryRequest``,
``/query``, ``pmbc query --objective``) accepts its name — see
docs/architecture.md for the how-to.
"""

from repro.objectives.balanced import BALANCED_OBJECTIVE, BalancedObjective
from repro.objectives.base import (
    DEFAULT_OBJECTIVE,
    Objective,
    get_objective,
    objective_kinds,
    register_objective,
)
from repro.objectives.pmbc import PMBC_OBJECTIVE, PMBCObjective

__all__ = [
    "DEFAULT_OBJECTIVE",
    "Objective",
    "PMBCObjective",
    "PMBC_OBJECTIVE",
    "BalancedObjective",
    "BALANCED_OBJECTIVE",
    "get_objective",
    "objective_kinds",
    "register_objective",
]

register_objective(PMBC_OBJECTIVE)
register_objective(BALANCED_OBJECTIVE)

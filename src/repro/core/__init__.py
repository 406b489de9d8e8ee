"""The paper's primary contribution: personalized maximum biclique search.

Public surface:

- :func:`~repro.core.online.pmbc_online` — PMBC-OL (Algorithm 1);
- :func:`~repro.core.online.pmbc_online_star` — PMBC-OL* (Algorithm 5);
- :class:`~repro.core.index.PMBCIndex` — the PMBC-Index (forest ``T`` +
  biclique array ``A``) with save/load;
- :func:`~repro.core.query.pmbc_index_query` — PMBC-IQ (Algorithm 2);
- :func:`~repro.core.construction.build_index` — PMBC-IC (Algorithm 3);
- :func:`~repro.core.construction_star.build_index_star` — PMBC-IC*
  (Algorithm 4, skyline cost-sharing);
- :mod:`~repro.core.parallel` — Algorithm 6 (parallel construction) and
  the dynamic-scheduling speedup model for Fig 8;
- :class:`~repro.core.naive_index.NaiveIndex` — the basic index
  baseline of Section IV.
"""

from repro.core.result import Biclique
from repro.core.online import (
    pmbc_online,
    pmbc_online_batch,
    pmbc_online_local,
    pmbc_online_star,
)
from repro.core.index import BicliqueArray, PMBCIndex, SearchTree, SearchTreeNode
from repro.core.query import (
    QueryRequest,
    as_request,
    pmbc_index_query,
    pmbc_index_topk,
)
from repro.core.engine import CacheStats, PMBCQueryEngine
from repro.core.construction import BuildStats, build_index, build_search_tree
from repro.core.construction_star import build_index_star
from repro.core.naive_index import NaiveIndex, NaiveIndexTimeout, build_naive_index
from repro.core.skyline import SkylineIndex
from repro.core.dynamic import DynamicPMBCIndex
from repro.core.serialize import (
    read_binary,
    write_binary,
)
from repro.core.verify import AnswerCheck, check_personalized_answer
from repro.core.parallel import (
    ScheduleResult,
    build_index_parallel,
    measure_task_costs,
    simulate_parallel_schedule,
)

__all__ = [
    "Biclique",
    "QueryRequest",
    "as_request",
    "pmbc_online",
    "pmbc_online_batch",
    "pmbc_online_local",
    "pmbc_online_star",
    "PMBCIndex",
    "SearchTree",
    "SearchTreeNode",
    "BicliqueArray",
    "pmbc_index_query",
    "pmbc_index_topk",
    "PMBCQueryEngine",
    "CacheStats",
    "build_index",
    "build_index_star",
    "build_search_tree",
    "BuildStats",
    "NaiveIndex",
    "NaiveIndexTimeout",
    "build_naive_index",
    "SkylineIndex",
    "DynamicPMBCIndex",
    "write_binary",
    "read_binary",
    "AnswerCheck",
    "check_personalized_answer",
    "build_index_parallel",
    "simulate_parallel_schedule",
    "measure_task_costs",
    "ScheduleResult",
]

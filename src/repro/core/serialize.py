"""Compact binary serialization of the PMBC-Index.

The JSON format of :meth:`PMBCIndex.save` is convenient but 3–5×
larger than the paper's storage model.  This module provides a packed
little-endian binary format whose on-disk footprint matches the size
accounting of Table III closely, plus streaming read/write.

Layout (all integers little-endian):

```
magic     : 8 bytes  b"PMBCIDX1"
header    : 2 × u32  num_upper, num_lower
array     : u32 count, then per biclique:
            u32 |U|, u32 |L|, |U| × u32 upper ids, |L| × u32 lower ids
trees     : per side (upper then lower): u32 tree count, then per tree:
            u32 node count, then per node:
            u32 tau_u, u32 tau_l, i32 biclique_id, i32 left, i32 right
            (-1 encodes None)
```
"""

from __future__ import annotations

import io
import os
import struct

from repro.core.index import (
    BicliqueArray,
    PMBCIndex,
    SearchTree,
    SearchTreeNode,
)
from repro.core.result import Biclique
from repro.graph.bipartite import Side

MAGIC = b"PMBCIDX1"

_U32 = struct.Struct("<I")
_NODE = struct.Struct("<IIiii")


class IndexFormatError(Exception):
    """Raised when a file is not a valid binary PMBC-Index."""


def _write_u32(out, value: int) -> None:
    out.write(_U32.pack(value))


def _read_u32(handle) -> int:
    raw = handle.read(4)
    if len(raw) != 4:
        raise IndexFormatError("truncated file (u32)")
    return _U32.unpack(raw)[0]


def write_binary(index: PMBCIndex, path: str | os.PathLike) -> int:
    """Write ``index`` in the binary format; returns bytes written.

    Prefer the unified :meth:`PMBCIndex.save` entry point
    (``index.save(path, format="binary")``); this function is its
    implementation.
    """
    buffer = io.BytesIO()
    buffer.write(MAGIC)
    _write_u32(buffer, index.num_upper)
    _write_u32(buffer, index.num_lower)

    _write_u32(buffer, len(index.array))
    for biclique in index.array:
        upper = sorted(biclique.upper)
        lower = sorted(biclique.lower)
        buffer.write(_U32.pack(len(upper)))
        buffer.write(_U32.pack(len(lower)))
        for v in upper:
            _write_u32(buffer, v)
        for v in lower:
            _write_u32(buffer, v)

    for side in (Side.UPPER, Side.LOWER):
        trees = index.trees[side]
        _write_u32(buffer, len(trees))
        for tree in trees:
            buffer.write(_U32.pack(len(tree.nodes)))
            for node in tree.nodes:
                buffer.write(
                    _NODE.pack(
                        node.tau_u,
                        node.tau_l,
                        -1 if node.biclique_id is None else node.biclique_id,
                        -1 if node.left is None else node.left,
                        -1 if node.right is None else node.right,
                    )
                )
    payload = buffer.getvalue()
    with open(path, "wb") as handle:
        handle.write(payload)
    return len(payload)


def read_binary(path: str | os.PathLike) -> PMBCIndex:
    """Read an index previously written in the binary format.

    Prefer the unified :meth:`PMBCIndex.load` entry point, which
    auto-detects the format; this function is its binary branch.
    """
    with open(path, "rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:
            raise IndexFormatError("bad magic — not a binary PMBC-Index")
        num_upper = _read_u32(handle)
        num_lower = _read_u32(handle)

        array = BicliqueArray()
        count = _read_u32(handle)
        for __ in range(count):
            size_u = _read_u32(handle)
            size_l = _read_u32(handle)
            upper = frozenset(_read_u32(handle) for __ in range(size_u))
            lower = frozenset(_read_u32(handle) for __ in range(size_l))
            array.add(Biclique(upper=upper, lower=lower))

        trees: dict[Side, list[SearchTree]] = {}
        for side in (Side.UPPER, Side.LOWER):
            tree_count = _read_u32(handle)
            side_trees = []
            for __ in range(tree_count):
                node_count = _read_u32(handle)
                nodes = []
                for __ in range(node_count):
                    raw = handle.read(_NODE.size)
                    if len(raw) != _NODE.size:
                        raise IndexFormatError("truncated file (node)")
                    tau_u, tau_l, biclique_id, left, right = _NODE.unpack(raw)
                    nodes.append(
                        SearchTreeNode(
                            tau_u=tau_u,
                            tau_l=tau_l,
                            biclique_id=(
                                None if biclique_id < 0 else biclique_id
                            ),
                            left=None if left < 0 else left,
                            right=None if right < 0 else right,
                        )
                    )
                side_trees.append(SearchTree(nodes=nodes))
            trees[side] = side_trees
    return PMBCIndex(
        num_upper=num_upper,
        num_lower=num_lower,
        trees=trees,
        array=array,
    )


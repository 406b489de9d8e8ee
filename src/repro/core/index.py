"""The PMBC-Index structure: search-tree forest ``T`` + biclique array ``A``.

Section V of the paper.  Each vertex ``q`` owns a binary search tree
whose root carries ``(τ_U, τ_L) = (1, 1)``; a node holding the
personalized maximum biclique ``C`` spawns at most two children with the
critical combinations ``(|U(C)|+1, τ_L)`` and ``(τ_U, |L(C)|+1)``
(Lemma 4).  Tree nodes point into a shared, deduplicated array of
biclique instances, since one biclique typically answers queries of many
vertices.

Size accounting follows the paper's model: a tree node stores two
integers and three pointers (5 machine words), a biclique instance its
two vertex lists plus two length words.  ``save``/``load`` provide a
JSON serialization for persistence.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.core.result import Biclique
from repro.graph.bipartite import Side

#: Bytes per machine word in the size model.
WORD_BYTES = 8
#: Words per search-tree node: tau_u, tau_l, p_c, p_l, p_r.
NODE_WORDS = 5


@dataclass
class SearchTreeNode:
    """One node of a vertex's search tree (``N`` in the paper)."""

    tau_u: int
    tau_l: int
    biclique_id: int | None = None
    left: int | None = None
    right: int | None = None


@dataclass
class SearchTree:
    """The search tree ``T_q`` of one vertex; node 0 is the root."""

    nodes: list[SearchTreeNode] = field(default_factory=list)

    @property
    def root(self) -> SearchTreeNode | None:
        """The tree's root node, or None for an empty tree."""
        return self.nodes[0] if self.nodes else None

    def __len__(self) -> int:
        return len(self.nodes)

    def walk(self) -> Iterator[SearchTreeNode]:
        """All nodes in insertion (BFS) order."""
        return iter(self.nodes)


class BicliqueArray:
    """The shared array ``A`` with signature-based deduplication."""

    def __init__(self) -> None:
        self._items: list[Biclique] = []
        self._ids: dict[tuple, int] = {}

    def add(self, biclique: Biclique) -> tuple[int, bool]:
        """Insert (or find) ``biclique``; returns ``(id, newly_added)``."""
        signature = biclique.signature()
        existing = self._ids.get(signature)
        if existing is not None:
            return existing, False
        new_id = len(self._items)
        self._items.append(biclique)
        self._ids[signature] = new_id
        return new_id, True

    def __getitem__(self, biclique_id: int) -> Biclique:
        return self._items[biclique_id]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Biclique]:
        return iter(self._items)


@dataclass
class PMBCIndex:
    """The full PMBC-Index of a graph.

    ``trees[side][v]`` is the search tree of vertex ``v`` on ``side``;
    ``array`` is the shared biclique array ``A``.
    """

    num_upper: int
    num_lower: int
    trees: dict[Side, list[SearchTree]]
    array: BicliqueArray

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def tree(self, side: Side, v: int) -> SearchTree:
        """The search tree ``T_v`` of the given vertex."""
        return self.trees[side][v]

    def biclique(self, biclique_id: int) -> Biclique:
        """The biclique instance at the given position of ``A``."""
        return self.array[biclique_id]

    @property
    def num_bicliques(self) -> int:
        """``|A|`` as an element count."""
        return len(self.array)

    @property
    def num_tree_nodes(self) -> int:
        """Total node count over all search trees."""
        return sum(
            len(tree) for side in Side for tree in self.trees[side]
        )

    # ------------------------------------------------------------------
    # Size model (Table III columns |T| and |A|)
    # ------------------------------------------------------------------
    def tree_size_bytes(self) -> int:
        """``|T|`` under the paper's storage model."""
        return self.num_tree_nodes * NODE_WORDS * WORD_BYTES

    def array_size_bytes(self) -> int:
        """``|A|`` under the paper's storage model."""
        return sum(
            (len(b.upper) + len(b.lower) + 2) * WORD_BYTES for b in self.array
        )

    def total_size_bytes(self) -> int:
        """``|T| + |A|``."""
        return self.tree_size_bytes() + self.array_size_bytes()

    def stats(self) -> dict:
        """A summary dictionary used by the benchmark harness."""
        return {
            "num_bicliques": self.num_bicliques,
            "num_tree_nodes": self.num_tree_nodes,
            "tree_size_bytes": self.tree_size_bytes(),
            "array_size_bytes": self.array_size_bytes(),
            "total_size_bytes": self.total_size_bytes(),
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    #: Extensions that :meth:`save` maps to the binary format in
    #: ``format="auto"`` mode.
    BINARY_EXTENSIONS = (".bin", ".pmbc", ".pmbcidx")

    def save(self, path: str | os.PathLike, format: str = "auto") -> None:
        """Write the index to ``path``.

        ``format`` selects the on-disk representation:

        - ``"json"`` — the readable JSON layout;
        - ``"binary"`` — the compact packed layout of
          :mod:`repro.core.serialize` (3–5× smaller);
        - ``"auto"`` (default) — binary when the extension is one of
          :attr:`BINARY_EXTENSIONS`, JSON otherwise.

        :meth:`load` reads either format back without being told which
        one was written.
        """
        if format == "auto":
            extension = os.path.splitext(os.fspath(path))[1].lower()
            format = (
                "binary" if extension in self.BINARY_EXTENSIONS else "json"
            )
        if format == "binary":
            from repro.core.serialize import write_binary

            write_binary(self, path)
            return
        if format != "json":
            raise ValueError(
                f"format must be 'auto', 'json' or 'binary', got {format!r}"
            )
        self._save_json(path)

    def _save_json(self, path: str | os.PathLike) -> None:
        payload = {
            "num_upper": self.num_upper,
            "num_lower": self.num_lower,
            "bicliques": [
                [sorted(b.upper), sorted(b.lower)] for b in self.array
            ],
            "trees": {
                side.value: [
                    [
                        [n.tau_u, n.tau_l, n.biclique_id, n.left, n.right]
                        for n in tree.nodes
                    ]
                    for tree in self.trees[side]
                ]
                for side in Side
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "PMBCIndex":
        """Read an index previously written by :meth:`save`.

        The format is auto-detected: files starting with the binary
        magic bytes are read as binary, everything else as JSON.
        """
        from repro.core.serialize import MAGIC, read_binary

        with open(path, "rb") as handle:
            head = handle.read(len(MAGIC))
        if head == MAGIC:
            return read_binary(path)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        array = BicliqueArray()
        for upper, lower in payload["bicliques"]:
            array.add(Biclique(upper=frozenset(upper), lower=frozenset(lower)))
        trees = {
            side: [
                SearchTree(
                    nodes=[
                        SearchTreeNode(
                            tau_u=n[0],
                            tau_l=n[1],
                            biclique_id=n[2],
                            left=n[3],
                            right=n[4],
                        )
                        for n in tree_nodes
                    ]
                )
                for tree_nodes in payload["trees"][side.value]
            ]
            for side in Side
        }
        return cls(
            num_upper=payload["num_upper"],
            num_lower=payload["num_lower"],
            trees=trees,
            array=array,
        )


def compact_index(index: PMBCIndex) -> tuple[PMBCIndex, int]:
    """A copy of ``index`` without unreferenced bicliques.

    Returns ``(compacted, removed)``.  Surviving bicliques keep their
    relative order in ``A``.  The copy has its own trees and array, so
    a reader still walking ``index`` is never disturbed.
    """
    referenced = sorted(
        {
            node.biclique_id
            for side in Side
            for tree in index.trees[side]
            for node in tree.nodes
            if node.biclique_id is not None
        }
    )
    array = BicliqueArray()
    remap = {old: array.add(index.array[old])[0] for old in referenced}
    trees = {
        side: [
            SearchTree(
                nodes=[
                    replace(node, biclique_id=remap.get(node.biclique_id))
                    for node in tree.nodes
                ]
            )
            for tree in index.trees[side]
        ]
        for side in Side
    }
    compacted = PMBCIndex(
        num_upper=index.num_upper,
        num_lower=index.num_lower,
        trees=trees,
        array=array,
    )
    return compacted, len(index.array) - len(array)

"""Unlabeled trees for the exhaustive small-tree checks (needs networkx)."""

from __future__ import annotations

from typing import Iterator

import networkx as nx

from alignedchains.trees import Tree, build_tree


def nonisomorphic_trees(n: int) -> Iterator[Tree]:
    """All unlabeled trees on n vertices, one representative each."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        yield Tree(((),))
        return
    if n == 2:
        yield build_tree([(0, 1)])
        return
    for g in nx.nonisomorphic_trees(n):
        yield build_tree(list(g.edges()), vertex_count=n)

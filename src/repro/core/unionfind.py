"""Disjoint sets over hashable keys.

Groups world-set components transitively for the confidence computation:
tuples correlated through a chain of shared components are ranked together.
"""

from __future__ import annotations

from typing import Any, Dict


class UnionFind:
    """Union-find with path compression; keys are added on first use."""

    def __init__(self) -> None:
        self._parent: Dict[Any, Any] = {}

    def __contains__(self, key: Any) -> bool:
        return key in self._parent

    def find(self, key: Any) -> Any:
        """The representative of ``key``'s set."""
        root = key
        while (parent := self._parent.setdefault(root, root)) != root:
            root = parent
        while key != root:
            self._parent[key], key = root, self._parent[key]
        return root

    def union(self, left: Any, right: Any) -> None:
        left_root, right_root = self.find(left), self.find(right)
        if left_root != right_root:
            self._parent[right_root] = left_root

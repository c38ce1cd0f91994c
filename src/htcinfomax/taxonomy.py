"""Label hierarchy parsing, validation, and graph-convolution adjacency.

The taxonomy file is UTF-8 text, one parent per line with tab-separated
children, and the token `Root` naming the root.  Multi-parent nodes are
allowed (DAG) as long as the graph stays acyclic and connected from the
root.  The root is a virtual node: it participates in the graph but is
never a prediction target.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

ROOT_TOKEN = "Root"

log = logging.getLogger(__name__)


class TaxonomyError(ValueError):
    """Malformed hierarchy: cycle, orphan node, or missing root."""


@dataclass
class Taxonomy:
    """Rooted label hierarchy with dense ids in first-appearance order."""

    labels: list[str]
    root: int
    children: dict[int, list[int]]
    depth: int
    text: str = field(compare=False, repr=False)    # what parse_taxonomy read; checkpoints store it
    parents: dict[int, list[int]] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_labels(self) -> int:
        """Prediction targets: every node except the virtual root."""
        return len(self.labels) - 1

    def nonroot_ids(self) -> list[int]:
        return [i for i in range(len(self.labels)) if i != self.root]

    def target_index(self) -> dict[int, int]:
        """Map label id -> column in a multi-hot target row."""
        return {label_id: col for col, label_id in enumerate(self.nonroot_ids())}

    def target_names(self) -> list[str]:
        return [self.labels[i] for i in self.nonroot_ids()]

    def id_of(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise KeyError(f"unknown label name {name!r}") from None

    def leaves(self) -> list[int]:
        return [i for i in range(len(self.labels)) if not self.children.get(i)]

    def path_to_root(self, label_id: int) -> list[int]:
        """Ancestors up to (excluding) the root, starting at label_id.

        Follows the first parent at multi-parent nodes.
        """
        path = []
        node = label_id
        while node != self.root:
            path.append(node)
            node = self.parents[node][0]
        return path


def parse_taxonomy(text: str) -> Taxonomy:
    """Parse `parent<TAB>child...` lines into a validated Taxonomy.

    Ids are assigned in first-appearance order; duplicate edges are
    dropped with a warning; cycles and orphan nodes raise TaxonomyError.
    """
    ids: dict[str, int] = {}
    labels: list[str] = []
    children: dict[int, list[int]] = {}
    parents: dict[int, list[int]] = {}

    def intern(name: str) -> int:
        if name not in ids:
            ids[name] = len(labels)
            labels.append(name)
            children[ids[name]] = []
            parents[ids[name]] = []
        return ids[name]

    for line in text.split("\n"):      # lines end at \n only, as corpus lines do
        line = line.removesuffix("\r")
        if not line.strip():
            continue
        names = line.split("\t")
        parent = intern(names[0])
        for child_name in names[1:]:
            if not child_name:
                continue
            child = intern(child_name)
            if child in children[parent]:
                log.warning("duplicate edge %s -> %s, deduplicated", names[0], child_name)
                continue
            children[parent].append(child)
            parents[child].append(parent)

    if ROOT_TOKEN not in ids:
        raise TaxonomyError(f"taxonomy has no {ROOT_TOKEN!r} node")
    root = ids[ROOT_TOKEN]
    if parents[root]:
        raise TaxonomyError("root must not have a parent")

    # Loops, not recursion, so a deep chain parses.  Every node must be
    # reachable from the root; then the nodes are released in topological
    # order, each after all its parents, which fixes its longest-path depth.
    # A node never released lies on or below a cycle.
    reached, stack = {root}, [root]
    while stack:
        for child in children[stack.pop()]:
            if child not in reached:
                reached.add(child)
                stack.append(child)
    unreachable = [labels[i] for i in range(len(labels)) if i not in reached]
    if unreachable:
        raise TaxonomyError(f"orphan nodes not reachable from root: {', '.join(unreachable)}")
    if not children[root]:
        raise TaxonomyError(f"taxonomy has no label under {ROOT_TOKEN!r}")
    waiting = {node: len(ps) for node, ps in parents.items()}
    depth_of = {root: 0}
    ready = [root]
    while ready:
        node = ready.pop()
        depth = depth_of[node] + 1
        for child in children[node]:
            if depth > depth_of.get(child, 0):
                depth_of[child] = depth
            waiting[child] -= 1
            if not waiting[child]:
                ready.append(child)
    stuck = {node for node, count in waiting.items() if count}
    if stuck:
        # each stuck node has a stuck parent: walk parents until one repeats
        trail, node = {}, min(stuck)          # node -> position on the walk
        while node not in trail:
            trail[node] = len(trail)
            node = next(p for p in parents[node] if p in stuck)
        cycle = [node] + list(trail)[trail[node]:][::-1]
        raise TaxonomyError(f"cycle detected: {' -> '.join(labels[n] for n in cycle)}")

    depth = max(depth_of.values())
    return Taxonomy(labels=labels, root=root, children=children, depth=depth, text=text,
                    parents=parents)


def load_taxonomy(path) -> Taxonomy:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise TaxonomyError(f"taxonomy {path} is not UTF-8 text ({err.reason})") from None
    return parse_taxonomy(text)


def normalized_adjacency(tax: Taxonomy) -> Tensor:
    """Symmetric degree-normalized adjacency with self-loops.

    A_hat = D^{-1/2} (A + A^T + I) D^{-1/2} over all nodes including the
    root, where A holds the parent->child edges.
    """
    n = tax.num_nodes
    a = np.zeros((n, n))
    for parent, kids in tax.children.items():
        for child in kids:
            a[parent, child] = 1.0
    sym = a + a.T + np.eye(n)
    inv_sqrt_deg = 1.0 / np.sqrt(sym.sum(axis=1))
    a_hat = sym * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]
    return Tensor(a_hat)

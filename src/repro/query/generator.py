"""Random query-pattern generation.

Stress tests and ablations need patterns beyond the fixed Fig. 7 catalog:
random connected labeled graphs with controllable size and density.  The
generator guarantees connectivity (spanning-tree skeleton first, extra
edges after) and can draw labels from a data graph's alphabet so generated
queries have non-trivial match counts.
"""

from __future__ import annotations

import numpy as np

from repro.query.pattern import QueryGraph
from repro.utils import as_generator, require

__all__ = ["random_query", "rulebook_suite"]

#: a rulebook's skeletons have 4 to 6 vertices, and each member resamples the
#: labels of 0 or 1 of its family's vertices
SKELETON_VERTICES = (4, 6)
MAX_PERTURBATIONS = 1


def random_query(
    num_vertices: int,
    num_edges: int | None = None,
    *,
    num_labels: int | None = None,
    density: float = 0.3,
    seed: int | np.random.Generator | None = 0,
    name: str | None = None,
) -> QueryGraph:
    """Random connected pattern with ``num_vertices`` vertices.

    ``num_edges`` defaults to the spanning tree plus ``density`` of the
    remaining vertex pairs.  ``num_labels=None`` yields a wildcard pattern;
    otherwise labels are drawn uniformly from ``0..num_labels-1``.
    """
    rng = as_generator(seed)
    require(num_vertices >= 2, "pattern needs at least 2 vertices")
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges is None:
        extra = int(round(density * (max_edges - (num_vertices - 1))))
        num_edges = (num_vertices - 1) + extra
    require(num_vertices - 1 <= num_edges <= max_edges,
            f"num_edges must be in [{num_vertices - 1}, {max_edges}]")

    # spanning-tree skeleton: attach each vertex to a random earlier one
    edges: set[tuple[int, int]] = set()
    order = rng.permutation(num_vertices)
    for i in range(1, num_vertices):
        u = int(order[i])
        v = int(order[rng.integers(0, i)])
        edges.add((min(u, v), max(u, v)))
    # densify with uniformly random non-edges
    candidates = [
        (u, v)
        for u in range(num_vertices)
        for v in range(u + 1, num_vertices)
        if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    for u, v in candidates:
        if len(edges) >= num_edges:
            break
        edges.add((u, v))

    labels = None
    if num_labels is not None:
        require(num_labels >= 1, "num_labels must be >= 1")
        labels = rng.integers(0, num_labels, size=num_vertices).tolist()
    return QueryGraph(
        num_vertices,
        sorted(edges),
        labels,
        name or f"rand{num_vertices}v{num_edges}e",
    )


def rulebook_suite(
    count: int,
    *,
    num_labels: int = 3,
    seed: int | np.random.Generator | None = 0,
) -> list[QueryGraph]:
    """Rulebook-style workload: many standing patterns from few families.

    Production rulebooks (fraud rings, rumor motifs) are not ``count``
    unrelated patterns — they are variations on a handful of templates:
    the same ring shape with a different account type at one position.
    This generator mirrors that: it draws ``max(2, min(6, count // 8))``
    random connected skeletons (:data:`SKELETON_VERTICES`), gives each a base
    labeling, then emits ``count`` queries by resampling the labels of
    ``0..MAX_PERTURBATIONS`` vertices of a random family.  Matching orders
    depend only on structure, so family members compile plans whose
    execution signatures agree up to the first perturbed vertex — long
    shared prefixes for the execution trie — and zero-perturbation draws
    yield outright isomorphic duplicates for the symmetry dedupe.  Names are
    zero-padded (``R000`` …) so lexsorted order equals generation order.
    """
    rng = as_generator(seed)
    require(count >= 1, "count must be >= 1")
    require(num_labels >= 1, "num_labels must be >= 1")
    num_families = max(2, min(6, count // 8))
    families = []
    for _ in range(num_families):
        skeleton = random_query(
            int(rng.integers(SKELETON_VERTICES[0], SKELETON_VERTICES[1] + 1)),
            density=float(rng.uniform(0.1, 0.5)),
            seed=rng,
        )
        base_labels = rng.integers(0, num_labels, size=skeleton.num_vertices)
        families.append((skeleton, base_labels))
    width = max(3, len(str(count - 1)))
    suite = []
    for i in range(count):
        skeleton, base_labels = families[int(rng.integers(num_families))]
        labels = base_labels.copy()
        for _ in range(int(rng.integers(0, MAX_PERTURBATIONS + 1))):
            labels[int(rng.integers(skeleton.num_vertices))] = int(
                rng.integers(num_labels)
            )
        suite.append(
            QueryGraph(
                skeleton.num_vertices,
                list(skeleton.edges),
                labels.tolist(),
                name=f"R{i:0{width}d}",
            )
        )
    return suite

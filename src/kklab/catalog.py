"""Internal catalog of small graphs up to isomorphism.

Catalogs are generated on demand (never shipped as data) by vertex
augmentation: every graph on v vertices arises from a graph on v - 1
vertices plus a new vertex attached to some subset, and duplicates are
removed by canonical key.  ``_extend`` is that one step.  ``graphs_on``
applies it to the whole previous level; ``_hereditary_levels`` applies it
to the part of each level that a vertex-deletion-closed property keeps
(the exhaustive sweep keeps the q-sparse classes), so the classes outside
it are never built.  Levels are returned in a deterministic canonical
order, and ``graphs_on`` caches them per vertex count.
"""

from functools import lru_cache

from .graphs import Graph, _packed_key, canonical_form

CATALOG_VERTEX_CAP = 10

# number of graphs on v vertices up to isomorphism, v = 1..CATALOG_VERTEX_CAP
# (OEIS A000088), so callers can count a level without building it
_GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168)


def _extend(level, v: int) -> tuple:
    """Canonical forms of every one-vertex extension of the graphs in
    ``level`` (all on v - 1 vertices), one per class, in key order."""
    found = {}
    for base in level:
        for mask in range(1 << (v - 1)):
            edges = list(base.edges)
            for u in range(v - 1):
                if mask >> u & 1:
                    edges.append((u, v - 1))
            form = canonical_form(Graph(v, edges))
            found.setdefault(_packed_key(form), form)
    return tuple(found[key] for key in sorted(found))


def _hereditary_levels(v_cap: int, keep):
    """Yield, for v = 1..v_cap, the classes on v vertices that satisfy
    ``keep``, in key order, asking ``keep`` once per class.

    ``keep`` must be closed under deleting a vertex, so each kept class is
    an extension of a kept class one vertex smaller and only those are
    extended; with a ``keep`` that accepts everything the levels are
    ``graphs_on(1..v_cap)``.
    """
    level = (Graph(1),)
    for v in range(1, v_cap + 1):
        if v > 1:
            level = _extend(level, v)
        level = tuple(g for g in level if keep(g))
        yield level


@lru_cache(maxsize=None)
def graphs_on(v: int) -> tuple:
    """All graphs on exactly v labeled-as-canonical vertices, one per iso class.

    Isolated vertices are allowed, so the union over v' <= v contains a
    padded representative of every smaller graph as well.
    """
    if not 1 <= v <= CATALOG_VERTEX_CAP:
        raise ValueError(f"catalog supports 1..{CATALOG_VERTEX_CAP} vertices")
    if v == 1:
        return (Graph(1),)
    return _extend(graphs_on(v - 1), v)


def graphs_up_to(v: int):
    """Iterate catalogs for 1..v vertices (each exact-v class once)."""
    for k in range(1, v + 1):
        yield from graphs_on(k)


@lru_cache(maxsize=None)
def trees_on(v: int) -> tuple:
    """All trees on exactly v vertices, one per iso class."""
    return tuple(g for g in graphs_on(v) if g.is_tree())


def trees_up_to(v: int) -> tuple:
    out = []
    for k in range(1, v + 1):
        out.extend(trees_on(k))
    return tuple(out)

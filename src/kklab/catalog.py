"""Internal catalog of small graphs up to isomorphism.

Catalogs are generated on demand (never shipped as data) by vertex
augmentation: every graph on v vertices arises from a graph on v - 1
vertices plus a new vertex attached to some subset, and duplicates are
removed by canonical key.  Results are cached per vertex count and returned
in a deterministic canonical order.
"""

from functools import lru_cache

from .graphs import Graph, _packed_key, canonical_form

CATALOG_VERTEX_CAP = 10


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
    found = {}
    for base in graphs_on(v - 1):
        for mask in range(1 << (v - 1)):
            edges = list(base.edges)
            for u in range(v - 1):
                if mask >> u & 1:
                    edges.append((u, v - 1))
            form = canonical_form(Graph(v, edges))
            found.setdefault(_packed_key(form), form)
    return tuple(found[key] for key in sorted(found))


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

"""Graph values and structural primitives.

Vertices are dense 0-based ids.  A ``Graph`` is an immutable
``util.Record``: the sorted edge tuple and the per-vertex adjacency
bitmasks describe the same relation.  The constructor is the one way to
build one, and it checks every edge list it is given: the adjacency
bitmask it fills in is also its duplicate test, the hash is computed from
``(n, edges)`` when it is asked for, and pickling and copying rebuild the
graph through the constructor from ``(n, edges)``.
Isolated vertices are representable (``n`` may exceed the span of the
edge list); they survive graph6 round trips, and the plain edge-list
format carries them via an explicit ``n=<k>`` header line.

Structural queries here are exact: density as a Fraction, maximum subgraph
density via a parametric min-cut search cross-checked by subset
enumeration, automorphism counts as products of orbit sizes along an
individualization-refinement path (orbit-stabilizer counting), and a
canonical labeling used for deduplication and deterministic tie-breaks.
The count is one orbit-stabilizer search over the whole graph.  The
labeling is a separate search over adjacency rows, because its minimum
leaf is what fixes the pinned canonical forms.  Both start from the one
color refinement, ``refine_colors``, and both read the one twin
partition, ``_twin_classes``: the count stops refining at cells of twins,
and the labeling tries one vertex per twin class at each position.
"""

import math
from fractions import Fraction

from .util import PreconditionError, Record, iter_bits


class GraphParseError(ValueError):
    """Raised for malformed graph input; carries line/offset context."""

    def __init__(self, message, line=None, offset=None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"byte {offset}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)
        self.line = line
        self.offset = offset


class Graph(Record):
    """Immutable simple graph on vertices 0..n-1."""

    n: int
    edges: tuple
    adj: tuple

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        norm = []
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u > v:
                u, v = v, u
            if adj[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            norm.append((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        norm.sort()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "adj", tuple(adj))

    # -- basic queries -----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple:
        return tuple(m.bit_count() for m in self.adj)

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int):
        return iter_bits(self.adj[v])

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    # -- derived graphs ------------------------------------------------------

    def induced(self, vertices) -> "Graph":
        """Induced subgraph relabeled to 0..k-1 in sorted vertex order."""
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        edges = [
            (index[u], index[v]) for u, v in self.edges if u in index and v in index
        ]
        return Graph(len(vs), edges)

    def relabel(self, perm) -> "Graph":
        """Image under the permutation perm[v] = new label of v."""
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    def components(self) -> list:
        """Connected components as sorted vertex lists (singletons included)."""
        seen = 0
        out = []
        for s in range(self.n):
            if seen >> s & 1:
                continue
            comp = 1 << s
            frontier = 1 << s
            while frontier:
                nxt = 0
                for v in iter_bits(frontier):
                    nxt |= self.adj[v]
                frontier = nxt & ~comp
                comp |= nxt
            seen |= comp
            out.append(list(iter_bits(comp)))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_tree(self) -> bool:
        return self.n >= 1 and self.edge_count == self.n - 1 and self.is_connected()

    # -- identity ------------------------------------------------------------

    def __hash__(self):
        return hash((self.n, self.edges))

    def __reduce__(self):
        return Graph, (self.n, self.edges)

    def __repr__(self):
        shown = list(self.edges[:8])
        more = "..." if self.edge_count > 8 else ""
        return f"Graph(n={self.n}, edges={shown}{more})"


# -- constructors -----------------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(k: int) -> Graph:
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(edges: int) -> Graph:
    """Path with ``edges`` edges (edges + 1 vertices)."""
    if edges < 1:
        raise ValueError("a path needs at least 1 edge")
    return Graph(edges + 1, [(i, i + 1) for i in range(edges)])


def star_graph(leaves: int) -> Graph:
    if leaves < 1:
        raise ValueError("a star needs at least 1 leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def bowtie_graph() -> Graph:
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def theta_graph(a: int, b: int, c: int) -> Graph:
    """Two hub vertices joined by three internally disjoint paths of a, b, c edges."""
    lengths = sorted((a, b, c))
    if lengths[0] < 1 or lengths[1] < 2:
        raise ValueError("theta paths need >= 1 edge each, at most one of length 1")
    edges = []
    n = 2
    for length in (a, b, c):
        prev = 0
        for step in range(length - 1):
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, 1))
    return Graph(n, edges)


def spider_graph(leg_lengths) -> Graph:
    """Paths of the given edge lengths glued at a common center vertex."""
    legs = [int(x) for x in leg_lengths]
    if not legs or any(x < 1 for x in legs):
        raise ValueError("spider legs must be >= 1 edge each")
    edges = []
    n = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev = n
            n += 1
    return Graph(n, edges)


def path_power_graph(n: int, k: int) -> Graph:
    """Vertices 0..n-1 with edges between ids at distance <= k."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, min(i + k + 1, n))])


def disjoint_union(*graphs: Graph) -> Graph:
    n = 0
    edges = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges)
        n += g.n
    return Graph(n, edges)


# -- graph6 codec -------------------------------------------------------------


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (optional >>graph6<< prefix tolerated)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphParseError("empty graph6 input")
    data = s.encode("ascii", errors="replace")
    for i, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise GraphParseError(f"graph6 byte {byte!r} out of range", offset=i)
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise GraphParseError("truncated graph6 size block", offset=len(data))
            n = 0
            for byte in data[2:8]:
                n = n << 6 | (byte - 63)
            pos = 8
        else:
            if len(data) < 4:
                raise GraphParseError("truncated graph6 size block", offset=len(data))
            n = 0
            for byte in data[1:4]:
                n = n << 6 | (byte - 63)
            pos = 4
    else:
        n = data[0] - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = -(-nbits // 6)
    if len(data) - pos != nbytes:
        raise GraphParseError(
            f"graph6 body for n={n} needs {nbytes} bytes, found {len(data) - pos}",
            offset=pos,
        )
    bits = 0
    for byte in data[pos:]:
        bits = bits << 6 | (byte - 63)
    bits >>= nbytes * 6 - nbits if nbits else 0
    edges = []
    k = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if nbits and bits >> k & 1:
                edges.append((i, j))
            k -= 1
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    """Header-free graph6 encoding (byte-exact, 6-bit groups offset by 63)."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:
        head = [126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
    _, bits = _packed_key(g)
    nbits = n * (n - 1) // 2
    nbytes = -(-nbits // 6)
    if nbits:
        bits <<= nbytes * 6 - nbits
    body = [((bits >> (6 * (nbytes - 1 - i))) & 63) + 63 for i in range(nbytes)]
    return bytes(head + body).decode("ascii")


# -- edge-list codec -----------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse "u v" lines; an optional first line "n=<k>" declares the size."""
    declared = None
    pairs = []
    pair_set = set()
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("n="):
            if declared is not None or pairs:
                raise GraphParseError("n= header must be the first line", line=lineno)
            try:
                declared = int(line[2:])
            except ValueError:
                raise GraphParseError(f"bad size header {line!r}", line=lineno)
            if declared < 0:
                raise GraphParseError("size header must be >= 0", line=lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', found {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer endpoint in {line!r}", line=lineno)
        if u < 0 or v < 0:
            raise GraphParseError("vertex ids must be >= 0", line=lineno)
        if u == v:
            raise GraphParseError(f"loop edge at vertex {u}", line=lineno)
        key = (min(u, v), max(u, v))
        if key in pair_set:
            raise GraphParseError(f"duplicate edge ({u}, {v})", line=lineno)
        pair_set.add(key)
        pairs.append(key)
        max_seen = max(max_seen, u, v)
    n = declared if declared is not None else max_seen + 1
    if n < max_seen + 1:
        raise GraphParseError(f"header n={n} smaller than largest vertex id {max_seen}")
    return Graph(max(n, 0), pairs)


def to_edge_list(g: Graph) -> str:
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """Sniff edge-list vs graph6 and parse accordingly."""
    stripped = text.strip()
    if not stripped:
        raise GraphParseError("empty graph input")
    first = stripped.splitlines()[0].strip()
    if first.startswith("n=") or (
        len(first.split()) == 2 and all(_is_int(tok) for tok in first.split())
    ):
        return parse_edge_list(text)
    return parse_graph6(stripped)


def _is_int(tok: str) -> bool:
    try:
        int(tok)
        return True
    except ValueError:
        return False


# -- density -------------------------------------------------------------------


class DensityValue(Record):
    """An achieved density e(U)/|U| together with its witness vertex set."""

    numerator: int
    denominator: int
    witness: tuple

    def __post_init__(self):
        if self.denominator < 1 or not self.witness:
            raise ValueError("density witness must be nonempty")

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def density(g: Graph) -> Fraction:
    """e/v of the whole graph; needs at least one vertex."""
    if g.n == 0:
        raise PreconditionError("density of the empty graph is undefined")
    return Fraction(g.edge_count, g.n)


def _edges_within(g: Graph, mask: int) -> int:
    total = 0
    for v in iter_bits(mask):
        total += (g.adj[v] & mask).bit_count()
    return total // 2


def _span_mask(g: Graph, emask: int) -> int:
    """The vertex mask spanned by the edge mask ``emask`` of g, whose bit i
    stands for g.edges[i]."""
    vm = 0
    edges = g.edges
    while emask:
        low = emask & -emask
        a, b = edges[low.bit_length() - 1]
        vm |= 1 << a | 1 << b
        emask ^= low
    return vm


def _edge_mask_within(g: Graph, vmask: int) -> int:
    """The edge mask of g's edges with both ends in the vertex mask ``vmask``."""
    emask = 0
    for i, (a, b) in enumerate(g.edges):
        if vmask >> a & vmask >> b & 1:
            emask |= 1 << i
    return emask


def max_density_bruteforce(g: Graph, vertex_limit: int = 20) -> DensityValue:
    """Exact max over nonempty subsets by enumeration (guard at vertex_limit)."""
    if g.n == 0:
        raise PreconditionError("max density of the empty graph is undefined")
    if g.n > vertex_limit:
        raise ValueError(f"subset enumeration capped at {vertex_limit} vertices")
    if g.edge_count == 0:
        return DensityValue(0, 1, (0,))
    # e(mask) by peeling the lowest set bit keeps the scan linear per subset
    ecount = [0] * (1 << g.n)
    best = Fraction(0)
    best_num, best_den, best_mask = 0, 1, 1
    for mask in range(1, 1 << g.n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        ecount[mask] = ecount[rest] + (g.adj[v] & rest).bit_count()
        val = Fraction(ecount[mask], mask.bit_count())
        if val > best:
            best = val
            best_num, best_den, best_mask = ecount[mask], mask.bit_count(), mask
    return DensityValue(best_num, best_den, tuple(iter_bits(best_mask)))


class _Dinic:
    def __init__(self, size: int):
        self.size = size
        self.head = [[] for _ in range(size)]

    def add(self, u: int, v: int, cap: int):
        self.head[u].append([v, cap, len(self.head[v])])
        self.head[v].append([u, 0, len(self.head[u]) - 1])

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.size
            level[s] = 0
            queue = [s]
            for u in queue:
                for arc in self.head[u]:
                    if arc[1] > 0 and level[arc[0]] < 0:
                        level[arc[0]] = level[u] + 1
                        queue.append(arc[0])
            if level[t] < 0:
                return flow
            it = [0] * self.size

            def dfs(u, pushed):
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    arc = self.head[u][it[u]]
                    v, cap, rev = arc
                    if cap > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, cap))
                        if got:
                            arc[1] -= got
                            self.head[v][rev][1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 62)
                if not pushed:
                    break
                flow += pushed

    def source_side(self, s: int) -> int:
        mask = 1 << s
        queue = [s]
        for u in queue:
            for v, cap, _ in self.head[u]:
                if cap > 0 and not mask >> v & 1:
                    mask |= 1 << v
                    queue.append(v)
        return mask


def _denser_subset(g: Graph, num: int, den: int):
    """Vertex mask U with e(U)/|U| > num/den, or 0 if none (min-cut test)."""
    n, m = g.n, g.edge_count
    net = _Dinic(n + 2)
    s, t = n, n + 1
    for v in range(n):
        net.add(s, v, g.degree(v) * den)
        net.add(v, t, 2 * num)
    for u, v in g.edges:
        net.add(u, v, den)
        net.add(v, u, den)
    cut = net.max_flow(s, t)
    if cut >= 2 * m * den:
        return 0
    side = net.source_side(s)
    return side & ((1 << n) - 1)


def max_density(g: Graph) -> DensityValue:
    """Maximum density over nonempty subsets, by parametric min-cut search.

    Starting from the whole graph, each round asks the cut oracle for a
    strictly denser subset at the current best ratio; densities take at
    most v distinct denominators, so the ascent terminates at the optimum.
    """
    if g.n == 0:
        raise PreconditionError("max density of the empty graph is undefined")
    if g.edge_count == 0:
        return DensityValue(0, 1, (0,))
    mask = g.vertex_mask()
    num, den = g.edge_count, g.n
    while True:
        better = _denser_subset(g, num, den)
        if not better:
            return DensityValue(num, den, tuple(iter_bits(mask)))
        mask = better
        num, den = _edges_within(g, mask), mask.bit_count()


# -- orderings, refinement, automorphisms ---------------------------------------


def degeneracy_order(g: Graph) -> list:
    """Vertices in smallest-last peeling order; ties by smallest id."""
    alive = g.vertex_mask()
    deg = list(g.degrees())
    order = []
    for _ in range(g.n):
        pick = min(iter_bits(alive), key=lambda v: (deg[v], v))
        order.append(pick)
        alive ^= 1 << pick
        for w in iter_bits(g.adj[pick] & alive):
            deg[w] -= 1
    return order


def refine_colors(g: Graph, colors=None) -> list:
    """Equitable vertex coloring: a start coloring refined by neighbor colors.

    The start is the degree of each vertex unless ``colors`` is given.  Each
    round keys a vertex by its color and the sorted colors of its neighbors
    (read off the ``adj`` bitmasks) and recolors by the rank of its key; the
    loop ends when a round splits no class or leaves none to split.  Colors
    are ranks of sorted invariant keys, so they are comparable between
    isomorphic colored graphs round by round.
    """
    adj = g.adj
    colors = [m.bit_count() for m in adj] if colors is None else list(colors)
    classes = len(set(colors))
    while True:
        keys = []
        for v, m in enumerate(adj):
            around = []
            while m:
                low = m & -m
                around.append(colors[low.bit_length() - 1])
                m ^= low
            around.sort()
            keys.append((colors[v], tuple(around)))
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        colors = [rank[key] for key in keys]
        if len(rank) == classes or len(rank) == len(keys):
            return colors
        classes = len(rank)


def _find(parent: list, x: int) -> int:
    """Union-find root of x, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _individualize(colors: list, v: int) -> list:
    """The coloring with v split off, just above the rest of its class."""
    out = [2 * c for c in colors]
    out[v] += 1
    return out


def _cells(colors: list) -> list:
    """Classes of two or more vertices, in color order."""
    if len(set(colors)) == len(colors):
        return []
    members = {}
    for v, c in enumerate(colors):
        members.setdefault(c, []).append(v)
    return [members[c] for c in sorted(members) if len(members[c]) > 1]


def _twin_classes(adj) -> list:
    """The twin partition: each vertex labeled by the least vertex of its class.

    Swapping u and v is an automorphism exactly when their open
    neighbourhoods are equal (u, v non-adjacent) or their closed ones are
    (u, v adjacent).  No vertex has twins of both kinds: an open twin of u
    lies outside N[u], which every closed twin of u shares.  So one grouping
    by each neighbourhood gives the classes, and every permutation of a
    class that fixes all other vertices is an automorphism.
    """
    open_first, closed_first = {}, {}
    return [
        min(open_first.setdefault(m, v), closed_first.setdefault(m | 1 << v, v))
        for v, m in enumerate(adj)
    ]


def automorphism_count(g: Graph) -> int:
    """|Aut(g)| as the product of orbit sizes along one individualization path.

    The path refines, individualizes the first vertex v_i of the first
    non-singleton cell and refines again.  Aut(g, P_i), the automorphisms
    preserving the i-th coloring, is the pointwise stabilizer of
    v_0..v_{i-1}, so |Aut(g)| is the product over i of the size of the
    orbit of v_i under Aut(g, P_i), times |Aut(g, P_d)| at the end of the
    path.  The path ends once every non-singleton cell lies in one class of
    ``_twin_classes``, where Aut(g, P_d) is the product of the symmetric
    groups of the cells.

    Walking the path bottom-up, a twin cell is one orbit; otherwise a
    union-find over the automorphisms found so far settles most of the
    cell, and each remaining vertex w costs a search for one automorphism
    sending v_i to w (McKay & Piperno, Practical graph isomorphism II,
    J. Symb. Comput. 2014).  The search individualizes w and follows the
    path's cells, pruning any branch whose color shape leaves the path's.
    Refinement never reorders classes, so at a leaf of matching shape the
    color-matching map already sends v_i to w and preserves P_i: only the
    edges are left to check.  The search runs on the whole graph, connected
    or not, so it also finds the automorphisms that swap isomorphic
    components.
    """
    n = g.n
    adj = g.adj
    twin = _twin_classes(adj)

    def twin_cell(cell):
        return all(twin[u] == twin[cell[0]] for u in cell)

    path = [refine_colors(g)]
    fixed = []
    while True:
        cells = _cells(path[-1])
        if all(twin_cell(cell) for cell in cells):
            break
        fixed.append(cells[0][0])
        path.append(refine_colors(g, _individualize(path[-1], cells[0][0])))
    total = 1
    for cell in cells:
        total *= math.factorial(len(cell))
    depth = len(fixed)
    if not depth:
        return total
    parent = list(range(n))  # union-find over the orbits seen so far

    def join(pairs):
        for x, y in pairs:
            a, b = _find(parent, x), _find(parent, y)
            if a != b:
                parent[a] = b

    for cell in cells:
        join(zip(cell, cell[1:]))
    shapes = [sorted(p) for p in path]
    by_color = sorted(range(n), key=path[-1].__getitem__)

    def match(j: int, right: list):
        """An automorphism whose refinement path runs through ``right`` at depth j."""
        if sorted(right) != shapes[j]:
            return None
        if j == depth:
            perm = [0] * n
            for x, y in zip(by_color, sorted(range(n), key=right.__getitem__)):
                perm[x] = y
            if all(adj[perm[a]] >> perm[b] & 1 for a, b in g.edges):
                return perm
            return None
        c = path[j][fixed[j]]
        for y, cy in enumerate(right):
            if cy == c:
                got = match(j + 1, refine_colors(g, _individualize(right, y)))
                if got is not None:
                    return got
        return None

    for i in reversed(range(depth)):
        v = fixed[i]
        top = path[i]
        cell = [w for w in range(n) if top[w] == top[v]]
        if twin_cell(cell):
            join(zip(cell, cell[1:]))
        outside = []  # vertices known to miss v's orbit
        for w in cell[1:]:
            root = _find(parent, w)
            if root == _find(parent, v) or any(_find(parent, x) == root for x in outside):
                continue
            perm = match(i + 1, refine_colors(g, _individualize(top, w)))
            if perm is None:
                outside.append(w)
            else:
                join(enumerate(perm))
        root = _find(parent, v)
        total *= sum(1 for w in cell if _find(parent, w) == root)
    return total


# -- canonical labeling -----------------------------------------------------------


def _canonical_perm(g: Graph) -> list:
    """Permutation old->new minimizing the packed upper-triangle adjacency."""
    n = g.n
    colors = refine_colors(g)
    # positions are blocked by color class, classes in rank order
    class_of_pos = []
    for c in sorted(set(colors)):
        class_of_pos.extend([c] * colors.count(c))
    twin = _twin_classes(g.adj)

    best_rows = None
    best_perm = None
    placed = []  # vertices in position order
    pos_of = [-1] * n

    def walk(pos: int, rows: list):
        nonlocal best_rows, best_perm
        if pos == n:
            if best_rows is None or rows < best_rows:
                best_rows = list(rows)
                best_perm = list(placed)
            return
        want = class_of_pos[pos]
        candidates = []
        seen_twin = set()
        for v in range(n):
            if pos_of[v] >= 0 or colors[v] != want:
                continue
            if twin[v] in seen_twin:
                continue  # a prior candidate maps to v by an automorphism
            seen_twin.add(twin[v])
            row = 0
            for i, w in enumerate(placed):
                row |= (g.adj[v] >> w & 1) << i
            candidates.append((row, v))
        candidates.sort()
        if not candidates:
            return
        low = candidates[0][0]
        for row, v in candidates:
            if row != low:
                break
            trial = rows + [row]
            if best_rows is not None and trial > best_rows[: len(trial)]:
                continue
            placed.append(v)
            pos_of[v] = pos
            walk(pos + 1, trial)
            placed.pop()
            pos_of[v] = -1

    walk(0, [])
    perm = [0] * n
    for position, v in enumerate(best_perm):
        perm[v] = position
    return perm


def canonical_form(g: Graph) -> Graph:
    """Isomorphism-invariant representative with the same vertex count."""
    return g.relabel(_canonical_perm(g))


def canonical_key(g: Graph):
    """Hashable isomorphism invariant: (n, packed canonical adjacency)."""
    return _packed_key(canonical_form(g))


def _packed_key(cf: Graph):
    """``canonical_key`` of a graph already in canonical form.

    The bits are the upper triangle of the adjacency matrix column by
    column, (0, 1) first and most significant: graph6's body order, so
    ``to_graph6`` packs any graph's body through this function too."""
    bits = 0
    for j in range(1, cf.n):
        for i in range(j):
            bits = bits << 1 | (cf.adj[i] >> j & 1)
    return (cf.n, bits)

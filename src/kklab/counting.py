"""Exact subgraph counting.

The generic routine counts labeled embeddings (injections preserving
pattern edges) by backtracking over a BFS ordering of the pattern with
bitset candidate intersection.  That ordering, the match plan, depends on
the pattern alone: a bounded ``lru_cache`` builds it once per pattern for
every walk and estimate.  Degree pruning is one mask per plan step,
built once per walk: the host vertices of degree at least that of the
step's pattern vertex.  Unlabeled copy counts divide by the pattern's
automorphisms.  Specialized counters for cliques, cycles, and
fixed-endpoint paths follow canonical enumeration orders so each object
is seen exactly once, and must agree with the generic oracle.

The walks that only count (``count_labeled``, ``count_cycles`` and the
x-y path walks) never step into their last level: the candidates there
are one bitmask, counted with ``int.bit_count``, and the node budget is
charged for all of them in one spend.  The total spent is the same as a
leaf-by-leaf walk's, so every count and every refusal is too.

All counters take an optional node budget, one per call, spent by a
single serial walk, so a refusal never depends on how the work is run;
``max_xy_paths`` spends one budget across all its endpoint pairs.
When the running node count exceeds it, counting refuses with
``ResourceGuardError`` rather than returning a truncated value.
``count_labeled`` and ``iter_labeled`` (so also ``count_copies``) refuse
up front when the frontier estimate exceeds it, too; ``contains`` and
``copies_as_edge_masks`` run the same embedding walk on the node budget
alone.  An argument outside a counter's domain (an empty pattern, a
clique order below 1) raises ``util.PreconditionError``.
"""

from functools import lru_cache

from .graphs import Graph, automorphism_count, degeneracy_order
from .util import PreconditionError, ResourceGuardError, iter_bits

DEFAULT_NODE_BUDGET = 50_000_000
DEFAULT_COPY_CAP = 200_000
_PLAN_MEMO_CAP = 256  # distinct patterns; a run uses a handful


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit if limit is not None else DEFAULT_NODE_BUDGET
        self.used = 0

    def spend(self, amount: int = 1):
        self.used += amount
        if self.used > self.limit:
            raise ResourceGuardError(
                f"node budget of {self.limit} exhausted; raise the budget to proceed"
            )


@lru_cache(maxsize=_PLAN_MEMO_CAP)
def _match_plan(pattern: Graph) -> tuple:
    """Steps (vertex, earlier-position neighbor tuple) in per-component BFS
    order; built once per pattern and shared by every walk and estimate."""
    seen = set()
    order = []
    for start in range(pattern.n):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in pattern.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    pos = {v: i for i, v in enumerate(order)}
    return tuple(
        (v, tuple(sorted(pos[w] for w in pattern.neighbors(v) if pos[w] < i)))
        for i, v in enumerate(order)
    )


def frontier_estimate(host: Graph, pattern: Graph) -> int:
    """Refusal heuristic for the work of embedding ``pattern`` in ``host``.

    Forests get a homomorphism-count DP (homs dominate embeddings); other
    patterns get a branching product.  Neither is a bound on backtracking
    nodes (the walk also visits dead-end partial embeddings: K3 in K6
    estimates 150 and visits 156).  It only refuses hopeless work up
    front and is never reported as a count; the hard guard is the running
    node budget, which refuses as soon as the walk exceeds it.
    """
    if pattern.n == 0:
        return 1
    if pattern.edge_count == pattern.n - len(pattern.components()):
        return max(1, _forest_hom_count(host, pattern))
    est = 1
    dmax = max(1, host.max_degree())
    for _, earlier in _match_plan(pattern):
        est *= dmax if earlier else max(1, host.n)
        if est > 1 << 62:
            break
    return est


def _forest_hom_count(host: Graph, pattern: Graph) -> int:
    # in BFS order a forest vertex's one earlier neighbor is its parent, so
    # walking the plan backwards finishes each subtree before its parent;
    # h[idx][x]: homs of the subtree at step idx sending its vertex to x
    plan = _match_plan(pattern)
    h = [[1] * host.n for _ in plan]
    total = 1
    for idx in reversed(range(len(plan))):
        earlier = plan[idx][1]
        if earlier:
            up, down = h[earlier[0]], h[idx]
            for x in range(host.n):
                up[x] *= sum(down[y] for y in iter_bits(host.adj[x]))
        else:
            total *= sum(h[idx])
    return total


def _run_embedding(host: Graph, pattern: Graph, budget, on_hit=None):
    """Shared backtracking core; calls on_hit(assignment) per embedding.

    on_hit returning True stops the search early.  Returns the number of
    embeddings visited.  With no on_hit the walk only counts: the last
    step's candidates are counted by popcount and spent in bulk.
    """
    return _walk(host.adj, pattern, budget, on_hit)


def _walk(adj, pattern: Graph, budget, on_hit=None):
    # _run_embedding's walk on the host's adjacency masks alone, so a
    # caller holding only masks (a Monte Carlo trial) builds no Graph
    plan = _match_plan(pattern)
    last = len(plan) - 1
    back = [earlier for _, earlier in plan]
    # the degree test depends only on the step: fit[idx] holds the host
    # vertices of degree at least that of the step's pattern vertex
    degs = list(map(int.bit_count, adj))
    needs = [pattern.degree(v) for v, _ in plan]
    fit_of = {need: sum(1 << w for w, d in enumerate(degs) if d >= need) for need in set(needs)}
    fit = [fit_of[need] for need in needs]
    assign = [0] * (last + 1)
    spend = budget.spend
    hits = 0

    def walk(idx: int, used: int) -> bool:
        nonlocal hits
        mask = fit[idx] & ~used
        for p in back[idx]:
            mask &= adj[assign[p]]
        if on_hit is None and idx == last:
            leaves = mask.bit_count()
            spend(leaves)
            hits += leaves
            return False
        while mask:
            low = mask & -mask
            mask ^= low
            spend()
            assign[idx] = low.bit_length() - 1
            if idx == last:
                hits += 1
                if on_hit(tuple(assign)):
                    return True
            elif walk(idx + 1, used | low):
                return True
        return False

    walk(0, 0)
    return hits


def _has_copy(adj, pattern: Graph, node_budget=None) -> bool:
    # the existence walk shared by ``contains`` and the Monte Carlo
    # trials: stops at the first embedding
    return _walk(adj, pattern, _Budget(node_budget), lambda a: True) > 0


def _embedding_budget(host: Graph, pattern: Graph, node_budget):
    """The budget for one embedding walk, None when the pattern cannot fit;
    refuses up front when the frontier estimate exceeds the budget."""
    if pattern.n == 0:
        raise PreconditionError("pattern needs at least one vertex")
    if pattern.n > host.n:
        return None
    budget = _Budget(node_budget)
    if frontier_estimate(host, pattern) > budget.limit:
        raise ResourceGuardError(
            f"frontier estimate exceeds node budget {budget.limit}"
        )
    return budget


def count_labeled(host: Graph, pattern: Graph, node_budget=None) -> int:
    """Number of labeled embeddings of ``pattern`` into ``host``."""
    budget = _embedding_budget(host, pattern, node_budget)
    if budget is None:
        return 0
    return _run_embedding(host, pattern, budget)


def iter_labeled(host: Graph, pattern: Graph, node_budget=None):
    """Each labeled embedding as a tuple indexed by pattern vertex; refuses
    on the same estimate and budget as ``count_labeled``.  The whole walk
    finishes, holding every embedding, before the first one is yielded."""
    budget = _embedding_budget(host, pattern, node_budget)
    if budget is None:
        return
    plan = _match_plan(pattern)
    out = []

    def collect(assign):
        by_vertex = [0] * pattern.n
        for idx, (v, _) in enumerate(plan):
            by_vertex[v] = assign[idx]
        out.append(tuple(by_vertex))
        return False

    _run_embedding(host, pattern, budget, collect)
    yield from out


def contains(host: Graph, pattern: Graph, node_budget=None) -> bool:
    """Does ``host`` contain a (not necessarily induced) copy of ``pattern``?"""
    if pattern.n == 0:
        raise PreconditionError("pattern needs at least one vertex")
    if pattern.n > host.n:
        return False
    if pattern.edge_count > host.edge_count:
        return False
    return _has_copy(host.adj, pattern, node_budget)


def count_copies(host: Graph, pattern: Graph, node_budget=None, threads: int = 1) -> int:
    """Number of distinct subgraphs of ``host`` isomorphic to ``pattern``.

    Labeled embeddings divided by pattern automorphisms; this is the generic
    oracle the specialized counters are checked against.  ``threads`` is
    accepted for compatibility and ignored: counting runs serially.
    """
    labeled = count_labeled(host, pattern, node_budget=node_budget)
    aut = automorphism_count(pattern)
    if labeled % aut:
        raise AssertionError("labeled count not divisible by automorphisms")
    return labeled // aut


# -- specialized counters -----------------------------------------------------


def count_cliques(host: Graph, r: int, node_budget=None) -> int:
    """Number of r-cliques, by ascending-id recursion after degeneracy relabeling."""
    if r < 1:
        raise PreconditionError("clique order must be >= 1")
    if r > host.n:
        return 0
    order = degeneracy_order(host)
    perm = [0] * host.n
    for idx, v in enumerate(order):
        perm[v] = idx
    rel = host.relabel(perm)
    adj = rel.adj
    budget = _Budget(node_budget)

    def rec(mask: int, t: int) -> int:
        if t == 1:
            return mask.bit_count()
        total = 0
        m = mask
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            budget.spend()
            if (m & adj[u]).bit_count() >= t - 1:
                total += rec(m & adj[u], t - 1)
        return total

    return rec(rel.vertex_mask(), r)


def count_cycles(host: Graph, k: int, node_budget=None) -> int:
    """Number of k-cycles; each cycle seen once, rooted at its minimum vertex
    and oriented toward the smaller of the root's two cycle neighbors."""
    if k < 3:
        raise PreconditionError("cycle length must be >= 3")
    if k > host.n:
        return 0
    adj = host.adj
    budget = _Budget(node_budget)
    full = host.vertex_mask()
    total = 0
    for r in range(host.n):
        higher = full & ~((1 << (r + 1)) - 1)

        def dfs(u: int, visited: int, depth: int, first: int) -> int:
            nxt = adj[u] & higher & ~visited
            if depth == k - 2:
                # u's node and one per last vertex, which closes a cycle
                # when adjacent to r and above first
                budget.spend(1 + nxt.bit_count())
                return (nxt & adj[r] & ~((2 << first) - 1)).bit_count()
            budget.spend()
            got = 0
            for w in iter_bits(nxt):
                got += dfs(w, visited | 1 << w, depth + 1, first)
            return got

        for a in iter_bits(adj[r] & higher):
            total += dfs(a, 1 << a, 1, a)
    return total


def count_xy_paths(host: Graph, x: int, y: int, edges: int, node_budget=None) -> int:
    """Simple paths with exactly ``edges`` edges from x to y."""
    if x == y:
        raise PreconditionError("path endpoints must differ")
    if edges < 1:
        raise PreconditionError("path length must be >= 1 edge")
    if not (0 <= x < host.n and 0 <= y < host.n):
        raise PreconditionError("endpoint out of range")
    return _xy_paths(host, x, y, edges, _Budget(node_budget))


def _xy_paths(host: Graph, x: int, y: int, edges: int, budget) -> int:
    adj = host.adj

    def dfs(u: int, visited: int, left: int) -> int:
        if left == 1:
            # u's node and one per last vertex, of which only y ends a path
            last = adj[u] & ~visited
            budget.spend(1 + last.bit_count())
            return last >> y & 1
        budget.spend()
        total = 0
        for w in iter_bits(adj[u] & ~visited & ~(1 << y)):
            total += dfs(w, visited | 1 << w, left - 1)
        return total

    return dfs(x, 1 << x, edges)


def max_xy_paths(host: Graph, edges: int, node_budget=None) -> tuple:
    """Max over distinct vertex pairs of the x-y path count; returns (count, (x, y)).

    Ties resolve to the lexicographically first pair.  All pairs spend one
    node budget.
    """
    if host.n < 2:
        raise PreconditionError("need at least two vertices for an endpoint pair")
    if edges < 1:
        raise PreconditionError("path length must be >= 1 edge")
    budget = _Budget(node_budget)
    best = -1
    best_pair = (0, 1)
    for x in range(host.n):
        for y in range(x + 1, host.n):
            got = _xy_paths(host, x, y, edges, budget)
            if got > best:
                best = got
                best_pair = (x, y)
    return best, best_pair


# -- edge-disjoint packing ------------------------------------------------------


def copies_as_edge_masks(
    host: Graph, pattern: Graph, copy_cap=None, node_budget=None
) -> list:
    """Distinct copies of ``pattern`` in ``host`` as bitmasks over host edge indices.

    The cap is checked as each embedding is found, so an oversized copy
    list is refused without finishing the walk.
    """
    return _edge_masks(host, pattern, copy_cap, _Budget(node_budget))


def _edge_masks(host: Graph, pattern: Graph, copy_cap, budget: _Budget) -> list:
    if pattern.edge_count == 0:
        raise PreconditionError("packing needs a pattern with at least one edge")
    if pattern.n > host.n:
        return []
    cap = copy_cap if copy_cap is not None else DEFAULT_COPY_CAP
    edge_index = {e: i for i, e in enumerate(host.edges)}
    step_of = {v: idx for idx, (v, _) in enumerate(_match_plan(pattern))}
    pairs = [(step_of[a], step_of[b]) for a, b in pattern.edges]
    masks = set()

    def add(assign):
        m = 0
        for a, b in pairs:
            u, v = assign[a], assign[b]
            m |= 1 << edge_index[(min(u, v), max(u, v))]
        masks.add(m)
        if len(masks) > cap:
            raise ResourceGuardError(
                f"copy list exceeds cap {cap}; raise the cap to proceed"
            )
        return False

    _run_embedding(host, pattern, budget, add)
    return sorted(masks)


def packing_number(
    host: Graph, pattern: Graph, mode: str = "exact", copy_cap=None, node_budget=None
) -> int:
    """Maximum number of pairwise edge-disjoint copies of ``pattern`` in ``host``.

    mode="exact" runs branch and bound over the copy list with the
    free-edges/e_J bound; mode="greedy" scans copies in deterministic order
    and reports the (lower-bound) greedy packing size.  One node budget
    covers the call: the walk that lists the copies spends it first, then
    each branch-and-bound call spends one node.
    """
    if mode not in ("exact", "greedy"):
        raise PreconditionError("mode must be 'exact' or 'greedy'")
    budget = _Budget(node_budget)
    copies = _edge_masks(host, pattern, copy_cap, budget)
    if not copies:
        return 0
    if mode == "greedy":
        used = 0
        taken = 0
        for m in copies:
            if not m & used:
                used |= m
                taken += 1
        return taken
    e_pattern = pattern.edge_count
    total_edges = host.edge_count
    best = 0

    def bnb(idx: int, used: int, chosen: int):
        nonlocal best
        budget.spend()
        if chosen > best:
            best = chosen
        free = total_edges - used.bit_count()
        if chosen + free // e_pattern <= best:
            return
        if chosen + len(copies) - idx <= best:
            return
        for i in range(idx, len(copies)):
            if not copies[i] & used:
                bnb(i + 1, used | copies[i], chosen + 1)

    bnb(0, 0, 0)
    return best

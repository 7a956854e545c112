"""Expectations over G(n,p) and exact sparsity thresholds.

The expected copy count of a pattern J in G(n,p) is
(n)_{v_J}/aut(J) * p^{e_J}.  A host H is q-sparse at scale n when every
subgraph I of H with an edge has expected count at least 1; the least such
q is the maximum over I of N(K_n,I)^(-1/e_I).  The expectation threshold
p_E uses target 1/2 instead of 1 and shares the same scan.

Subgraphs are realized as edge subsets with isolated vertices dropped:
adding an isolated vertex multiplies N(K_n,I) by a factor >= 1 (more
placements), so it never attains the threshold maximum and never creates
a violation that the stripped subgraph lacks.  Thresholds depend on a
subset only through (v_I, e_I, aut_I), so the scan aggregates subsets
into classes keyed by that triple.  All verdicts are exact: rational q
uses pure rational arithmetic (N * q^e vs 1), root-shaped q cross-powers
integers, and no comparison ever goes through floating point.

Every scan is one walker feeding one of two sinks.  The walker,
``_gray_steps``, visits the nonempty edge subsets in Gray-code order and
keeps (v, e, sym) up to date in O(1) per step, where sym = prod_d m_d! over
the spanned vertices' degree classes (m_d vertices of degree d).

A subset's expectation and threshold grow with aut, so any cap on aut
settles a subset whose capped value is already on the safe side.  The
scans use three tiers, cheapest first:

1. sym, free from the walker.  Automorphisms preserve degree, so
   aut <= sym <= v!.
2. sig = prod_s m_s!, over the classes of vertices with one signature
   s = (degree, sorted neighbour degrees), built by ``_signature_key``
   only for the subsets that sym does not settle.  Automorphisms preserve
   signatures too (one round of colour refinement), and signature classes
   split degree classes, so aut <= sig <= sym.  The subset's profile
   (``_subset_profile``) is built once here and handed on to tier 3.
3. aut, an automorphism count, only for the subsets that neither cap
   settles.  Each scan memoizes it in a dict of its own: one per call of
   a class scan (full table, pruned or heuristic), and one, bounded, per
   ``_VerdictMemo``.  The key is the subset relabeled in signature order
   (``_class_of_mask``), so isomorphic subsets mostly share an entry and
   a scan counts each isomorphism class about once.

The class sink, ``scan_subgraph_classes``, counts every subset into its
(v, e, aut) class (the full table).  On larger hosts the pruned path walks
once, keeps the subsets whose (v, e, sym) cap can still reach a seeded
lower bound, drops those whose (v, e, sig) cap cannot, and classifies only
the rest.  The verdict sink, ``_VerdictMemo``, yields the subsets whose
expectation is below 1 at one (n, q); a subset can violate only if
(n)_v/cap * q^e < 1 for both caps, and the cap tests and exact class
verdicts share one cache keyed by (v, e, cap).  The full edge set and the
densest part (``_seed_masks``) seed the pruned path's bound and the cheap
disproof of sparsity, which finds the densest part only when the full edge
set passes.  ``_VerdictMemo`` is also the one q-sparsity certificate: the
crude count bound, the cheap disproof and the subset walk, in that order,
with the edge-cap refusal in place of the walk, so a host past the cap is
refused only when neither cheap test decides it.  Each caller asks it once
per host: ``required_L`` certifies before counting, and the search engines
score the hosts they certified from the copies they counted.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import takewhile

from .counting import count_copies
from .exact import (
    DEFAULT_DIGITS,
    ExactValue,
    cmp_with_e_power,
    decimal_enclosure,
    make_value,
    value_cmp,
    value_div,
    value_mul,
    value_pow,
    value_root,
)
from .graphs import Graph, _edges_within, automorphism_count, max_density, to_graph6
from .util import (
    DEFAULT_EDGE_CAP,
    DEFAULT_HEURISTIC_VERTEX_CAP,
    EdgeCapError,
    PreconditionError,
)


# -- expectation formulas --------------------------------------------------------


def _check_probability(p):
    if not (value_cmp(p, 0) >= 0 and value_cmp(p, 1) <= 0):
        raise PreconditionError("probability must lie in [0, 1]")


def expected_copies(n: int, p, J: Graph) -> ExactValue:
    """Exact expected number of copies of J in G(n,p)."""
    _check_probability(p)
    if J.n == 0:
        raise PreconditionError("pattern needs at least one vertex")
    if J.n > n:
        return Fraction(0)
    base = Fraction(math.perm(n, J.n), automorphism_count(J))
    return value_mul(base, value_pow(p, J.edge_count))


# -- subgraph class scan -----------------------------------------------------------


def _gray_steps(H: Graph):
    """Yield (mask, v, e, sym) over all nonempty edge subsets in Gray-code
    order, where sym = prod_{d>=1} m_d! and m_d counts the spanned vertices
    of degree d in the subset.

    Automorphisms preserve degree, so sym bounds the subset's aut from
    above (and v! bounds sym).  One edge flips per step and moves each of
    its two ends to the neighbouring degree class, so v and sym update in
    O(1) from per-vertex degrees and per-degree class sizes: leaving a
    class of size s divides sym by s, joining one that becomes size s
    multiplies by s.  This is what makes exact scans of 2^20+ subsets
    affordable.
    """
    edges = H.edges
    m = len(edges)
    deg = [0] * H.n
    size = [0] * (H.n + 1)
    v_cur = 0
    e_cur = 0
    sym = 1
    mask = 0
    for i in range(1, 1 << m):
        bit = (i & -i).bit_length() - 1
        mask ^= 1 << bit
        if mask >> bit & 1:
            e_cur += 1
            for x in edges[bit]:
                d = deg[x]
                if d:
                    sym //= size[d]
                    size[d] -= 1
                else:
                    v_cur += 1
                deg[x] = d = d + 1
                size[d] += 1
                sym *= size[d]
        else:
            e_cur -= 1
            for x in edges[bit]:
                d = deg[x]
                sym //= size[d]
                size[d] -= 1
                deg[x] = d = d - 1
                if d:
                    size[d] += 1
                    sym *= size[d]
                else:
                    v_cur -= 1
        yield mask, v_cur, e_cur, sym


def _subset_of_mask(H: Graph, mask: int):
    sub = []
    vm = 0
    mm = mask
    while mm:
        low = mm & -mm
        i = low.bit_length() - 1
        mm ^= low
        a, b = H.edges[i]
        sub.append((a, b))
        vm |= (1 << a) | (1 << b)
    return sub, vm


def _subset_profile(H: Graph, mask: int):
    """(edge list, vertex mask, signatures) of one edge subset of H.

    signatures[x] is the sum of 2^(w*d) over the degrees d of x's
    neighbours in the subset, with w = H.n.bit_length(): each degree occurs
    fewer than 2^w times, so the sum encodes the multiset exactly (and with
    it x's degree).  It is 0 exactly at the vertices the subset does not
    span.
    """
    sub, vm = _subset_of_mask(H, mask)
    deg = [0] * H.n
    for a, b in sub:
        deg[a] += 1
        deg[b] += 1
    w = H.n.bit_length()
    sums = [0] * H.n
    for a, b in sub:
        sums[a] += 1 << w * deg[b]
        sums[b] += 1 << w * deg[a]
    return sub, vm, sums


def _profile_of(H: Graph, subset):
    """An edge subset of H given as a mask or as its ``_subset_profile``,
    as its profile: a caller that profiled a subset hands the profile on
    rather than having it built twice."""
    return subset if isinstance(subset, tuple) else _subset_profile(H, subset)


def _signature_key(H: Graph, subset) -> tuple:
    """(v, e, sig) of one edge subset of H (a mask or its profile), where
    sig = prod_s m_s! and m_s counts the spanned vertices with signature
    s = (degree, sorted neighbour degrees), kept as in ``_subset_profile``.

    Automorphisms preserve signatures (one round of colour refinement), so
    aut <= sig, and signature classes split degree classes, so sig <= sym.
    """
    sub, vm, sums = _profile_of(H, subset)
    sizes: dict = {}
    sig = 1
    for s in sums:
        if s:
            size = sizes[s] = sizes.get(s, 0) + 1
            sig *= size
    return vm.bit_count(), len(sub), sig


def _class_of_mask(H: Graph, subset, auts: dict):
    """((v, e, aut), edge tuple) of one edge subset of H (a mask or its
    profile).

    auts memoizes the automorphism counts under the subset relabeled in
    signature order: the spanned vertices sorted by signature, ties broken
    by vertex id, become 0..v-1, and the key is v with the sorted relabeled
    edges.  The key is a copy of the subset, so a hit is always an
    isomorphic graph and aut stays exact; isomorphic subsets whose
    signature classes line up share one entry, so a scan counts each
    isomorphism class about once rather than once per vertex labelling.
    """
    sub, vm, sums = _profile_of(H, subset)
    v = vm.bit_count()
    # the H.n - v unspanned vertices (signature 0) sort first; sorted is
    # stable, so ties keep vertex-id order
    pos = [0] * H.n
    for i, x in enumerate(sorted(range(H.n), key=sums.__getitem__), v - H.n):
        pos[x] = i
    norm = []
    for a, b in sub:
        a, b = pos[a], pos[b]
        norm.append((a, b) if a < b else (b, a))
    norm.sort()
    key = (v, tuple(norm))
    aut = auts.get(key)
    if aut is None:
        aut = auts[key] = automorphism_count(Graph(v, norm))
    return (v, len(sub), aut), tuple(sub)


def _add_class(classes: dict, key: tuple, tup: tuple) -> None:
    """Count one subset into its class, keeping the lex-min edge tuple."""
    cur = classes.get(key)
    if cur is None:
        classes[key] = [1, tup]
    else:
        cur[0] += 1
        if tup < cur[1]:
            cur[1] = tup


def scan_subgraph_classes(H: Graph) -> dict:
    """Class sink over all nonempty edge subsets of H:
    (v, e, aut) -> [subset count, lex-min edge tuple]."""
    classes: dict = {}
    auts: dict = {}
    for mask, _, _, _ in _gray_steps(H):
        _add_class(classes, *_class_of_mask(H, mask, auts))
    return classes


FULL_TABLE_EDGE_CAP = 14


def _seed_masks(H: Graph):
    """Yield the edge masks of H's full edge set and of its densest part.

    Both are nonempty when H has an edge; they seed the pruned scan's
    starting bound and the cheap disproof of sparsity.  The densest part
    costs a max-flow search, so it is found only when it is asked for:
    the disproof stops at the full edge set whenever that set violates.
    """
    yield (1 << H.edge_count) - 1
    wset = set(max_density(H).witness)
    dense = 0
    for i, (a, b) in enumerate(H.edges):
        if a in wset and b in wset:
            dense |= 1 << i
    yield dense


_PRUNED_MEMBER_CAP = 400_000


def _pruned_classes(H: Graph, n: int, target_den: int) -> dict:
    """The classes whose threshold is at least a seeded lower bound, for
    hosts too large for the full table.

    The starting bound t_start is the best threshold among the full edge
    set, a single edge and the densest part.  A subset's class threshold
    (aut/(t*(n)_v))^(1/e) grows with aut, so each cap on aut gives a cap
    on the threshold, and a subset whose cap falls below t_start cannot
    reach it.  The caps come in three tiers, cheapest first:

    - sym, which the walk keeps for free: the walk keeps the masks whose
      (v, e, sym) cap reaches t_start, and past the member cap it only
      counts them, for the refusal;
    - sig (``_signature_key``), built only for the kept masks: a kept
      mask whose (v, e, sig) cap misses t_start is dropped;
    - aut, counted only for the masks left, which are then classified.

    Both cap tests share one memo, since a key (v, e, cap) gives the same
    verdict whichever cap it holds.  Every member of a class at or above
    t_start passes both caps, so classifying the survivors gives exactly
    those classes, each with the subset count and lex-min edge tuple of
    the full table, and their maximum is the exact threshold.
    """
    auts: dict = {}
    t_start = max(
        (
            _class_threshold(n, target_den, *_class_of_mask(H, mask, auts)[0])
            for mask in (*_seed_masks(H), 1)
        ),
        key=cmp_to_key(value_cmp),
    )
    caps: dict = {}

    def reaches_start(key) -> bool:
        hit = caps.get(key)
        if hit is None:
            hit = caps[key] = (
                value_cmp(_class_threshold(n, target_den, *key), t_start) >= 0
            )
        return hit

    kept = []
    members = 0
    for mask, v, e, sym in _gray_steps(H):
        key = (v, e, sym)
        survives = caps.get(key)  # inline hit: this loop runs 2^m times
        if survives is None:
            survives = reaches_start(key)
        if survives:
            members += 1
            if members <= _PRUNED_MEMBER_CAP:
                kept.append(mask)
    if members > _PRUNED_MEMBER_CAP:
        raise EdgeCapError(
            "degree-symmetry pruning left too many candidate subsets "
            f"({members}); the host is too dense for an exact scan"
        )
    classes: dict = {}
    for mask in kept:
        profile = _subset_profile(H, mask)
        if reaches_start(_signature_key(H, profile)):
            _add_class(classes, *_class_of_mask(H, profile, auts))
    return {key: row for key, row in classes.items() if reaches_start(key)}


# -- threshold reports ----------------------------------------------------------


@dataclass(frozen=True)
class ThresholdClass:
    descriptor: str
    v: int
    e: int
    aut: int
    subsets: int
    threshold: ExactValue


@dataclass(frozen=True)
class SparsityReport:
    """Threshold certificate: max over subgraph classes of (aut/(t*(n)_v))^(1/e).

    target_den = 1 certifies q-sparseness (threshold is the least sparse q);
    target_den = 2 gives the expectation threshold p_E.  base_pair = (M, e)
    encodes the threshold exactly as M^(-1/e).
    """

    n: int
    target_den: int
    threshold: ExactValue
    base_pair: tuple
    witness: Graph
    witness_edges: tuple
    classes: tuple
    enclosure: tuple
    lower_bound_only: bool = False
    table_complete: bool = True

    def verdict_for(self, q) -> bool:
        return value_cmp(q, self.threshold) >= 0


def _class_threshold(n: int, target_den: int, v: int, e: int, aut: int) -> ExactValue:
    return make_value(Fraction(aut, target_den * math.perm(n, v)), e)


def _build_report(
    H: Graph,
    n: int,
    target_den: int,
    classes: dict,
    digits: int,
    lower_bound_only: bool = False,
    table_complete: bool = True,
) -> SparsityReport:
    """The report on a class table: rows by threshold descending, then by
    (v, e, aut); the threshold is the first row's, and the witness is the
    lex-min edge tuple among the rows that tie with it."""

    def row_cmp(a, b):
        c = value_cmp(a[0], b[0])
        if c:
            return -c
        return (a[1:4] > b[1:4]) - (a[1:4] < b[1:4])

    rows = sorted(
        (
            (_class_threshold(n, target_den, v, e, aut), v, e, aut, count, tup)
            for (v, e, aut), (count, tup) in classes.items()
        ),
        key=cmp_to_key(row_cmp),
    )
    best = rows[0][0]
    _, bv, be, baut, _, witness_tup = min(
        takewhile(lambda row: value_cmp(row[0], best) == 0, rows),
        key=lambda row: row[5],
    )
    table = tuple(
        ThresholdClass(
            descriptor=to_graph6(Graph(H.n, tup).induced(sum(tup, ()))),
            v=v,
            e=e,
            aut=aut,
            subsets=count,
            threshold=thr,
        )
        for thr, v, e, aut, count, tup in rows
    )
    return SparsityReport(
        n=n,
        target_den=target_den,
        threshold=best,
        base_pair=(target_den * (math.perm(n, bv) // baut), be),
        witness=Graph(H.n, witness_tup).induced(sum(witness_tup, ())),
        witness_edges=witness_tup,
        classes=table,
        enclosure=decimal_enclosure(best, digits),
        lower_bound_only=lower_bound_only,
        table_complete=table_complete,
    )


def _check_host(H: Graph, n: int):
    if H.edge_count < 1:
        raise PreconditionError("host must have at least one edge")
    if n < H.n:
        raise PreconditionError(f"ambient n={n} is below the host's {H.n} vertices")


def _scan_cap_error(m: int, edge_cap: int, hint: str = "") -> EdgeCapError:
    """The refusal of an exact scan of a host with m > edge_cap edges."""
    return EdgeCapError(
        f"exact scan over 2^{m} edge subsets exceeds the cap of {edge_cap} edges{hint}"
    )


def _connected_sets(adj, keep):
    """Yield each connected vertex set (a mask) of the graph with adjacency
    masks adj that keep accepts; keep must accept every connected subset
    of a set it accepts.

    A set grows from its least vertex and each child bans its earlier
    siblings, so only the child adding a set's least eligible vertex can
    reach it, and each set is reached once.  A rejected child still bans
    its later siblings, since no set that keep accepts contains it.
    """
    # (set, frontier, banned); banned holds the set itself
    stack = [(1 << r, nbrs, (2 << r) - 1) for r, nbrs in enumerate(adj) if keep(1 << r)]
    while stack:
        vset, frontier, banned = stack.pop()
        yield vset
        ext = mm = frontier & ~banned
        while mm:
            low = mm & -mm
            mm ^= low
            if keep(vset | low):
                nbrs = adj[low.bit_length() - 1]
                stack.append((vset | low, frontier | nbrs, banned | ext & ~mm))


def _connected_classes(H: Graph, vertex_cap: int) -> dict:
    """Classes of connected subgraphs with at most vertex_cap vertices.

    Used by heuristic mode only; the resulting threshold is a lower bound
    because disconnected subgraphs can dominate the maximum.

    One pass of ``_connected_sets`` over H reaches each connected vertex
    set with at most vertex_cap vertices.  A set that induces more than 18
    edges adds only its induced subgraph, not its sparser spanning
    subgraphs, so on such sets the flagged lower bound is looser still.
    A connected edge subset is a connected vertex set of H's line graph,
    so a second pass, over the line graph, reaches once, as an edge mask,
    each connected subgraph whose span is a set of the first pass that
    induces at most 18 edges (a test its connected parts pass too).
    """
    classes: dict = {}
    auts: dict = {}
    sparse = set()
    for vset in _connected_sets(H.adj, lambda vset: vset.bit_count() <= vertex_cap):
        if _edges_within(H, vset) <= 18:
            sparse.add(vset)
        else:
            edges = enumerate(H.edges)
            induced = sum(1 << i for i, (a, b) in edges if vset >> a & vset >> b & 1)
            _add_class(classes, *_class_of_mask(H, induced, auts))
    # line[i]: the edges that share an endpoint with edge i
    line = [
        sum(1 << j for j, f in enumerate(H.edges) if j != i and set(e) & set(f))
        for i, e in enumerate(H.edges)
    ]
    for emask in _connected_sets(line, lambda m: _subset_of_mask(H, m)[1] in sparse):
        _add_class(classes, *_class_of_mask(H, emask, auts))
    return classes


def _exact_report(H: Graph, n: int, target_den: int, digits: int) -> SparsityReport:
    """The exact report from the full class table, or from the pruned
    classes when H has more than FULL_TABLE_EDGE_CAP edges."""
    if H.edge_count <= FULL_TABLE_EDGE_CAP:
        classes = scan_subgraph_classes(H)
        return _build_report(H, n, target_den, classes, digits)
    classes = _pruned_classes(H, n, target_den)
    return _build_report(H, n, target_den, classes, digits, table_complete=False)


def q_min(
    H: Graph,
    n: int,
    mode: str = "exact",
    edge_cap: int = DEFAULT_EDGE_CAP,
    heuristic_vertex_cap: int = DEFAULT_HEURISTIC_VERTEX_CAP,
    digits: int = DEFAULT_DIGITS,
) -> SparsityReport:
    """Least q at which H is q-sparse, with the binding subgraph class."""
    _check_host(H, n)
    if mode == "heuristic":
        if heuristic_vertex_cap < 2:
            raise PreconditionError(
                f"heuristic_vertex_cap={heuristic_vertex_cap} must be at least 2, "
                "the vertices of one edge"
            )
        classes = _connected_classes(H, heuristic_vertex_cap)
        return _build_report(H, n, 1, classes, digits, lower_bound_only=True)
    if mode != "exact":
        raise PreconditionError("mode must be 'exact' or 'heuristic'")
    if H.edge_count > edge_cap:
        hint = "; use mode='heuristic' for a flagged lower bound"
        raise _scan_cap_error(H.edge_count, edge_cap, hint)
    return _exact_report(H, n, 1, digits)


def expectation_threshold(
    H: Graph,
    n: int,
    edge_cap: int = DEFAULT_EDGE_CAP,
    digits: int = DEFAULT_DIGITS,
) -> SparsityReport:
    """Least p with every subgraph expectation at least 1/2 (threshold p_E)."""
    _check_host(H, n)
    if H.edge_count > edge_cap:
        raise _scan_cap_error(H.edge_count, edge_cap)
    return _exact_report(H, n, 2, digits)


# -- sparsity verdicts ------------------------------------------------------------


@dataclass(frozen=True)
class SparseCheck:
    sparse: bool
    n: int
    q: ExactValue
    witness: Graph | None = None
    witness_edges: tuple | None = None
    expectation: ExactValue | None = None


def safe_edge_bound(n: int, q, v_cap: int, e_cap: int) -> int:
    """Largest m <= e_cap such that the crude count bound alone certifies
    every graph on at most v_cap vertices with at most m edges q-sparse
    (see ``_VerdictMemo.safe_edges``)."""
    # min keeps a negative e_cap as given
    return min(e_cap, _VerdictMemo(n, q, e_cap).safe_edges(v_cap))


# about 40 MB of automorphism keys; a host-cap-12 anneal adds ~11 per move
_AUT_MEMO_CAP = 50_000


class _VerdictMemo:
    """The q-sparsity certificate at one (n, q), with its verdicts memoized.

    A subset's expectation (n)_v/aut * q^e depends only on (v, e, aut), so
    the exact comparison with 1 happens once per class and is kept for
    every later subset, scan and host that reaches the class.  Any cap on
    aut gives a test that may only clear a subset: it can violate only if
    (n)_v/cap * q^e < 1.  The walk tries three tiers, cheapest first:

    - sym, which the walker keeps for free;
    - sig (``_signature_key``), built only for the subsets that sym does
      not clear;
    - aut, counted only for the subsets that neither cap clears, and
      memoized in ``auts`` under the subset relabeled in signature order
      (``_class_of_mask``); the dict is emptied once it holds
      _AUT_MEMO_CAP entries.

    All three tests are one comparison, so ``verdicts`` keeps each one
    under its (v, e, cap) key, whichever cap it holds.  The crude count
    bound is memoized per vertex cap.  The keys do not depend on the host,
    so one memo may serve many hosts.  max_edges bounds e.
    """

    __slots__ = ("n", "powers", "verdicts", "auts", "safe")

    def __init__(self, n: int, q, max_edges: int):
        self.n = n
        self.powers = [Fraction(1)] + [value_pow(q, e) for e in range(1, max_edges + 1)]
        self.verdicts: dict = {}
        self.auts: dict = {}
        self.safe: dict = {}

    def safe_edges(self, v_cap: int) -> int:
        """Largest m <= max_edges such that the crude count bound alone
        certifies every graph on at most v_cap vertices with at most m
        edges q-sparse.

        A subset with v vertices and e edges has expectation at least
        C(n,v) * q^e, and a bucket (v,e) is realizable only when v <= 2e and
        e <= C(v,2).  Scanning e upward, the first e with a failing
        realizable bucket ends the guarantee.  At q = 1 every bucket passes,
        so graphs of any size are certified without touching their subsets.
        """
        bound = self.safe.get(v_cap)
        if bound is None:
            bound = len(self.powers) - 1
            for e in range(1, len(self.powers)):
                if any(
                    e <= math.comb(v, 2)
                    and value_cmp(
                        value_mul(Fraction(math.comb(self.n, v)), self.powers[e]), 1
                    ) < 0
                    for v in range(2, min(2 * e, v_cap) + 1)
                ):
                    bound = e - 1
                    break
            self.safe[v_cap] = bound
        return bound

    def crude_certifies(self, H: Graph) -> bool:
        """Does the crude count bound alone certify H q-sparse?"""
        m = H.edge_count
        return self.safe_edges(min(H.n, 2 * m)) >= m

    def certify(self, H: Graph, edge_cap: int) -> bool:
        """The q-sparsity verdict on H, cheapest test first: the crude count
        bound, the quick disproof on the seed masks, then the early-exit
        subset scan.  Past edge_cap the scan is refused, so a host with more
        edges is decided only when one of the first two tests decides it."""
        m = H.edge_count
        if self.crude_certifies(H):
            return True
        if self.seeds_violate(H):
            return False
        if m > edge_cap:
            raise EdgeCapError(
                f"cannot certify {m} edges: exact scan capped at {edge_cap} and the "
                "quick disproof found no violation"
            )
        return next(self.violations(H), None) is None

    def seeds_violate(self, H: Graph) -> bool:
        """The quick disproof: does H's full edge set or its densest part
        have expectation below 1?  The densest part is found only when the
        full edge set passes."""
        return any(self.violation(H, mask) for mask in _seed_masks(H))

    def below_one(self, v: int, e: int, cap: int):
        """(n)_v/cap * q^e when it is below 1, else False.  With cap = aut
        this is the subset's exact verdict; with any larger cap it is a test
        that may only clear the subset."""
        key = (v, e, cap)
        hit = self.verdicts.get(key)
        if hit is None:
            hit = value_mul(Fraction(math.perm(self.n, v), cap), self.powers[e])
            if value_cmp(hit, 1) >= 0:
                hit = False
            self.verdicts[key] = hit
        return hit

    def violation(self, H: Graph, subset):
        """(expectation, edge tuple) when this edge subset of H (a mask or
        its profile) has expectation below 1, else None."""
        if len(self.auts) >= _AUT_MEMO_CAP:
            self.auts.clear()
        key, tup = _class_of_mask(H, subset, self.auts)
        expectation = self.below_one(*key)
        return None if expectation is False else (expectation, tup)

    def violations(self, H: Graph, required_edge: int | None = None):
        """Yield (expectation, edge tuple) for every violating edge subset of
        H in scan order, only subsets through edge index required_edge when
        it is given."""
        req_bit = 0 if required_edge is None else 1 << required_edge
        for mask, v, e, sym in _gray_steps(H):
            # the walker's (v, e, sym) settles most subsets before any
            # extraction, and the signature cap most of the rest
            if mask & req_bit == req_bit and self.below_one(v, e, sym) is not False:
                profile = _subset_profile(H, mask)
                if self.below_one(*_signature_key(H, profile)) is not False:
                    hit = self.violation(H, profile)
                    if hit is not None:
                        yield hit


def _violation_cmp(a: tuple, b: tuple) -> int:
    """Order (expectation, edge tuple) pairs: expectation, then edge tuple."""
    return value_cmp(a[0], b[0]) or (a[1] > b[1]) - (a[1] < b[1])


def violation_scan(
    H: Graph,
    n: int,
    q,
    required_edge: int | None = None,
    early_exit: bool = False,
):
    """(verdict, min expectation, argmin edge tuple) over edge subsets.

    The violators come from one _VerdictMemo walk, so subsets with
    (n)_v/sym * q^e >= 1 are skipped without an aut computation; since
    aut <= sym, every violator fails that bound, so the minimum over
    violators is never lost.  Ties go to the lexicographically least edge
    tuple; early_exit takes the first violator in scan order instead.
    required_edge restricts the scan to subsets containing that edge index
    (sound after certifying the host without it).
    """
    memo = _VerdictMemo(n, q, H.edge_count)
    if memo.crude_certifies(H):
        return True, None, None
    hits = memo.violations(H, required_edge)
    if early_exit:
        hit = next(hits, None)
    else:
        hit = min(hits, key=cmp_to_key(_violation_cmp), default=None)
    if hit is None:
        return True, None, None
    return False, hit[0], hit[1]


def _check_sparse_input(H: Graph, n: int, q) -> None:
    """The input check of every q-sparsity question asked from outside."""
    if n < H.n:
        raise PreconditionError(f"ambient n={n} is below the host's {H.n} vertices")
    _check_probability(q)


def is_q_sparse(H: Graph, n: int, q, edge_cap: int = DEFAULT_EDGE_CAP) -> SparseCheck:
    """Is every subgraph expectation at least 1?  On failure the returned
    witness is the most-violating subgraph (lexicographic edge-set ties)."""
    _check_sparse_input(H, n, q)
    m = H.edge_count
    # the crude count bound certifies hosts of any size, so it alone may
    # spare a host above the cap
    if m > edge_cap and not _VerdictMemo(n, q, m).crude_certifies(H):
        raise _scan_cap_error(m, edge_cap)
    verdict, worst, tup = violation_scan(H, n, q)
    if verdict:
        return SparseCheck(sparse=True, n=n, q=q)
    return SparseCheck(
        sparse=False,
        n=n,
        q=q,
        witness=Graph(H.n, tup).induced(sum(tup, ())),
        witness_edges=tup,
        expectation=worst,
    )


def _require_sparse(H: Graph, n: int, q) -> None:
    """Refuse a host that is not q-sparse, naming its violating subgraph."""
    check = is_q_sparse(H, n, q)
    if not check.sparse:
        raise PreconditionError(
            "host is not q-sparse at the supplied q; violating subgraph edges: "
            f"{check.witness_edges}",
            witness=check.witness,
        )


# -- conjecture constant ----------------------------------------------------------


@dataclass(frozen=True)
class RequiredL:
    """Least L with N(H,F) = E_{Lq}X_F, i.e. (N(H,F)/E_qX_F)^(1/e_F)."""

    value: ExactValue
    enclosure: tuple
    copies: int
    expectation: ExactValue
    pattern_edges: int


def _required_L_of(copies: int, expectation, pattern_edges: int, digits: int) -> RequiredL:
    """The RequiredL of a host already certified q-sparse, from its counted
    copies and the pattern's expectation at q."""
    value = Fraction(0)
    if copies:
        value = value_root(value_div(Fraction(copies), expectation), pattern_edges)
    return RequiredL(
        value=value,
        enclosure=decimal_enclosure(value, digits),
        copies=copies,
        expectation=expectation,
        pattern_edges=pattern_edges,
    )


def required_L(
    H: Graph,
    F: Graph,
    n: int,
    q,
    digits: int = DEFAULT_DIGITS,
    node_budget=None,
) -> RequiredL:
    """Scale factor solving N(H,F) = L^{e_F} * E_qX_F, exactly, for a host
    it certifies q-sparse (engines holding certified copies use _required_L_of)."""
    if F.edge_count < 1:
        raise PreconditionError("pattern must have at least one edge")
    if F.n > n:
        raise PreconditionError("pattern larger than the ambient n has expectation 0")
    _require_sparse(H, n, q)
    copies = count_copies(H, F, node_budget=node_budget)
    return _required_L_of(copies, expected_copies(n, q, F), F.edge_count, digits)


def peel_threshold_a(F: Graph, n: int, p) -> ExactValue:
    """Expected copy count of F per ambient vertex: E_pX_F / n."""
    if n < 1:
        raise PreconditionError("n must be positive")
    return value_mul(expected_copies(n, p, F), Fraction(1, n))


def falling_factorial_bound_check(a: int, b: int) -> bool:
    """Exact verdict of (a)_b > (a/e)^b for 1 <= b <= a."""
    if not (1 <= b <= a):
        raise PreconditionError("need 1 <= b <= a")
    # (a)_b > a^b / e^b  <=>  e^b > a^b / (a)_b
    return cmp_with_e_power(Fraction(a**b, math.perm(a, b)), b) < 0

"""Edge-subset scans against brute force: class table, pruned path,
violation scan, certified_sparse on big hosts, hosts with tied
signatures, heuristic mode, the walker's degree-symmetry bound, the
signature bound, the aut memo key, the pruned table against the full one,
and how many subsets the scans classify, profile and count auts for."""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key, lru_cache

import pytest
from hypothesis import given, strategies as st

from kklab import (
    EdgeCapError,
    Graph,
    automorphism_count,
    canonical_key,
    certified_sparse,
    complete_graph,
    cycle_graph,
    disjoint_union,
    expected_copies,
    extremal_search,
    graphs_on,
    is_q_sparse,
    make_value,
    parse_graph,
    path_graph,
    path_power_graph,
    petersen_graph,
    q_min,
    to_graph6,
    value_cmp,
    violation_scan,
)
from kklab import expectation
from kklab.exact import DEFAULT_DIGITS
from kklab.expectation import (
    _build_report,
    _gray_steps,
    _pruned_classes,
    _seed_masks,
    _signature_key,
    scan_subgraph_classes,
)
from kklab.util import iter_bits

SMALL_HOSTS = [g for v in range(2, 6) for g in graphs_on(v) if g.edge_count]


def strip(sub) -> Graph:
    """The edge tuple as a graph on its spanned vertices, in vertex order."""
    verts = sorted({x for edge in sub for x in edge})
    pos = {x: i for i, x in enumerate(verts)}
    return Graph(len(verts), [(pos[a], pos[b]) for a, b in sub])


def subsets(H: Graph):
    """(mask, edge tuple) for every nonempty edge subset, in binary order."""
    for mask in range(1, 1 << H.edge_count):
        yield mask, tuple(H.edges[i] for i in range(H.edge_count) if mask >> i & 1)


def brute_classes(H: Graph, keep=lambda sub: True, aut=automorphism_count) -> dict:
    classes = {}
    for _, sub in subsets(H):
        if not keep(sub):
            continue
        J = strip(sub)
        key = (J.n, len(sub), aut(J))
        cur = classes.setdefault(key, [0, sub])
        cur[0] += 1
        cur[1] = min(cur[1], sub)
    return classes


def brute_violations(H: Graph, n: int, q, required_edge=None) -> list:
    """(expectation, edge tuple) of every subset with expectation below 1."""
    found = []
    for mask, sub in subsets(H):
        if required_edge is not None and not mask >> required_edge & 1:
            continue
        expectation = expected_copies(n, q, strip(sub))
        if value_cmp(expectation, 1) < 0:
            found.append((expectation, sub))
    return found


def by_expectation_then_edges(a, b):
    return value_cmp(a[0], b[0]) or (a[1] > b[1]) - (a[1] < b[1])


class TestClassTable:
    @pytest.mark.parametrize("H", SMALL_HOSTS, ids=to_graph6)
    def test_matches_brute_force(self, H):
        assert scan_subgraph_classes(H) == brute_classes(H)


class TestThresholdTies:
    """The report's threshold, base pair and witness against a brute-force
    reference: the largest class threshold over ``brute_classes``, with the
    lex-min edge tuple among the classes that attain it."""

    @pytest.mark.parametrize("v", range(2, 7))
    def test_matches_brute_force(self, v):
        aut = lru_cache(maxsize=None)(automorphism_count)
        for H in graphs_on(v):
            if not H.edge_count:
                continue
            table = scan_subgraph_classes(H)
            brute = brute_classes(H, aut=aut)
            for n in sorted({v, v + 1, 7, 8, 10, 12, 20}):
                for target_den in (1, 2):
                    thr = {key: class_threshold(n, target_den, *key) for key in brute}
                    top = max(thr.values(), key=cmp_to_key(value_cmp))
                    tied = [key for key in brute if value_cmp(thr[key], top) == 0]
                    bv, be, baut = min(tied, key=lambda key: brute[key][1])
                    report = _build_report(H, n, target_den, table, DEFAULT_DIGITS)
                    assert value_cmp(report.threshold, top) == 0
                    assert report.base_pair == (target_den * (math.perm(n, bv) // baut), be)
                    assert report.witness_edges == brute[bv, be, baut][1]

    def test_tie_at_the_maximum(self):
        # K3 plus a pendant edge at n = 4: the star (4, 3, 6) ties with the
        # triangle (3, 3, 6), and the witness is the lex-min of the two
        H = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        report = q_min(H, 4)
        top = report.classes[:2]
        assert [(c.v, c.e, c.aut) for c in top] == [(3, 3, 6), (4, 3, 6)]
        assert value_cmp(top[0].threshold, top[1].threshold) == 0
        assert report.witness_edges == ((0, 1), (0, 2), (1, 2))
        assert report.base_pair == (4, 3)


class TestPrunedPath:
    @pytest.mark.parametrize("v", [4, 5, 6])
    def test_agrees_with_full_table(self, v):
        for H in graphs_on(v):
            if not H.edge_count:
                continue
            table = scan_subgraph_classes(H)
            for n in (v, v + 5):
                for target_den in (1, 2):
                    full = _build_report(H, n, target_den, table, DEFAULT_DIGITS)
                    pruned = _build_report(
                        H, n, target_den, _pruned_classes(H, n, target_den),
                        DEFAULT_DIGITS, table_complete=False,
                    )
                    assert value_cmp(pruned.threshold, full.threshold) == 0
                    assert pruned.base_pair == full.base_pair
                    assert pruned.witness_edges == full.witness_edges


class TestViolationScan:
    @pytest.mark.parametrize("H", SMALL_HOSTS, ids=to_graph6)
    def test_min_and_argmin(self, H):
        n = H.n + 2
        qs = [Fraction(1, 9), Fraction(1, 4), Fraction(1, 2), q_min(H, n).threshold]
        for q in qs:
            for req in (None, 0, H.edge_count - 1):
                found = brute_violations(H, n, q, req)
                verdict, worst, tup = violation_scan(H, n, q, required_edge=req)
                assert verdict == (not found)
                if found:
                    want = min(found, key=cmp_to_key(by_expectation_then_edges))
                    assert value_cmp(worst, want[0]) == 0 and tup == want[1]
                else:
                    assert worst is None and tup is None

                verdict, worst, tup = violation_scan(
                    H, n, q, required_edge=req, early_exit=True
                )
                assert verdict == (not found)
                if found:
                    assert value_cmp(worst, 1) < 0
                    assert value_cmp(worst, expected_copies(n, q, strip(tup))) == 0
                    assert set(tup) <= set(H.edges)
                    if req is not None:
                        assert H.edges[req] in tup

    def test_required_edge_excludes_other_violators(self):
        # two far-apart triangles: only subsets through edge 5 are scanned
        H = disjoint_union(complete_graph(3), complete_graph(3))
        q = q_min(complete_graph(3), 10).threshold
        verdict, _, tup = violation_scan(H, 10, q)
        assert not verdict and tup == H.edges
        assert violation_scan(H, 10, q, required_edge=5)[2] == H.edges
        assert violation_scan(complete_graph(3), 10, q, required_edge=0)[0]


def hypercube_graph(d: int) -> Graph:
    return Graph(1 << d, [(a, a | 1 << i) for a in range(1 << d) for i in range(d)
                          if not a >> i & 1])


# hosts whose edge subsets include isomorphism classes that one round of
# colour refinement cannot split: on the cube Q3 (12 edges) the 8-cycle and
# two disjoint 4-cycles are both 2-regular on 8 vertices, and on the prism
# the 6-cycle and two disjoint triangles both on 6; K3,3 has no triangle,
# but in its regular subsets (the perfect matchings and the 6-cycles) all
# vertices tie, so only the vertex-id tie-break orders them
TIED_HOSTS = [
    hypercube_graph(3),
    Graph(6, [(a, b) for a in range(3) for b in range(3, 6)]),
    Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
]


class TestSignatureTies:
    """The class table and the violation scans against brute force on
    hosts where isomorphic and non-isomorphic subsets share signatures."""

    @pytest.mark.parametrize("H", TIED_HOSTS, ids=to_graph6)
    def test_class_table(self, H):
        assert scan_subgraph_classes(H) == brute_classes(H)

    @pytest.mark.parametrize("H", TIED_HOSTS, ids=to_graph6)
    def test_violations(self, H):
        n = H.n + 2
        # at 1/4 (Q3, n = 10) 2C4 violates and C8 does not; at 1/3 (n = 8)
        # 2C3 violates and C6 does not
        for q in (Fraction(1, 4), Fraction(1, 3), q_min(H, n).threshold):
            found = brute_violations(H, n, q)
            hits = list(expectation._VerdictMemo(n, q, H.edge_count).violations(H))
            assert sorted(tup for _, tup in hits) == sorted(tup for _, tup in found)
            want = {tup: x for x, tup in found}
            assert all(value_cmp(x, want[tup]) == 0 for x, tup in hits)
            verdict, worst, tup = violation_scan(H, n, q)
            assert verdict == (not found)
            if found:
                least = min(found, key=cmp_to_key(by_expectation_then_edges))
                assert value_cmp(worst, least[0]) == 0 and tup == least[1]

    def test_tied_classes_occur(self):
        # C8 (aut 16) and 2C4 (aut 128) in Q3, C6 (aut 12) and 2C3 (aut 72)
        # in the prism: same (v, e) and same signatures, different aut
        assert {(8, 8, 16), (8, 8, 128)} <= set(scan_subgraph_classes(TIED_HOSTS[0]))
        assert {(6, 6, 12), (6, 6, 72)} <= set(scan_subgraph_classes(TIED_HOSTS[2]))


K7_MINUS_5 = Graph(7, [(a, b) for a in range(7) for b in range(a + 1, 7)][:16])


class TestCertifiedSparseBigHosts:
    # 16 or more edges; certified_sparse tries the quick disproof on the
    # full edge set and the densest part before any scan
    @pytest.mark.parametrize(
        "H,q,sparse",
        [
            (cycle_graph(16), Fraction(1, 4), True),
            (path_power_graph(10, 2), Fraction(2, 5), True),
            (K7_MINUS_5, Fraction(1, 3), False),
            # neither quick-disproof subset violates; the scan finds one
            (K7_MINUS_5, Fraction(2, 5), False),
            (disjoint_union(complete_graph(5), path_graph(6)), Fraction(2, 5), False),
        ],
    )
    def test_matches_reference_check(self, H, q, sparse):
        n = 18
        assert H.edge_count >= 16
        assert is_q_sparse(H, n, q).sparse == sparse
        assert certified_sparse(H, n, q) == sparse

    def test_both_sides_of_the_threshold(self):
        # sparse at the exact threshold M^(-1/e), not at (M+1)^(-1/e)
        H = cycle_graph(16)
        n = 18
        report = q_min(H, n)
        M, e = report.base_pair
        below = make_value(Fraction(1, M + 1), e)
        assert certified_sparse(H, n, report.threshold)
        assert not certified_sparse(H, n, below)
        assert not is_q_sparse(H, n, below).sparse


def connected(sub) -> bool:
    return strip(sub).is_connected()


def table_rows(report) -> list:
    return [(c.descriptor, c.v, c.e, c.aut, c.subsets) for c in report.classes]


class TestHeuristicMode:
    @pytest.mark.parametrize(
        "H,cap",
        [
            (complete_graph(4), 8),
            (complete_graph(5), 3),
            (graphs_on(5)[17], 4),
            (disjoint_union(complete_graph(3), cycle_graph(4)), 8),
            (petersen_graph(), 4),
        ],
    )
    def test_matches_connected_brute_force(self, H, cap):
        n = H.n + 2
        report = q_min(H, n, mode="heuristic", heuristic_vertex_cap=cap)
        assert report.lower_bound_only
        brute = brute_classes(H, lambda sub: strip(sub).n <= cap and connected(sub))
        want = _build_report(H, n, 1, brute, DEFAULT_DIGITS, lower_bound_only=True)
        assert table_rows(report) == table_rows(want)
        assert all(v <= cap for _, v, _, _, _ in table_rows(report))
        assert value_cmp(report.threshold, want.threshold) == 0
        assert report.witness_edges == want.witness_edges

    def test_dense_vertex_set_adds_only_its_induced_subgraph(self):
        # the 7 vertices induce 19 > 18 edges, so of their connected spanning
        # subgraphs (C7 among them) only the host itself is classified
        H = Graph(7, complete_graph(7).edges[:19])
        report = q_min(H, 9, mode="heuristic", heuristic_vertex_cap=7)
        assert report.lower_bound_only
        rows = [row for row in table_rows(report) if row[1] == 7]
        assert rows == [(to_graph6(H), 7, 19, automorphism_count(H), 1)]


class TestConnectedGrowth:
    """Heuristic mode grows each connected subgraph once, as a connected
    vertex set of the host's line graph, and walks no edge subsets."""

    @pytest.mark.parametrize("v", range(2, 7))
    def test_grower_reaches_each_connected_set_once(self, v):
        for H in graphs_on(v):
            for cap in range(1, v + 1):
                got = list(
                    expectation._connected_sets(H.adj, lambda s: s.bit_count() <= cap)
                )
                want = [
                    mask
                    for mask in range(1, 1 << v)
                    if mask.bit_count() <= cap and H.induced(iter_bits(mask)).is_connected()
                ]
                assert sorted(got) == want, (to_graph6(H), cap)

    @pytest.mark.parametrize("v", range(2, 7))
    def test_catalog_at_every_cap(self, v):
        # hosts on at most 6 vertices have at most 15 edges, so no vertex set
        # is dense; a class key holds its vertex count, so the reference at
        # each cap is the connected table filtered by that count
        aut = lru_cache(maxsize=None)(automorphism_count)
        n = v + 2
        for H in graphs_on(v):
            if not H.edge_count:
                continue
            table = brute_classes(H, connected, aut=aut)
            for cap in range(2, v + 1):
                report = q_min(H, n, mode="heuristic", heuristic_vertex_cap=cap)
                brute = {key: row for key, row in table.items() if key[0] <= cap}
                want = _build_report(H, n, 1, brute, DEFAULT_DIGITS, lower_bound_only=True)
                assert table_rows(report) == table_rows(want), (to_graph6(H), cap)
                assert value_cmp(report.threshold, want.threshold) == 0
                assert report.witness_edges == want.witness_edges

    def test_makes_no_gray_walk(self, monkeypatch):
        walks = []

        def counted(H):
            walks.append(H)
            return _gray_steps(H)

        monkeypatch.setattr(expectation, "_gray_steps", counted)
        report = q_min(complete_graph(5), 7, mode="heuristic", heuristic_vertex_cap=5)
        assert report.lower_bound_only
        assert walks == []


class TestWalkerSym:
    @pytest.mark.parametrize("v", [2, 3, 4, 5, 6])
    def test_degree_symmetry_bound(self, v):
        auts = {}
        for H in graphs_on(v):
            for mask, nv, e, sym in _gray_steps(H):
                sub = tuple(H.edges[i] for i in range(H.edge_count) if mask >> i & 1)
                J = strip(sub)
                class_sizes = Counter(J.degrees()).values()
                assert (nv, e) == (J.n, len(sub))
                assert sym == math.prod(math.factorial(c) for c in class_sizes)
                key = (J.n, J.edges)
                if key not in auts:
                    auts[key] = automorphism_count(J)
                assert auts[key] <= sym


def degree_cap(J: Graph) -> int:
    """prod_d m_d! over the degree classes of J's vertices."""
    return math.prod(math.factorial(c) for c in Counter(J.degrees()).values())


def signature_cap(J: Graph) -> int:
    """prod_s m_s! over the classes of J's vertices with one signature
    s = (degree, sorted neighbour degrees), computed directly from J."""
    degrees = J.degrees()
    signatures = Counter(
        (degrees[x], tuple(sorted(degrees[y] for y in J.neighbors(x))))
        for x in range(J.n)
    )
    return math.prod(math.factorial(c) for c in signatures.values())


def assert_caps_bound_aut(H: Graph, mask: int, seen: dict) -> None:
    """The subset's _signature_key is its (v, e, sig), and
    sym >= sig >= aut; seen keeps (sym, sig, aut) per stripped subgraph."""
    sub = tuple(H.edges[i] for i in range(H.edge_count) if mask >> i & 1)
    J = strip(sub)
    key = (J.n, J.edges)
    if key not in seen:
        seen[key] = (degree_cap(J), signature_cap(J), automorphism_count(J))
    sym, want, aut = seen[key]
    v, e, sig = _signature_key(H, mask)
    assert (v, e) == (J.n, len(sub))
    assert sym >= sig >= aut
    assert sig == want


@st.composite
def masked_hosts(draw):
    """A graph on 2-9 vertices with an edge, and a nonempty edge mask."""
    v = draw(st.integers(min_value=2, max_value=9))
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    H = Graph(v, sorted(edges))
    mask = draw(st.integers(min_value=1, max_value=(1 << H.edge_count) - 1))
    return H, mask


class TestSignatureCap:
    """sym >= sig >= aut, where sig = prod_s m_s! over the vertex classes
    of one signature s = (degree, sorted neighbour degrees)."""

    @pytest.mark.parametrize("v", [2, 3, 4, 5, 6])
    def test_every_edge_subset(self, v):
        seen = {}
        for H in graphs_on(v):
            for mask, _, _, _ in _gray_steps(H):
                assert_caps_bound_aut(H, mask, seen)

    @pytest.mark.parametrize("v", [1, 2, 3, 4, 5, 6, 7])
    def test_every_whole_graph(self, v):
        for H in graphs_on(v):
            if H.edge_count:
                assert_caps_bound_aut(H, (1 << H.edge_count) - 1, {})

    @given(masked_hosts())
    def test_random_subsets(self, host_and_mask):
        H, mask = host_and_mask
        assert_caps_bound_aut(H, mask, {})
        assert_caps_bound_aut(H, (1 << H.edge_count) - 1, {})

    def test_refines_the_degree_classes(self):
        # P4: the two ends and the two inner vertices form the degree
        # classes and also the signature classes, sig = sym = 4 > aut = 2;
        # on the spider with legs 1, 2, 2 the two degree-1 leg ends split
        # from the degree-1 leaf next to the centre, so sig < sym
        assert _signature_key(path_graph(4), 0b111) == (4, 3, 4)
        spider = Graph(6, [(0, 1), (0, 2), (0, 4), (2, 3), (4, 5)])
        assert degree_cap(spider) == 12
        assert _signature_key(spider, 0b11111) == (6, 5, 4)
        assert automorphism_count(spider) == 2


@st.composite
def small_masked_hosts(draw):
    """A graph on 2-7 vertices with an edge, and a nonempty edge mask."""
    v = draw(st.integers(min_value=2, max_value=7))
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    H = Graph(v, sorted(edges))
    mask = draw(st.integers(min_value=1, max_value=(1 << H.edge_count) - 1))
    return H, mask


class TestAutMemoKey:
    """_class_of_mask memoizes aut under a relabeled copy of the subset."""

    @given(small_masked_hosts())
    def test_key_is_an_isomorphic_copy(self, host_and_mask):
        H, mask = host_and_mask
        for m in (mask, (1 << H.edge_count) - 1):
            sub = tuple(H.edges[i] for i in range(H.edge_count) if m >> i & 1)
            auts = {}
            (v, e, aut), tup = expectation._class_of_mask(H, m, auts)
            (key,) = auts
            assert tup == sub
            assert canonical_key(Graph(*key)) == canonical_key(strip(sub))
            assert (v, e, aut) == (key[0], len(sub), automorphism_count(strip(sub)))


def seed_bound(H: Graph, n: int, target_den: int):
    """Best threshold among the full edge set, a single edge and the
    densest part, with every aut counted from scratch."""
    best = None
    for mask in (*_seed_masks(H), 1):
        J = strip(tuple(H.edges[i] for i in range(H.edge_count) if mask >> i & 1))
        thr = class_threshold(n, target_den, J.n, J.edge_count, automorphism_count(J))
        if best is None or value_cmp(thr, best) > 0:
            best = thr
    return best


def class_threshold(n, target_den, v, e, aut):
    return make_value(Fraction(aut, target_den * math.perm(n, v)), e)


def random_host(seed: int, v: int, m: int) -> Graph:
    pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
    return Graph(v, sorted(random.Random(seed).sample(pairs, m)))


PRUNED_BIG_HOSTS = [
    disjoint_union(complete_graph(4), complete_graph(4), complete_graph(3)),
    disjoint_union(*[complete_graph(3)] * 5),
    cycle_graph(15),
    path_power_graph(9, 2),
    petersen_graph(),
    random_host(1, 9, 15),
    random_host(2, 10, 16),
]


class TestPrunedTableOracle:
    """The pruned report equals the full table restricted to the classes at
    or above the seed bound: rows, counts, descriptors and the verdict."""

    def check(self, H, table, n, target_den):
        bound = seed_bound(H, n, target_den)
        kept = {
            key: row for key, row in table.items()
            if value_cmp(class_threshold(n, target_den, *key), bound) >= 0
        }
        want = _build_report(
            H, n, target_den, kept, DEFAULT_DIGITS, table_complete=False
        )
        got = _build_report(
            H, n, target_den, _pruned_classes(H, n, target_den),
            DEFAULT_DIGITS, table_complete=False,
        )
        assert got.classes == want.classes
        assert value_cmp(got.threshold, want.threshold) == 0
        assert got.base_pair == want.base_pair
        assert got.witness_edges == want.witness_edges

    @pytest.mark.parametrize("v", [4, 5, 6])
    def test_catalog_hosts(self, v):
        for H in graphs_on(v):
            if not H.edge_count:
                continue
            table = scan_subgraph_classes(H)
            for n in (v, v + 5):
                for target_den in (1, 2):
                    self.check(H, table, n, target_den)

    @pytest.mark.parametrize("H", PRUNED_BIG_HOSTS, ids=to_graph6)
    def test_big_hosts(self, H):
        assert H.edge_count in (15, 16)
        table = scan_subgraph_classes(H)
        for n in (H.n, H.n + 5):
            for target_den in (1, 2):
                self.check(H, table, n, target_den)


class TestPrunedWalk:
    @pytest.mark.parametrize(
        "H", [path_power_graph(7, 2), petersen_graph()], ids=to_graph6
    )
    def test_one_walk_per_call(self, H, monkeypatch):
        walks = []

        def counted(G):
            walks.append(G)
            return _gray_steps(G)

        monkeypatch.setattr(expectation, "_gray_steps", counted)
        for target_den in (1, 2):
            walks.clear()
            _pruned_classes(H, H.n + 3, target_den)
            assert walks == [H]

    def test_member_cap_refusal(self):
        # P19 at n = 20: 423,187 of its 2^19 subsets pass the degree-symmetry
        # cap, past the 400k refusal
        with pytest.raises(EdgeCapError, match=r"candidate subsets \(423187\)"):
            q_min(path_graph(19), 20)


def count_classified(monkeypatch) -> list:
    """Count the subsets that reach an automorphism count, whatever any
    aut memo already holds: one per _class_of_mask call."""
    calls = [0]
    classify = expectation._class_of_mask

    def counted(*args):
        calls[0] += 1
        return classify(*args)

    monkeypatch.setattr(expectation, "_class_of_mask", counted)
    return calls


class TestClassifiedSubsets:
    """The signature cap settles most of the subsets that the degree-
    symmetry cap leaves, before they are classified."""

    def test_pruned_petersen(self, monkeypatch):
        calls = count_classified(monkeypatch)
        q_min(petersen_graph(), 10)
        # the sym cap alone leaves 2,753 subsets, the sig cap 143
        assert calls[0] <= 300

    def test_triangle_anneal(self, monkeypatch):
        calls = count_classified(monkeypatch)
        q = make_value(Fraction(1, 120), 3)
        extremal_search(10, q, complete_graph(3), 400, 3, host_cap=8)
        # the sym cap alone leaves 10,399 subsets, the sig cap 1,641
        assert calls[0] <= 2500


def count_profiles(monkeypatch) -> tuple:
    """Count the subset profiles built and the signature keys taken."""
    builds, sigs = [0], [0]
    profile, signature = expectation._subset_profile, expectation._signature_key

    def built(*args):
        builds[0] += 1
        return profile(*args)

    def keyed(*args):
        sigs[0] += 1
        return signature(*args)

    monkeypatch.setattr(expectation, "_subset_profile", built)
    monkeypatch.setattr(expectation, "_signature_key", keyed)
    return builds, sigs


class TestProfileOnce:
    """A subset the signature tier profiled is classified from that
    profile; only the seed masks, classified without a signature step,
    are profiled by the class step."""

    def test_pruned_petersen(self, monkeypatch):
        builds, sigs = count_profiles(monkeypatch)
        q_min(petersen_graph(), 10)
        # 2,750 signature keys plus the three seed masks; 2,893 builds
        # when the class step profiled each of its 143 subsets anew
        assert (builds[0], sigs[0]) == (2753, 2750)

    def test_triangle_anneal(self, monkeypatch):
        builds, sigs = count_profiles(monkeypatch)
        q = make_value(Fraction(1, 120), 3)
        extremal_search(10, q, complete_graph(3), 400, 3, host_cap=8)
        # 10,399 signature keys plus the seed masks; 12,044 builds when
        # the class step profiled each of its 1,645 subsets anew
        assert sigs[0] == 10_399 and builds[0] <= sigs[0] + 10


def count_auts(monkeypatch) -> list:
    """Count the automorphism counts that the scans make."""
    calls = [0]
    real = expectation.automorphism_count

    def counted(g):
        calls[0] += 1
        return real(g)

    monkeypatch.setattr(expectation, "automorphism_count", counted)
    return calls


class TestAutCounts:
    """Isomorphic subsets mostly share one aut memo entry."""

    def test_full_table(self, monkeypatch):
        calls = count_auts(monkeypatch)
        H = parse_graph("G@ttDg")
        assert H.edge_count == 13 and len(scan_subgraph_classes(H)) == 124
        # 8,191 subsets in 567 isomorphism classes; 1,148 counts, and
        # 6,674 when the memo was keyed in vertex-id order
        assert calls[0] <= 1300

    def test_triangle_anneal(self, monkeypatch):
        calls = count_auts(monkeypatch)
        q = make_value(Fraction(1, 120), 3)
        extremal_search(10, q, complete_graph(3), 400, 3, host_cap=8)
        # 541 counts, and 1,119 when the memo was keyed in vertex-id order
        assert calls[0] <= 700


class TestNewlyReachableHost:
    def test_path_power_11_2(self):
        # 19 edges: the (v, e) v!-bucket bound left 430,412 candidate subsets,
        # past the 400k refusal; the degree-symmetry bound is exact here
        H = path_power_graph(11, 2)
        n = 20
        report = q_min(H, n)
        assert report.base_pair == (3352212864000, 19)
        lo, hi = report.enclosure
        assert is_q_sparse(H, n, Fraction(hi)).sparse
        assert not is_q_sparse(H, n, Fraction(lo) - Fraction(1, 10**12)).sparse

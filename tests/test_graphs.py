"""Graph core: parsing, constructors, density, automorphisms, canonical forms."""

import copy
import dataclasses
import hashlib
import math
import pickle
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

import kklab.graphs
from kklab import (
    DensityValue,
    Graph,
    GraphParseError,
    automorphism_count,
    bowtie_graph,
    canonical_key,
    complete_graph,
    cycle_graph,
    density,
    derive_rng,
    disjoint_union,
    empty_graph,
    graphs_on,
    max_density,
    max_density_bruteforce,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    path_graph,
    path_power_graph,
    petersen_graph,
    sample_gnp,
    spider_graph,
    star_graph,
    theta_graph,
    to_edge_list,
    to_graph6,
)


def random_graph(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


graphs = st.composite(random_graph)()


class TestParsing:
    def test_edge_list_triangle(self):
        g = parse_edge_list("0 1\n1 2\n2 0")
        assert g.n == 3 and g.edge_count == 3

    def test_edge_list_rejects_loop(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("0 0")

    def test_graph6_round_trip_fixed(self):
        token = "D?{"
        assert to_graph6(parse_graph6(token)) == token

    def test_sniffing_accepts_both_formats(self):
        tri = complete_graph(3)
        assert parse_graph(to_graph6(tri)).edges == tri.edges
        assert parse_graph(to_edge_list(tri)).edges == tri.edges

    def test_edge_list_header_keeps_isolates(self):
        g = parse_edge_list("n=5\n0 1")
        assert g.n == 5 and g.edge_count == 1

    @given(graphs)
    def test_graph6_round_trip(self, g):
        back = parse_graph6(to_graph6(g))
        assert back.n == g.n and back.edges == g.edges

    @given(graphs)
    def test_edge_list_round_trip(self, g):
        back = parse_edge_list(to_edge_list(g))
        assert back.n == g.n and back.edges == g.edges


class TestConstructors:
    def test_petersen_shape(self):
        g = petersen_graph()
        assert g.n == 10 and g.edge_count == 15
        assert all(d == 3 for d in g.degrees())

    def test_theta_orders(self):
        g = theta_graph(1, 2, 2)
        assert g.n == 4 and g.edge_count == 5

    def test_theta_rejects_double_edge(self):
        with pytest.raises(ValueError):
            theta_graph(1, 1, 3)

    def test_spider(self):
        g = spider_graph([1, 2, 2])
        assert g.n == 6 and g.edge_count == 5 and g.max_degree() == 3

    def test_path_power(self):
        g = path_power_graph(5, 2)
        assert g.n == 5 and g.edge_count == 2 * 5 - 3

    def test_disjoint_union(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert g.n == 6 and g.edge_count == 6

    def test_tree_recognition(self):
        assert path_graph(4).is_tree()
        assert star_graph(5).is_tree()
        assert not cycle_graph(4).is_tree()
        assert not disjoint_union(path_graph(1), path_graph(1)).is_tree()


def reference_graph(n, edges):
    """(n, edges, adj, hash) by the set-based construction: dedupe through a
    set of normalized pairs, then sort."""
    if n < 0:
        raise ValueError("vertex count must be >= 0")
    seen = set()
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        u, v = min(u, v), max(u, v)
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    norm = tuple(sorted(seen))
    return n, norm, tuple(adj), hash((n, norm))


def built(g):
    return g.n, g.edges, g.adj, hash(g)


@st.composite
def shuffled_edge_lists(draw):
    """A simple graph's edge list in any order, each edge in either orientation."""
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]
    return n, draw(st.permutations(edges))


class TestGraphConstructor:
    """The one constructor: every refusal, its precedence, and the value it
    builds, against the set-based reference."""

    @pytest.mark.parametrize(
        "n,edges,message",
        [
            (-1, [], "vertex count must be >= 0"),
            (3, [(0, 1), (2, 2)], "loop edge at vertex 2"),
            # a loop out of range reports the loop
            (2, [(5, 5)], "loop edge at vertex 5"),
            (3, [(0, 3)], "edge (0, 3) out of range for n=3"),
            (3, [(3, 0)], "edge (3, 0) out of range for n=3"),
            (3, [(-1, 2)], "edge (-1, 2) out of range for n=3"),
            (2, [(0, 1), (1, 0)], "duplicate edge (0, 1)"),
            (4, [(2, 3), (1, 2), (3, 2)], "duplicate edge (2, 3)"),
        ],
    )
    def test_refusals(self, n, edges, message):
        with pytest.raises(ValueError) as err:
            Graph(n, edges)
        assert str(err.value) == message
        with pytest.raises(ValueError) as ref:
            reference_graph(n, edges)
        assert str(ref.value) == message

    def test_catalog_matches_reference(self):
        for v in range(1, 8):
            for g in graphs_on(v):
                assert built(g) == reference_graph(g.n, g.edges)

    def test_samples_match_reference(self):
        for seed in range(40):
            rng = derive_rng(seed, "constructor")
            n = rng.randrange(0, 25)
            g = sample_gnp(n, Fraction(rng.randrange(1, 8), 8), rng)
            assert built(g) == reference_graph(n, g.edges)

    @given(shuffled_edge_lists())
    def test_shuffled_edge_lists_match_reference(self, case):
        n, edges = case
        assert built(Graph(n, edges)) == reference_graph(n, edges)


class TestDensity:
    def test_complete_graph(self):
        assert density(complete_graph(4)) == Fraction(3, 2)

    def test_two_edge_path(self):
        assert density(path_graph(2)) == Fraction(2, 3)

    def test_single_vertex(self):
        assert density(empty_graph(1)) == 0

    def test_max_density_clique(self):
        best = max_density(complete_graph(4))
        assert Fraction(best.numerator, best.denominator) == Fraction(3, 2)
        assert sorted(best.witness) == [0, 1, 2, 3]

    def test_max_density_bowtie(self):
        best = max_density(bowtie_graph())
        assert Fraction(best.numerator, best.denominator) == Fraction(6, 5)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_max_density_trees(self, k):
        best = max_density(path_graph(k - 1))
        assert Fraction(best.numerator, best.denominator) == Fraction(k - 1, k)
        assert len(best.witness) == k

    @given(graphs)
    def test_flow_matches_bruteforce(self, g):
        flow = max_density(g)
        brute = max_density_bruteforce(g)
        assert Fraction(flow.numerator, flow.denominator) == Fraction(
            brute.numerator, brute.denominator
        )


@dataclasses.dataclass(frozen=True)
class FrozenDensity:
    """The frozen dataclass DensityValue used to be, as a reference."""

    numerator: int
    denominator: int
    witness: tuple


class TestDensityValue:
    """A hand-written immutable value: the constructor, refusal, equality,
    hash and repr a frozen dataclass would give it."""

    VALUES = [(1, 2, (0, 1)), (3, 2, (0, 1, 2, 3)), (0, 1, (0,)), (7, 5, (4, 2, 9, 1, 0))]

    def test_matches_the_frozen_dataclass(self):
        for fields in self.VALUES:
            value, ref = DensityValue(*fields), FrozenDensity(*fields)
            assert repr(value) == repr(ref).replace("FrozenDensity", "DensityValue")
            assert hash(value) == hash(ref)
            assert value == DensityValue(
                numerator=fields[0], denominator=fields[1], witness=fields[2]
            )
            assert value.value == Fraction(fields[0], fields[1])
            for other in self.VALUES:
                assert (value == DensityValue(*other)) == (ref == FrozenDensity(*other))
            assert value != ref and value != fields

    @pytest.mark.parametrize("fields", [(1, 0, (0,)), (1, 2, ()), (0, -1, (0,))])
    def test_refusal(self, fields):
        with pytest.raises(ValueError, match="^density witness must be nonempty$"):
            DensityValue(*fields)

    def test_immutable_and_copyable(self):
        value = DensityValue(1, 2, (0, 1))
        for name in ("numerator", "witness", "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, 3)
        with pytest.raises(AttributeError, match="cannot delete field 'numerator'"):
            del value.numerator
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value and copy.copy(value) == value


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "g,count",
        [
            (complete_graph(3), 6),
            (cycle_graph(4), 8),
            (path_graph(2), 2),
            (complete_graph(5), 120),
            (petersen_graph(), 120),
            (star_graph(4), 24),
            (bowtie_graph(), 8),
            (empty_graph(4), 24),
        ],
    )
    def test_known_orders(self, g, count):
        assert automorphism_count(g) == count

    @given(graphs, st.randoms(use_true_random=False))
    def test_canonical_key_is_relabeling_invariant(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_key(g.relabel(perm)) == canonical_key(g)

    @given(graphs, st.randoms(use_true_random=False))
    def test_aut_is_relabeling_invariant(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert automorphism_count(g.relabel(perm)) == automorphism_count(g)


def brute_force_aut(g):
    """Vertex permutations that map every edge onto an edge."""
    return sum(
        all(g.has_edge(p[u], p[v]) for u, v in g.edges) for p in permutations(range(g.n))
    )


PRISM = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
K33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])


class TestAutomorphismOracle:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_brute_force_on_catalog(self, k):
        for g in graphs_on(k):
            assert automorphism_count(g) == brute_force_aut(g), to_graph6(g)

    @pytest.mark.parametrize("lengths,count", [((3, 4), 48), ((3, 5), 60), ((4, 4), 128)])
    def test_regular_graph_whose_orbits_refinement_cannot_split(self, lengths, count):
        # the complement of a union of cycles is regular and connected, so
        # refinement leaves one cell, yet each cycle is its own orbit
        cycles = disjoint_union(*(cycle_graph(k) for k in lengths))
        g = Graph(cycles.n, [
            (i, j) for i in range(cycles.n) for j in range(i + 1, cycles.n)
            if not cycles.has_edge(i, j)
        ])
        assert automorphism_count(g) == count
        if g.n <= 7:
            assert brute_force_aut(g) == count

    def test_strongly_regular_pair(self):
        # both are srg(16, 6, 2, 2): refinement never splits a cell, so each
        # orbit is settled by searching for automorphisms
        steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
        shrikhande = Graph(16, [
            (i, j) for i in range(16) for j in range(i + 1, 16)
            if ((j // 4 - i // 4) % 4, (j - i) % 4) in steps
        ])
        rook = Graph(16, [
            (i, j) for i in range(16) for j in range(i + 1, 16)
            if (i // 4 == j // 4) != (i % 4 == j % 4)
        ])
        assert automorphism_count(shrikhande) == 192
        assert automorphism_count(rook) == 2 * 24**2

    def test_star(self):
        assert automorphism_count(star_graph(6)) == 720

    def test_isolated_vertices_only(self):
        assert automorphism_count(empty_graph(6)) == 720

    def test_components_sharing_degrees_are_split_by_type(self):
        # prism and K3,3 are both 3-regular on 6 vertices
        g = disjoint_union(PRISM, PRISM, K33, empty_graph(2))
        assert automorphism_count(g) == 12**2 * 2 * 72 * 2

    def test_connected_graph_needs_no_canonical_key(self, monkeypatch):
        def refuse(g):
            raise AssertionError("canonical_key called")

        monkeypatch.setattr(kklab.graphs, "canonical_key", refuse)
        assert automorphism_count(petersen_graph()) == 120
        assert automorphism_count(PRISM) == 12
        assert automorphism_count(disjoint_union(PRISM, star_graph(5))) == 12 * 120

    def test_small_connected_graphs_are_fixed_by_degrees(self):
        # automorphism_count groups components on <= 4 vertices by degrees alone
        for k in range(1, 5):
            connected = [g for g in graphs_on(k) if g.is_connected()]
            assert len({tuple(sorted(g.degrees())) for g in connected}) == len(connected)


class TestCanonicalPins:
    def test_catalog_graph6_digest(self):
        # canonical forms and catalog order of all 1,252 graphs on 1..7 vertices
        text = "\n".join(to_graph6(g) for k in range(1, 8) for g in graphs_on(k))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3d178cc4d9435005500783971c5a5f3b8534a410270eb270b0ea5100f0f991da"
        )


def brute_canonical_form(g):
    """The relabeling by the vertex order with the least row sequence, over
    every order that lists the ``refine_colors`` classes in rank order; the
    row of a vertex holds its adjacency to the earlier ones, bit i for the
    i-th."""
    colors = kklab.graphs.refine_colors(g)
    best = None
    for order in permutations(range(g.n)):
        if any(colors[a] > colors[b] for a, b in zip(order, order[1:])):
            continue
        rows = [
            sum((g.adj[v] >> w & 1) << i for i, w in enumerate(order[:pos]))
            for pos, v in enumerate(order)
        ]
        if best is None or rows < best[0]:
            best = (rows, order)
    perm = [0] * g.n
    for pos, v in enumerate(best[1]):
        perm[v] = pos
    return g.relabel(perm)


class TestCanonicalFormOracle:
    @pytest.mark.parametrize("k", range(7))
    def test_matches_brute_force_in_two_labelings(self, k):
        shuffle = derive_rng(k, "canonical-oracle").shuffle
        for g in graphs_on(k) if k else [empty_graph(0)]:
            perm = list(range(k))
            shuffle(perm)
            for h in (g, g.relabel(perm)):
                assert kklab.graphs.canonical_form(h) == brute_canonical_form(h), to_graph6(h)


def swap_is_automorphism(g, u, v):
    p = list(range(g.n))
    p[u], p[v] = v, u
    return all(g.has_edge(p[a], p[b]) for a, b in g.edges)


def assert_twin_classes_match_swaps(g):
    twin = kklab.graphs._twin_classes(g.adj)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert (twin[u] == twin[v]) == swap_is_automorphism(g, u, v), (to_graph6(g), u, v)


class TestOneAutomorphismSearch:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_twin_classes_are_the_automorphic_swaps_on_catalog(self, k):
        for g in graphs_on(k):
            assert_twin_classes_match_swaps(g)

    @given(graphs)
    def test_twin_classes_are_the_automorphic_swaps(self, g):
        assert_twin_classes_match_swaps(g)

    @pytest.mark.parametrize(
        "parts,count",
        [
            ([complete_graph(2)] * 20, 2**20 * math.factorial(20)),
            ([petersen_graph()] * 5, 120**5 * math.factorial(5)),
            ([cycle_graph(8)] * 3 + [complete_graph(3)] * 2, 16**3 * 6 * 6**2 * 2),
        ],
    )
    def test_many_copies_of_a_component(self, parts, count):
        assert automorphism_count(disjoint_union(*parts)) == count

    def test_disconnected_graph_needs_no_canonical_labeling(self, monkeypatch):
        def refuse(g):
            raise AssertionError("canonical labeling called")

        monkeypatch.setattr(kklab.graphs, "canonical_key", refuse)
        monkeypatch.setattr(kklab.graphs, "canonical_form", refuse)
        c5 = cycle_graph(5)
        assert automorphism_count(disjoint_union(c5, c5, PRISM, PRISM)) == (10**2 * 2) * (12**2 * 2)


# -- one home per encoding --------------------------------------------------


class TestEdgeMaskCodec:
    """An edge mask's bit i stands for g.edges[i]; the two graphs helpers
    translate it to and from vertex masks."""

    @pytest.mark.parametrize("v", range(1, 7))
    def test_span_of_every_edge_mask(self, v):
        for g in graphs_on(v):
            for emask in range(1 << g.edge_count):
                want = 0
                for i, (a, b) in enumerate(g.edges):
                    if emask >> i & 1:
                        want |= 1 << a | 1 << b
                assert kklab.graphs._span_mask(g, emask) == want, (to_graph6(g), emask)

    @pytest.mark.parametrize("v", range(1, 7))
    def test_edges_within_every_vertex_mask(self, v):
        for g in graphs_on(v):
            for vmask in range(1 << v):
                inside = {x for x in range(v) if vmask >> x & 1}
                want = sum(1 << i for i, e in enumerate(g.edges) if set(e) <= inside)
                got = kklab.graphs._edge_mask_within(g, vmask)
                assert got == want, (to_graph6(g), vmask)
                assert got.bit_count() == kklab.graphs._edges_within(g, vmask)


def has_edge_graph6(g) -> str:
    """Reference graph6 encoder: one has_edge call per vertex pair."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:
        head = [126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
    bits = 0
    nbits = n * (n - 1) // 2
    k = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if g.has_edge(i, j):
                bits |= 1 << k
            k -= 1
    nbytes = -(-nbits // 6)
    if nbits:
        bits <<= nbytes * 6 - nbits
    body = [((bits >> (6 * (nbytes - 1 - i))) & 63) + 63 for i in range(nbytes)]
    return bytes(head + body).decode("ascii")


class TestGraph6BitOrder:
    @pytest.mark.parametrize("v", range(1, 8))
    def test_catalog(self, v):
        for g in graphs_on(v):
            assert to_graph6(g) == has_edge_graph6(g)

    @pytest.mark.parametrize("n", [0, 1, 2, 60, 61, 62, 63, 64, 65, 69])
    def test_random_graphs_across_the_header_boundary(self, n):
        rng = random.Random(n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for density in (0.0, 0.1, 0.5, 1.0):
            g = Graph(n, [p for p in pairs if rng.random() < density])
            g6 = to_graph6(g)
            assert g6 == has_edge_graph6(g)
            assert parse_graph6(g6) == g

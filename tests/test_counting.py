"""Subgraph counting: generic backtracking, specialized counters, packing."""

import itertools
import math
import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, strategies as st

import kklab.counting as counting
from kklab import (
    Graph,
    ResourceGuardError,
    automorphism_count,
    bowtie_graph,
    TrialPlan,
    canonical_key,
    complete_graph,
    copies_as_edge_masks,
    count_cliques,
    count_copies,
    count_cycles,
    count_labeled,
    count_xy_paths,
    cycle_graph,
    empty_graph,
    estimate_pc,
    frontier_estimate,
    graphs_on,
    iter_labeled,
    max_xy_paths,
    packing_number,
    path_graph,
    petersen_graph,
    star_graph,
    trees_up_to,
)
from kklab.counting import contains
from kklab.verifier import _prepare_tree


def random_host(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph(n, edges)


hosts = st.composite(random_host)()

PATTERNS = [
    complete_graph(3),
    complete_graph(4),
    cycle_graph(4),
    cycle_graph(5),
    path_graph(1),
    path_graph(2),
    path_graph(3),
    star_graph(3),
]


class TestCopies:
    @pytest.mark.parametrize(
        "host,pattern,want",
        [
            (complete_graph(5), complete_graph(3), 10),
            (cycle_graph(5), complete_graph(3), 0),
            (complete_graph(4), cycle_graph(4), 3),
            (petersen_graph(), cycle_graph(5), 12),
        ],
    )
    def test_known_counts(self, host, pattern, want):
        assert count_copies(host, pattern) == want

    def test_pattern_with_isolates_scales_with_host_order(self):
        # a pattern isolate may land on any unused host vertex
        pattern = Graph(3, [(0, 1)])
        assert count_copies(complete_graph(4), pattern) == 6 * 2

    @given(hosts)
    def test_threads_do_not_change_counts(self, host):
        pattern = path_graph(2)
        assert count_copies(host, pattern, threads=4) == count_copies(host, pattern)


class TestLabeled:
    @pytest.mark.parametrize(
        "host,pattern,want",
        [
            (complete_graph(3), path_graph(2), 6),
            (path_graph(2), path_graph(1), 4),
            (star_graph(3), path_graph(2), 6),
        ],
    )
    def test_known_counts(self, host, pattern, want):
        assert count_labeled(host, pattern) == want

    @given(hosts, st.sampled_from(PATTERNS))
    def test_labeled_is_copies_times_aut(self, host, pattern):
        assert count_labeled(host, pattern) == count_copies(host, pattern) * automorphism_count(pattern)


class TestCliques:
    @pytest.mark.parametrize(
        "host,r,want",
        [
            (complete_graph(6), 4, 15),
            (petersen_graph(), 3, 0),
            (bowtie_graph(), 3, 2),
        ],
    )
    def test_known_counts(self, host, r, want):
        assert count_cliques(host, r) == want

    @given(hosts, st.integers(min_value=1, max_value=5))
    def test_matches_generic_counter(self, host, r):
        assert count_cliques(host, r) == count_copies(host, complete_graph(r))


class TestCycles:
    @pytest.mark.parametrize(
        "host,k,want",
        [
            (complete_graph(4), 4, 3),
            (cycle_graph(7), 7, 1),
            (cycle_graph(7), 5, 0),
        ],
    )
    def test_known_counts(self, host, k, want):
        assert count_cycles(host, k) == want

    @pytest.mark.parametrize("n", range(3, 10))
    def test_complete_host_closed_form(self, n):
        for k in range(3, n + 1):
            assert count_cycles(complete_graph(n), k) == math.perm(n, k) // (2 * k)

    @given(hosts, st.integers(min_value=3, max_value=6))
    def test_matches_generic_counter(self, host, k):
        assert count_cycles(host, k) == count_copies(host, cycle_graph(k))


class TestPaths:
    def test_antipodal_pair_on_a_hexagon(self):
        assert count_xy_paths(cycle_graph(6), 0, 3, 3) == 2

    def test_single_edge(self):
        assert count_xy_paths(complete_graph(3), 0, 1, 1) == 1

    def test_common_neighbors_in_k4(self):
        assert count_xy_paths(complete_graph(4), 0, 1, 2) == 2

    def test_endpoint_maximum(self):
        assert max_xy_paths(cycle_graph(6), 3)[0] == 2
        assert max_xy_paths(complete_graph(4), 2)[0] == 2
        assert max_xy_paths(empty_graph(5), 2)[0] == 0

    @given(hosts, st.integers(min_value=1, max_value=4))
    def test_pair_sums_count_unrooted_paths(self, host, edges):
        total = sum(
            count_xy_paths(host, x, y, edges)
            for x in range(host.n)
            for y in range(x + 1, host.n)
        )
        assert total == count_copies(host, path_graph(edges))

    def test_max_xy_paths_spends_one_budget(self):
        # the 45 endpoint pairs of the Petersen graph visit 795 nodes in all
        with pytest.raises(ResourceGuardError):
            max_xy_paths(petersen_graph(), 3, node_budget=794)
        assert max_xy_paths(petersen_graph(), 3, node_budget=795) == (2, (0, 2))


class TestPacking:
    @pytest.mark.parametrize(
        "host,pattern,want",
        [
            (complete_graph(4), complete_graph(3), 1),
            (complete_graph(7), complete_graph(3), 7),
            (cycle_graph(6), path_graph(2), 3),
        ],
    )
    def test_known_numbers(self, host, pattern, want):
        assert packing_number(host, pattern, mode="exact") == want

    @given(hosts, st.sampled_from(PATTERNS[:5]))
    def test_exact_at_least_greedy(self, host, pattern):
        exact = packing_number(host, pattern, mode="exact")
        greedy = packing_number(host, pattern, mode="greedy")
        assert exact >= greedy

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            packing_number(complete_graph(3), empty_graph(2))

    @pytest.mark.parametrize("v", range(3, 7))
    def test_matches_brute_force_on_catalog(self, v):
        # copies found by canonical keys of edge subsets, and the largest
        # pairwise disjoint family of them, on hosts with at most 16 copies
        patterns = (complete_graph(3), cycle_graph(4), path_graph(2), path_graph(3), star_graph(3))
        for host in graphs_on(v):
            for pattern in patterns:
                want = canonical_key(pattern)
                copies = []
                for idx in itertools.combinations(range(host.edge_count), pattern.edge_count):
                    sub = [host.edges[i] for i in idx]
                    spanned = set(sum(sub, ()))
                    if len(spanned) == pattern.n and (
                        canonical_key(Graph(host.n, sub).induced(spanned)) == want
                    ):
                        copies.append(sum(1 << i for i in idx))
                if len(copies) > 16:
                    continue
                assert copies_as_edge_masks(host, pattern) == sorted(copies)
                e = pattern.edge_count
                best = max(
                    r
                    for r in range(len(copies) + 1)
                    for family in itertools.combinations(copies, r)
                    if reduce(or_, family, 0).bit_count() == r * e
                )
                assert packing_number(host, pattern) == best, host.edges
                assert packing_number(host, pattern, mode="greedy") <= best


class TestResourceGuards:
    def test_node_budget(self):
        with pytest.raises(ResourceGuardError):
            count_copies(complete_graph(7), path_graph(3), node_budget=5)

    def test_copy_cap(self):
        with pytest.raises(ResourceGuardError):
            packing_number(complete_graph(7), path_graph(2), copy_cap=10)

    def test_copy_cap_refuses_before_the_walk_ends(self):
        # K14 holds 240,240 embeddings of P4; the cap must trip long before
        # the node budget does
        with pytest.raises(ResourceGuardError, match="copy list exceeds cap 1"):
            copies_as_edge_masks(complete_graph(14), path_graph(4), copy_cap=1, node_budget=1000)

    def test_packing_spends_one_budget_on_walk_and_branch_and_bound(self):
        # the copy walk of K3 in K8 takes 400 nodes; the branch and bound
        # would take over 200,000 more
        with pytest.raises(ResourceGuardError, match="node budget of 1000"):
            packing_number(complete_graph(8), complete_graph(3), node_budget=1000)
        # greedy spends only the walk's nodes
        assert packing_number(complete_graph(8), complete_graph(3), mode="greedy",
                              node_budget=1000) == 7

    def test_iter_labeled_refuses_on_the_frontier_estimate(self):
        # P3 in K8: the walk visits 8 + 56 + 336 + 1,680 = 2,080 nodes, but
        # the frontier estimate (8 * 7^3 = 2,744 homomorphisms) refuses first
        host, pattern = complete_graph(8), path_graph(3)
        with pytest.raises(ResourceGuardError, match="frontier estimate"):
            count_labeled(host, pattern, node_budget=2100)
        with pytest.raises(ResourceGuardError, match="frontier estimate"):
            list(iter_labeled(host, pattern, node_budget=2100))
        assert len(list(iter_labeled(host, pattern, node_budget=2744))) == 1680

    def test_edge_masks_match_embeddings(self):
        host, pattern = petersen_graph(), path_graph(3)
        index = {e: i for i, e in enumerate(host.edges)}
        want = set()
        for emb in iter_labeled(host, pattern):
            want.add(sum(1 << index[tuple(sorted((emb[a], emb[b])))] for a, b in pattern.edges))
        assert copies_as_edge_masks(host, pattern) == sorted(want)


class TestCatalog:
    def test_catalog_sizes(self):
        # non-isomorphic graph counts on 1..7 labeled-free vertices
        assert [len(graphs_on(v)) for v in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]

    def test_tree_counts(self):
        # 1, 1, 1, 2, 3 non-isomorphic trees on 1..5 vertices
        trees = trees_up_to(5)
        assert len(trees) == 8
        assert all(t.is_tree() for t in trees)


def spent_nodes(monkeypatch, call):
    """(result of call(), nodes spent by each budget it opened)."""
    opened = []

    class Spy(counting._Budget):
        def __init__(self, limit):
            super().__init__(limit)
            opened.append(self)

    monkeypatch.setattr(counting, "_Budget", Spy)
    got = call()
    return got, [b.used for b in opened]


def gnm_sample() -> Graph:
    """G(44, 300) drawn as the counting benchmark draws its seed-1 host."""
    pairs = [(a, b) for a in range(44) for b in range(a + 1, 44)]
    return Graph(44, sorted(random.Random("counting/1").sample(pairs, 300)))


class TestWalkPins:
    """The walks' node spends and frontier estimates, pinned.  A walk
    refuses exactly when its spend passes the budget, however it groups
    the spending: a budget of the spend passes and one less refuses."""

    @pytest.fixture(scope="class")
    def gnm_host(self):
        return gnm_sample()

    @pytest.mark.parametrize(
        "pattern,embeddings,nodes,estimate",
        [
            (cycle_graph(5), 455_770, 572_470, 20_106_944),
            (path_graph(3), 107_912, 116_700, 127_428),
        ],
    )
    def test_gnm_host(self, monkeypatch, gnm_host, pattern, embeddings, nodes, estimate):
        got, spent = spent_nodes(monkeypatch, lambda: count_labeled(gnm_host, pattern))
        assert (got, spent) == (embeddings, [nodes])
        assert frontier_estimate(gnm_host, pattern) == estimate

    def test_small_walk(self, monkeypatch):
        got, spent = spent_nodes(
            monkeypatch, lambda: count_labeled(complete_graph(8), path_graph(3), node_budget=3000)
        )
        assert (got, spent) == (1680, [2080])

    def test_gnm_cycles(self, monkeypatch, gnm_host):
        got, spent = spent_nodes(monkeypatch, lambda: count_cycles(gnm_host, 5))
        assert (got, spent) == (45_577, [319_891])

    def test_small_xy_walk(self, monkeypatch):
        # K7, 0 to 1 in 4 edges: 1 + 5 + 5*4 + 5*4*3 + 5*4*3*3 nodes
        got, spent = spent_nodes(monkeypatch, lambda: count_xy_paths(complete_graph(7), 0, 1, 4))
        assert (got, spent) == (60, [266])

    @pytest.mark.parametrize(
        "pattern,embeddings,nodes",
        [
            (cycle_graph(5), 455_770, 572_470),
            (path_graph(3), 107_912, 116_700),
        ],
    )
    def test_gnm_embedding_budget_edge(self, gnm_host, pattern, embeddings, nodes):
        # the frontier estimate refuses both budgets up front, so the walk
        # is run on its own
        with pytest.raises(ResourceGuardError, match=f"budget of {nodes - 1} "):
            counting._run_embedding(gnm_host, pattern, counting._Budget(nodes - 1))
        assert counting._run_embedding(gnm_host, pattern, counting._Budget(nodes)) == embeddings

    def test_small_embedding_budget_edge(self):
        host, pattern = complete_graph(8), path_graph(3)
        with pytest.raises(ResourceGuardError, match="budget of 2079 "):
            counting._run_embedding(host, pattern, counting._Budget(2079))
        assert counting._run_embedding(host, pattern, counting._Budget(2080)) == 1680

    def test_gnm_cycles_budget_edge(self, gnm_host):
        with pytest.raises(ResourceGuardError, match="budget of 319890 "):
            count_cycles(gnm_host, 5, node_budget=319_890)
        assert count_cycles(gnm_host, 5, node_budget=319_891) == 45_577

    def test_small_xy_budget_edge(self):
        with pytest.raises(ResourceGuardError, match="budget of 265 "):
            count_xy_paths(complete_graph(7), 0, 1, 4, node_budget=265)
        assert count_xy_paths(complete_graph(7), 0, 1, 4, node_budget=266) == 60


class TestBruteForceOracles:
    """The counting walks against enumerations that share no code with them,
    on hosts with at most 7 vertices."""

    @given(hosts, st.sampled_from(PATTERNS))
    def test_labeled_is_injective_maps(self, host, pattern):
        want = sum(
            all(host.adj[image[a]] >> image[b] & 1 for a, b in pattern.edges)
            for image in itertools.permutations(range(host.n), pattern.n)
        )
        assert count_labeled(host, pattern) == want

    @given(hosts, st.integers(min_value=3, max_value=7))
    def test_cycles_are_closed_sequences(self, host, k):
        # each k-cycle is 2k closed sequences: k starts, two directions
        closed = sum(
            all(host.adj[seq[i - 1]] >> seq[i] & 1 for i in range(k))
            for seq in itertools.permutations(range(host.n), k)
        )
        assert closed % (2 * k) == 0
        assert count_cycles(host, k) == closed // (2 * k)

    @given(hosts, st.integers(min_value=1, max_value=6))
    def test_xy_paths_are_simple_paths(self, host, edges):
        for x, y in itertools.permutations(range(host.n), 2):
            inner = [w for w in range(host.n) if w not in (x, y)]
            want = sum(
                all(host.adj[seq[i]] >> seq[i + 1] & 1 for i in range(edges))
                for middle in itertools.permutations(inner, edges - 1)
                for seq in [(x, *middle, y)]
            )
            assert count_xy_paths(host, x, y, edges) == want


def brute_force_homs(host: Graph, pattern: Graph) -> int:
    """Maps V(pattern) -> V(host) sending every pattern edge to a host edge."""
    return sum(
        all(host.adj[image[a]] >> image[b] & 1 for a, b in pattern.edges)
        for image in itertools.product(range(host.n), repeat=pattern.n)
    )


class TestForestEstimate:
    FORESTS = [
        g for v in range(1, 6) for g in graphs_on(v)
        if g.edge_count == g.n - len(g.components())
    ]

    @pytest.mark.parametrize(
        "host",
        [
            empty_graph(3),
            path_graph(3),
            cycle_graph(5),
            complete_graph(4),
            Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]),
        ],
    )
    def test_forest_dp_matches_brute_force(self, host):
        assert len(self.FORESTS) == 22
        for forest in self.FORESTS:
            assert counting._forest_hom_count(host, forest) == brute_force_homs(host, forest)


class TestOnePlanPerPattern:
    """``_match_plan`` runs its BFS once per distinct pattern; every walk,
    estimate and tree preparation after that reads the memo."""

    def test_one_plan_per_pattern_in_a_pc_run(self):
        counting._match_plan.cache_clear()
        result = estimate_pc(TrialPlan(n=20, pattern=complete_graph(3), trials=250, seed=1))
        info = counting._match_plan.cache_info()
        # the walk of every sample with at least three edges reads the plan
        assert info.misses == 1
        assert info.hits > sum(pr.trials for pr in result.probes) // 2

    def test_every_reader_shares_the_plan(self):
        tree = Graph(5, [(3, 0), (0, 4), (4, 1), (4, 2)])  # not in BFS order
        host = petersen_graph()
        counting._match_plan.cache_clear()
        assert contains(host, tree)
        labeled = count_labeled(host, tree)  # forest estimate, then the walk
        assert len(list(iter_labeled(host, tree))) == labeled
        assert copies_as_edge_masks(host, tree)
        assert frontier_estimate(host, tree) >= 1
        assert _prepare_tree(tree)[1] is not None
        assert counting._match_plan.cache_info().misses == 1
        assert counting._match_plan(tree) is counting._match_plan(Graph(5, tree.edges))

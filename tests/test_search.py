"""Extremal machinery: exact sweep oracle and the annealing search."""

import itertools
import json
import math
from fractions import Fraction

import pytest

from kklab import catalog, expectation, search
from kklab import (
    DEFAULT_EDGE_CAP,
    EdgeCapError,
    Graph,
    PreconditionError,
    certified_sparse,
    complete_graph,
    cycle_graph,
    exhaustive_sweep,
    extremal_search,
    graphs_on,
    is_q_sparse,
    make_value,
    path_graph,
    q_min,
    score_pair_cmp,
    to_graph6,
)


class TestScoreOrder:
    def test_equal_expectations_compare_copies(self):
        e = Fraction(3, 2)
        assert score_pair_cmp((5, e), (4, e), 3) > 0
        assert score_pair_cmp((4, e), (4, e), 3) == 0

    def test_cross_expectation_comparison(self):
        # 2^3/1 vs 3^3/4: 8 > 27/4
        assert score_pair_cmp((2, Fraction(1)), (3, Fraction(4)), 3) > 0
        assert score_pair_cmp((2, Fraction(1)), (3, Fraction(3)), 3) < 0

    def test_zero_copies_sort_low(self):
        assert score_pair_cmp((0, Fraction(1)), (1, Fraction(5)), 2) < 0


class TestCertifiedSparse:
    @pytest.mark.parametrize("q", [Fraction(1, 5), Fraction(2, 5), Fraction(1)])
    def test_matches_reference_check(self, q):
        n = 10
        for g in graphs_on(4):
            assert certified_sparse(g, n, q) == is_q_sparse(g, n, q).sparse

    @pytest.mark.parametrize(
        "g,n,q,message",
        [
            (complete_graph(4), 3, Fraction(1, 2), "ambient n=3 is below the host's 4 vertices"),
            (path_graph(2), 10, Fraction(3, 2), "probability must lie in [0, 1]"),
            (path_graph(2), 10, Fraction(-1, 2), "probability must lie in [0, 1]"),
        ],
    )
    def test_refuses_what_the_reference_check_refuses(self, g, n, q, message):
        for check in (certified_sparse, is_q_sparse):
            with pytest.raises(PreconditionError) as err:
                check(g, n, q)
            assert str(err.value) == message

    def test_disproof_decides_past_the_edge_cap(self):
        # K4's full edge set has expectation (10)_4/24 * 10^-6 < 1
        assert certified_sparse(complete_graph(4), 10, Fraction(1, 10), edge_cap=3) is False

    def test_refuses_past_the_edge_cap_what_the_disproof_cannot_decide(self):
        # two disjoint edges, sparse at q = 1/20, pass both seed masks
        two_edges = Graph(4, [(0, 1), (2, 3)])
        assert certified_sparse(two_edges, 10, Fraction(1, 20))
        with pytest.raises(EdgeCapError, match="quick disproof found no violation"):
            certified_sparse(two_edges, 10, Fraction(1, 20), edge_cap=1)

    def test_matches_reference_check_at_the_triangle_root(self):
        n = 10
        q = q_min(complete_graph(3), n).threshold
        for v in range(2, 7):
            for g in graphs_on(v):
                assert certified_sparse(g, n, q) == is_q_sparse(g, n, q).sparse, g.edges

    def test_sweep_builds_the_powers_of_q_once(self, monkeypatch):
        # one memo's q^1..q^15 for the whole sweep, plus the winner's expectation
        q = q_min(complete_graph(3), 10).threshold
        calls = []
        real = expectation.value_pow

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(expectation, "value_pow", counted)
        exhaustive_sweep(10, q, complete_graph(3), v_cap=6)
        assert len(calls) <= math.comb(6, 2) + 1


def brute_aut(edges: tuple) -> int:
    """Permutations of the spanned vertices that keep the edge set."""
    at = {x: i for i, x in enumerate(sorted({x for e in edges for x in e}))}
    pairs = [(at[a], at[b]) for a, b in edges]
    both_ways = set(pairs) | {(b, a) for a, b in pairs}
    return sum(
        all((p[a], p[b]) in both_ways for a, b in pairs)
        for p in itertools.permutations(range(len(at)))
    )


class TestCertifyOracle:
    """``_VerdictMemo.certify`` against the exact expectation of every edge
    subset, its aut counted by permutations, on every catalog graph on at
    most 6 vertices.  q = root^(1/k), so a subset on v vertices with e
    edges violates when ((n)_v / aut)^k * root^e < 1."""

    GRAPHS = [g for v in range(1, 7) for g in graphs_on(v)]

    @pytest.fixture(scope="class")
    def auts(self):
        return {}

    @staticmethod
    def brute_sparse(H, n, root, k, auts, below) -> bool:
        for mask in range(1, 1 << H.edge_count):
            edges = tuple(e for i, e in enumerate(H.edges) if mask >> i & 1)
            v, e = len({x for pair in edges for x in pair}), len(edges)
            if (v, e) not in below:
                # aut <= v!, so no subset with (n)_v/v! * q^e >= 1 violates
                below[v, e] = Fraction(math.comb(n, v)) ** k * root ** e < 1
            if not below[v, e]:
                continue
            if edges not in auts:
                auts[edges] = brute_aut(edges)
            if Fraction(math.perm(n, v), auts[edges]) ** k * root ** e < 1:
                return False
        return True

    @pytest.mark.parametrize(
        "root,k,sparse", [(Fraction(1, 120), 3, 82), (Fraction(1, 4), 1, 106)]
    )
    def test_every_subset(self, auts, root, k, sparse):
        n = 10
        below = {}
        want = [self.brute_sparse(g, n, root, k, auts, below) for g in self.GRAPHS]
        assert sum(want) == sparse
        memo = expectation._VerdictMemo(n, make_value(root, k), math.comb(6, 2))
        assert [memo.certify(g, DEFAULT_EDGE_CAP) for g in self.GRAPHS] == want


class TestSweep:
    def test_triangle_on_three_vertices(self):
        result = exhaustive_sweep(10, Fraction(1), complete_graph(3), v_cap=3)
        assert to_graph6(result.graph) == "Bw"
        assert result.copies == 1

    def test_infeasible_q(self):
        with pytest.raises(PreconditionError):
            exhaustive_sweep(10, Fraction(1, 1000), complete_graph(3), v_cap=4)

    def test_vertex_cap_guard(self):
        with pytest.raises(PreconditionError):
            exhaustive_sweep(10, Fraction(1), complete_graph(3), v_cap=9)

    def test_triangle_probe_regression(self):
        q = q_min(complete_graph(3), 10).threshold
        result = exhaustive_sweep(10, q, complete_graph(3), v_cap=6)
        assert to_graph6(result.graph) == "Bw"
        assert result.copies == 1
        assert result.enclosure == ("1.000000000000", "1.000000000000")
        assert result.candidates == 208
        assert result.sparse_candidates == 82

    def test_threads_do_not_change_result(self):
        q = Fraction(1, 2)
        one = exhaustive_sweep(8, q, path_graph(2), v_cap=5, threads=1)
        four = exhaustive_sweep(8, q, path_graph(2), v_cap=5, threads=4)
        assert one.to_json() == four.to_json()


class TestSparseLevels:
    """The sweep extends only the sparse classes of each level; filtering
    the full catalog level is its brute-force oracle."""

    CASES = (
        (complete_graph(3), 10, None),
        (cycle_graph(4), 12, None),
        (path_graph(3), 12, None),
        (complete_graph(3), 10, Fraction(1)),
    )

    @pytest.mark.parametrize("F, n, q", CASES, ids=["K3", "C4", "P3", "q=1"])
    def test_levels_match_the_filtered_catalog(self, monkeypatch, F, n, q):
        q = q_min(F, n).threshold if q is None else q
        seen = []
        real = search._hereditary_levels

        def recorded(*args):
            for level in real(*args):
                seen.append(level)
                yield level

        monkeypatch.setattr(search, "_hereditary_levels", recorded)
        result = exhaustive_sweep(n, q, F, v_cap=6)
        memo = expectation._VerdictMemo(n, q, math.comb(6, 2))
        assert len(seen) == 6
        for v, level in enumerate(seen, start=1):
            full = graphs_on(v)
            assert level == tuple(g for g in full if memo.certify(g, DEFAULT_EDGE_CAP))
            if q == 1:
                assert level == full
        assert result.sparse_candidates == sum(map(len, seen))

    def test_sweep_builds_only_sparse_classes(self, monkeypatch):
        # each of the 1, 2, 4, 9, 20, 46 sparse classes on v = 1..6 vertices
        # is extended by all 2^v neighbourhoods: 3,770 canonical forms, where
        # extending every class on 1..6 vertices would take 11,290
        calls = []
        real = catalog.canonical_form

        def counted(g):
            calls.append(g.n)
            return real(g)

        def refuse(v):
            raise AssertionError(f"the sweep built the full level on {v} vertices")

        monkeypatch.setattr(catalog, "canonical_form", counted)
        monkeypatch.setattr(catalog, "graphs_on", refuse)
        monkeypatch.setattr(search, "graphs_on", refuse, raising=False)
        q = q_min(complete_graph(3), 10).threshold
        result = exhaustive_sweep(10, q, complete_graph(3), v_cap=7)
        assert len(calls) == 3770
        assert (result.candidates, result.sparse_candidates) == (1252, 186)

    def test_certify_walks_only_after_the_disproof(self, monkeypatch):
        # the seed-mask disproof rejects most classes before any subset walk
        q = q_min(complete_graph(3), 10).threshold
        walks, steps = [], [0]
        real = expectation._gray_steps

        def counted(H):
            walks.append(H)
            for step in real(H):
                steps[0] += 1
                yield step

        monkeypatch.setattr(expectation, "_gray_steps", counted)
        result = exhaustive_sweep(10, q, complete_graph(3), v_cap=7)
        assert result.sparse_candidates == 186
        assert (len(walks), steps[0]) == (154, 10_511)

    def test_densest_part_only_when_the_full_set_passes(self, monkeypatch):
        # the full edge set alone rejects most classes, so the disproof runs
        # the max-flow search for the densest part only on the rest
        q = q_min(complete_graph(3), 10).threshold
        flows = []
        real = expectation.max_density

        def counted(H):
            flows.append(H)
            return real(H)

        monkeypatch.setattr(expectation, "max_density", counted)
        result = exhaustive_sweep(10, q, complete_graph(3), v_cap=7)
        assert result.sparse_candidates == 186
        # 763 when the densest part was found before the full set was tested
        assert len(flows) == 176

    def test_levels_come_in_graph6_order(self):
        # the sweep keeps the first class with the most copies as the one
        # with the smallest graph6 string, which needs this order
        q = q_min(complete_graph(3), 10).threshold
        memo = expectation._VerdictMemo(10, q, math.comb(7, 2))
        for keep, total in ((lambda g: True, 1252),
                            (lambda g: memo.certify(g, DEFAULT_EDGE_CAP), 186)):
            g6 = [to_graph6(g) for level in catalog._hereditary_levels(7, keep) for g in level]
            assert len(g6) == total
            assert all(a < b for a, b in zip(g6, g6[1:]))

    def test_candidates_come_from_the_count_table(self):
        assert catalog._GRAPH_COUNTS[:7] == tuple(len(graphs_on(v)) for v in range(1, 8))
        q = q_min(complete_graph(3), 10).threshold
        for v_cap in range(1, 8):
            result = exhaustive_sweep(10, q, complete_graph(3), v_cap=v_cap)
            assert result.candidates == sum(len(graphs_on(v)) for v in range(1, v_cap + 1))


class TestAnnealer:
    def test_zero_budget_leaderboard(self):
        result = extremal_search(10, Fraction(1), complete_graph(3), budget=0, seed=0)
        assert len(result.entries) == 1
        entry = result.entries[0]
        assert entry.copies == 0 and to_graph6(entry.graph) == "@"

    def test_triangle_found_at_q_one(self):
        result = extremal_search(
            8, Fraction(1), complete_graph(3), budget=300, seed=1, host_cap=6
        )
        assert result.entries[0].copies >= 1

    def test_matches_sweep_oracle(self):
        q = q_min(complete_graph(3), 10).threshold
        sweep = exhaustive_sweep(10, q, complete_graph(3), v_cap=6)
        search = extremal_search(
            10, q, complete_graph(3), budget=2000, seed=7, host_cap=6
        )
        best = search.entries[0]
        assert to_graph6(best.graph) == to_graph6(sweep.graph)
        assert best.enclosure == sweep.enclosure

    def test_reproducible_across_threads_and_reruns(self):
        q = Fraction(1, 2)
        runs = [
            extremal_search(
                8, q, cycle_graph(4), budget=500, seed=3, host_cap=6,
                chains=3, threads=t,
            ).to_json()
            for t in (1, 4, 2)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_chain_metadata(self):
        result = extremal_search(
            8, Fraction(1), complete_graph(3), budget=200, seed=5, host_cap=5, chains=2
        )
        meta = result.metadata
        assert meta["chains"] == 2 and len(meta["chain_stats"]) == 2
        for stat in meta["chain_stats"]:
            assert stat["budget"] in (100, 101, 99, 100)
            assert stat["accepted"] <= stat["budget"]

    def test_pattern_must_fit_host_cap(self):
        with pytest.raises(PreconditionError):
            extremal_search(10, Fraction(1), complete_graph(5), budget=10, seed=0, host_cap=4)

    def test_infeasible_q(self):
        with pytest.raises(PreconditionError):
            extremal_search(10, Fraction(1, 1000), complete_graph(3), budget=10, seed=0)


class TestCertifyOnce:
    """The engines score the hosts they certified from the copies they
    counted, and an anneal's audits share its chain memo."""

    @staticmethod
    def k3_anneal():
        q = q_min(complete_graph(3), 10).threshold
        return extremal_search(10, q, complete_graph(3), budget=400, seed=3, host_cap=8)

    @pytest.fixture
    def recounts(self, monkeypatch):
        calls = []
        real = search.count_copies

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "count_copies", counted)
        monkeypatch.setattr(expectation, "count_copies", counted)
        return calls

    def test_sweep_does_not_recount(self, recounts):
        q = q_min(complete_graph(3), 10).threshold
        assert exhaustive_sweep(10, q, complete_graph(3), v_cap=6).copies == 1
        assert recounts == []

    def test_anneal_does_not_recount(self, recounts):
        assert self.k3_anneal().entries
        assert recounts == []

    def test_anneal_builds_one_memo(self, monkeypatch):
        built = []
        real = search._VerdictMemo

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(search, "_VerdictMemo", counted)
        result = self.k3_anneal()
        assert result.metadata["chain_stats"][0]["audited"] == 2
        assert len(built) == 1

    def test_bounded_aut_memo_keeps_the_leaderboard(self, monkeypatch):
        want = json.dumps(self.k3_anneal().to_json())
        cap = 8
        sizes = []
        classify = expectation._class_of_mask

        def watched(H, mask, auts):
            sizes.append(len(auts))
            return classify(H, mask, auts)

        monkeypatch.setattr(expectation, "_AUT_MEMO_CAP", cap)
        monkeypatch.setattr(expectation, "_class_of_mask", watched)
        assert json.dumps(self.k3_anneal().to_json()) == want
        # the memo filled to the cap, was emptied, and never passed it
        assert max(sizes) == cap - 1 and sizes.count(0) > 1

"""Sparsity thresholds: expectations, q_min, p_E, required_L, crude bound."""

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import kklab
from kklab import (
    EdgeCapError,
    Graph,
    PreconditionError,
    bowtie_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    expectation_threshold,
    expected_copies,
    falling_factorial_bound_check,
    is_q_sparse,
    make_value,
    path_graph,
    peel_threshold_a,
    q_min,
    required_L,
    safe_edge_bound,
    star_graph,
    value_cmp,
    value_mul,
    value_pow,
    violation_scan,
)


def small_graph(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs))
    )
    return Graph(n, edges)


sparse_inputs = st.composite(small_graph)()
probabilities = st.fractions(min_value=Fraction(1, 50), max_value=Fraction(1, 1))


class TestExpectedCopies:
    def test_triangle_small(self):
        assert expected_copies(3, Fraction(1, 2), complete_graph(3)) == Fraction(1, 8)

    def test_cycle_at_p_one(self):
        assert expected_copies(5, Fraction(1), cycle_graph(4)) == 15

    def test_pattern_too_big(self):
        assert expected_copies(4, Fraction(1), complete_graph(5)) == 0


class TestQmin:
    def test_triangle_at_ten(self):
        report = q_min(complete_graph(3), 10)
        assert report.base_pair == (120, 3)
        assert report.enclosure == ("0.202740066519", "0.202740066520")
        assert report.witness_edges == ((0, 1), (0, 2), (1, 2))
        # subordinate classes: edge 1/45, two-edge path 360^(-1/2)
        thresholds = {c.descriptor: c.threshold for c in report.classes}
        assert Fraction(1, 45) in thresholds.values()
        assert any(
            value_cmp(t, make_value(Fraction(1, 360), 2)) == 0
            for t in thresholds.values()
        )

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_single_edge(self, n):
        report = q_min(path_graph(1), n)
        assert report.threshold == Fraction(1, math.comb(n, 2))

    def test_triangle_tight_host(self):
        assert q_min(complete_graph(3), 3).threshold == 1

    def test_verdict_for_matches_threshold(self):
        report = q_min(complete_graph(3), 10)
        assert not report.verdict_for(Fraction(1, 5))
        assert report.verdict_for(Fraction(21, 100))

    def test_heuristic_flags_lower_bound(self):
        report = q_min(complete_graph(4), 10, mode="heuristic")
        assert report.lower_bound_only

    def test_edge_cap_guard(self):
        with pytest.raises(EdgeCapError):
            q_min(complete_graph(6), 10, edge_cap=10)


class TestSparseCheck:
    def test_triangle_examples(self):
        assert is_q_sparse(complete_graph(3), 10, Fraction(1, 4)).sparse
        check = is_q_sparse(complete_graph(3), 10, Fraction(1, 10))
        assert not check.sparse
        assert check.witness_edges == ((0, 1), (0, 2), (1, 2))
        assert check.expectation == Fraction(120, 1000)

    @given(sparse_inputs)
    def test_everything_is_one_sparse(self, g):
        assert is_q_sparse(g, g.n + 2, Fraction(1)).sparse

    @given(sparse_inputs, probabilities)
    def test_verdict_agrees_with_threshold(self, g, q):
        want = q_min(g, g.n + 3).verdict_for(q)
        assert is_q_sparse(g, g.n + 3, q).sparse == want

    @given(sparse_inputs, probabilities, probabilities)
    def test_monotone_in_q(self, g, q1, q2):
        lo, hi = sorted((q1, q2))
        if is_q_sparse(g, g.n + 3, lo).sparse:
            assert is_q_sparse(g, g.n + 3, hi).sparse

    @given(sparse_inputs, probabilities)
    def test_subgraph_closed(self, g, q):
        if not is_q_sparse(g, g.n + 3, q).sparse:
            return
        sub = Graph(g.n, g.edges[:-1])
        assert is_q_sparse(sub, g.n + 3, q).sparse

    def test_disconnected_witness_can_bind(self):
        # two far-apart triangles at an n where each triangle alone passes
        pair = disjoint_union(complete_graph(3), complete_graph(3))
        single = complete_graph(3)
        n = 10
        q = q_min(single, n).threshold
        assert is_q_sparse(single, n, q).sparse
        assert not is_q_sparse(pair, n, q).sparse

    def test_q_the_millionth_root_of_one_half(self):
        # q = 2^(-1/10^6): each class's verdict is a sign, so no product
        # with q's millionth root is ever built
        code = (
            "from fractions import Fraction\n"
            "from kklab import complete_graph, is_q_sparse, make_value\n"
            "q = make_value(Fraction(1, 2), 10**6)\n"
            "print(is_q_sparse(complete_graph(3), 10, q).sparse)\n"
        )
        src = str(pathlib.Path(kklab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=10,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0 and proc.stdout == "True\n", proc.stderr


class TestExpectationThreshold:
    def test_triangle_tight_host(self):
        report = expectation_threshold(complete_graph(3), 3)
        assert value_cmp(report.threshold, make_value(Fraction(1, 2), 3)) == 0

    def test_single_edge(self):
        assert expectation_threshold(path_graph(1), 3).threshold == Fraction(1, 6)

    def test_triangle_at_ten(self):
        report = expectation_threshold(complete_graph(3), 10)
        assert report.base_pair == (240, 3)

    @given(sparse_inputs)
    def test_below_q_min(self, g):
        n = g.n + 3
        pe = expectation_threshold(g, n).threshold
        qm = q_min(g, n).threshold
        assert value_cmp(pe, qm) <= 0


class TestRequiredL:
    def test_triangle_self_score_is_one(self):
        req = required_L(complete_graph(3), complete_graph(3), 10, q_min(complete_graph(3), 10).threshold)
        assert req.value == 1
        assert req.copies == 1 and req.expectation == 1

    def test_zero_copies(self):
        req = required_L(path_graph(2), complete_graph(3), 10, Fraction(1, 2))
        assert req.value == 0
        assert all(Fraction(side) == 0 for side in req.enclosure)

    def test_bowtie_regression(self):
        host = bowtie_graph()
        req = required_L(host, complete_graph(3), 10, q_min(host, 10).threshold)
        assert req.copies == 2
        assert value_cmp(req.value, make_value(Fraction(21, 20), 6)) == 0
        assert req.enclosure == ("1.008164846051", "1.008164846052")

    def test_requires_sparse_host(self):
        with pytest.raises(PreconditionError):
            required_L(complete_graph(4), complete_graph(3), 10, Fraction(1, 10))


class TestSafeEdgeBound:
    def test_q_one_certifies_everything(self):
        assert safe_edge_bound(10, Fraction(1), 10, 24) == 24

    def test_bound_is_monotone_in_q(self):
        lo = safe_edge_bound(12, Fraction(1, 4), 12, 24)
        hi = safe_edge_bound(12, Fraction(1, 2), 12, 24)
        assert lo <= hi

    @given(sparse_inputs, probabilities)
    def test_soundness(self, g, q):
        # inside the certified range every graph really is sparse
        if g.edge_count <= safe_edge_bound(g.n + 3, q, 2 * g.edge_count, 24):
            assert is_q_sparse(g, g.n + 3, q).sparse

    def test_agrees_with_scan_shortcut(self):
        g = complete_graph(3)
        ok, _, _ = violation_scan(g, 50, Fraction(1, 2))
        assert ok

    def test_matches_the_bucket_scan(self):
        def bucket_scan(n, q, v_cap, e_cap):
            # each realizable (v, e) bucket in turn, powers built per call
            if e_cap < 1:
                return e_cap
            powers = [Fraction(1)] + [value_pow(q, e) for e in range(1, e_cap + 1)]
            for e in range(1, e_cap + 1):
                for v in range(2, min(2 * e, v_cap) + 1):
                    if e > math.comb(v, 2):
                        continue
                    crude = value_mul(Fraction(math.comb(n, v)), powers[e])
                    if value_cmp(crude, 1) < 0:
                        return e - 1
            return e_cap

        root = q_min(complete_graph(3), 10).threshold
        for n in (3, 10, 20):
            for q in (Fraction(1, 10), Fraction(2, 5), Fraction(1), root):
                for v_cap in range(1, 9):
                    for e_cap in range(22):
                        want = bucket_scan(n, q, v_cap, e_cap)
                        assert safe_edge_bound(n, q, v_cap, e_cap) == want, (n, q, v_cap, e_cap)


class TestSmallHelpers:
    def test_peel_threshold(self):
        assert peel_threshold_a(complete_graph(3), 3, Fraction(1)) == Fraction(1, 3)
        assert peel_threshold_a(path_graph(1), 4, Fraction(1, 2)) == Fraction(3, 4)
        assert peel_threshold_a(star_graph(3), 6, Fraction(0)) == 0

    @pytest.mark.parametrize("a,b", [(5, 3), (1, 1), (10, 10), (12, 7)])
    def test_falling_factorial_bound(self, a, b):
        assert falling_factorial_bound_check(a, b)

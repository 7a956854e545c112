"""Machine-checked propositions: structure bounds, packing, fit classes,
legal sequences, path-length cutoff, peeling."""

import hashlib
import inspect
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import kklab.counting
import kklab.expectation
import kklab.verifier
from kklab import (
    Graph,
    PreconditionError,
    ResourceGuardError,
    bowtie_graph,
    complete_graph,
    cycle_graph,
    count_legal_sequences,
    derive_rng,
    ell_hat,
    fit_decompose,
    make_value,
    parse_edge_list,
    path_graph,
    peel_min_degree,
    q_min,
    required_L,
    star_graph,
    value_cmp,
    value_mul,
    value_pow,
    verify_fit_partition,
    verify_main_inequality,
    verify_packing,
    verify_structure,
)
from kklab.cli import load_graph, main
from kklab.verifier import DegreeProfile, _power_exceeds_one


class TestStructure:
    def test_triangle_at_its_threshold(self):
        q = q_min(complete_graph(3), 10).threshold
        reports = verify_structure(complete_graph(3), 10, q)
        assert len(reports) == 5
        assert all(r.verdict for r in reports)

    def test_triangle_at_easy_q(self):
        reports = verify_structure(complete_graph(3), 10, Fraction(1, 4))
        assert all(r.verdict for r in reports)

    def test_rejects_non_sparse_host(self):
        with pytest.raises(PreconditionError) as err:
            verify_structure(complete_graph(4), 10, Fraction(1, 10))
        assert err.value.witness is not None

    def test_reports_carry_inputs(self):
        reports = verify_structure(path_graph(2), 8, Fraction(1, 3))
        for r in reports:
            assert r.inputs["n"] == 8
            assert r.to_json()["verdict"] is True


RATIO_QS = [
    Fraction(0),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(99, 100),
    Fraction(1, 1000),
    Fraction(1),
    make_value(Fraction(1, 2), 3),
    make_value(Fraction(2, 3), 2),
    make_value(Fraction(3, 4), 2),
    make_value(Fraction(1, 120), 3),
]


def exact_power_exceeds_one(n, t, q, e) -> bool:
    """n^t * q^e > 1 by the exact power, true when e = 0 or q = 1."""
    if e == 0 or value_cmp(q, 1) == 0:
        return True
    return value_cmp(value_mul(Fraction(n) ** t, value_pow(q, e)), 1) > 0


class TestRatioBounds:
    """The two ratio bounds decide n^t * q^e > 1 by bit lengths first."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 100, 255, 299])
    def test_bit_lengths_agree_with_the_exact_power(self, n):
        # e runs past n*log2 n, where n^n * (1/2)^e crosses 1
        top = n * (n.bit_length() + 2)
        for q in RATIO_QS:
            for t in sorted({1, n}):
                for e in range(0, top + 1, max(1, top // 120)):
                    want = exact_power_exceeds_one(n, t, q, e)
                    assert _power_exceeds_one(n, t, q, e) == want, (n, t, q, e)

    def test_a_million_vertices_build_no_power(self, monkeypatch):
        calls = []
        real = kklab.verifier.value_pow

        def counted(x, k):
            calls.append(k)
            return real(x, k)

        monkeypatch.setattr(kklab.verifier, "value_pow", counted)
        reports = verify_structure(complete_graph(3), 10**6, Fraction(1, 2))
        ratios = [r.verdict for r in reports if r.prop_id.endswith("ratio-bound")]
        assert ratios == [True, True]
        assert calls == []


class TestPacking:
    def test_bowtie_triangles(self):
        host = bowtie_graph()
        q = q_min(host, 10).threshold
        report = verify_packing(host, complete_graph(3), 10, q)
        assert report.verdict and report.lhs == "2"

    def test_clique_triangles(self):
        host = complete_graph(7)
        q = q_min(host, 40).threshold
        assert verify_packing(host, complete_graph(3), 40, q).verdict

    def test_absent_pattern_is_trivial(self):
        report = verify_packing(path_graph(3), complete_graph(3), 10, Fraction(1, 2))
        assert report.verdict and report.lhs == "0"


class TestPeel:
    def test_every_vertex_survives(self):
        result = peel_min_degree(complete_graph(4), complete_graph(3), 3)
        assert result.surviving == (0, 1, 2, 3)
        assert result.degrees == (3, 3, 3, 3)

    def test_cascade_to_empty(self):
        result = peel_min_degree(complete_graph(4), complete_graph(3), 4)
        assert result.surviving == ()

    def test_pendant_vertex_is_peeled(self):
        host = parse_edge_list("0 1\n0 2\n1 2\n2 3")
        result = peel_min_degree(host, complete_graph(3), 1)
        assert result.surviving == (0, 1, 2)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_survivors_ignore_deletion_order(self, seed):
        host = complete_graph(5)
        base = peel_min_degree(host, complete_graph(3), 3)
        shuffled = peel_min_degree(host, complete_graph(3), 3, rng=derive_rng(seed, "peel"))
        assert shuffled.surviving == base.surviving


class TestFit:
    def test_star_leaf_first_copy(self):
        host = star_graph(4)
        # center is vertex 0, threshold sqrt(eps)*d = 3
        rec = fit_decompose(host, path_graph(1), (1, 0), eps=1, d=3)
        assert rec.profile.big == (False, True)
        assert rec.residual == (1, 3)
        assert rec.profile.d == (1, 3)

    def test_star_center_first_copy(self):
        rec = fit_decompose(star_graph(4), path_graph(1), (0, 1), eps=1, d=3)
        assert rec.profile.big == (True, False)
        assert rec.profile.d == (4, 0)

    def test_no_residual_neighbors(self):
        rec = fit_decompose(path_graph(1), path_graph(1), (0, 1), eps=1, d=2)
        assert rec.profile.big == (False, False)
        assert rec.rhat_edges == path_graph(1).edges

    def test_threshold_must_clear_max_degree(self):
        with pytest.raises(PreconditionError):
            fit_decompose(star_graph(4), star_graph(3), (0, 1, 2, 3), eps=1, d=3)

    def test_partition_star(self):
        report = verify_fit_partition(star_graph(4), path_graph(1), eps=1, d=3)
        assert report.verdict
        assert report.lhs == "8"
        assert len(report.witness["classes"]) == 2

    def test_partition_cycle_all_small(self):
        report = verify_fit_partition(cycle_graph(5), path_graph(2), eps=1, d=3)
        assert report.verdict
        assert report.lhs == "10"
        assert len(report.witness["classes"]) == 1

    def test_partition_refusal_set(self):
        # the walk needs 2,080 nodes and the frontier estimate is 2,744: the
        # call refuses below the estimate and passes at it
        host, tree = complete_graph(8), path_graph(3)
        for budget in (1, 2079, 2080, 2100, 2743):
            with pytest.raises(ResourceGuardError):
                verify_fit_partition(host, tree, 1, 3, node_budget=budget)
        report = verify_fit_partition(host, tree, 1, 3, node_budget=2744)
        assert report.verdict and report.lhs == report.rhs == "1680"

    def test_partition_without_copies(self):
        report = verify_fit_partition(path_graph(1), path_graph(3), eps=1, d=4)
        assert report.verdict and report.lhs == "0"

    @given(st.integers(min_value=0, max_value=10**6))
    def test_decompose_is_idempotent(self, seed):
        rng = derive_rng(seed, "fit")
        n = rng.randrange(4, 8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        host = Graph(n, [e for e in pairs if rng.random() < 0.5])
        tree = path_graph(2)
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if len({x, y, z}) == 3 and host.has_edge(x, y) and host.has_edge(y, z):
                        rec = fit_decompose(host, tree, (x, y, z), eps=1, d=4)
                        again = fit_decompose(host, tree, (x, y, z), eps=1, d=4)
                        assert rec == again


class TestLegalSequences:
    def test_hand_values(self):
        f = (1, 1, 0)
        assert count_legal_sequences(f, 1, 4, 0, 9).count == 1
        assert count_legal_sequences(f, 1, 4, 4, 9).count == 3
        assert count_legal_sequences(f, 1, 4, 9, 9).count == 9

    def test_bound_reported(self):
        result = count_legal_sequences((1, 1, 0), 1, 4, 9, 9)
        assert result.big_threshold == 4
        assert result.bound_applicable and result.bound_holds

    def test_cap_below_threshold_rejected(self):
        with pytest.raises(PreconditionError):
            count_legal_sequences((1, 1, 0), 1, 4, 4, 3)

    def test_big_child_counts_rejected(self):
        with pytest.raises(PreconditionError):
            count_legal_sequences((5, 0), 1, 4, 4, 9)

    @pytest.mark.parametrize("eps,d", [(1, 2), (1, 3), (Fraction(1, 4), 4), (Fraction(1, 2), 3)])
    def test_matches_enumeration(self, eps, d):
        # every vector whose entries are each a big value in [m, d_cap] or
        # the child count, with the big entries summing to D
        m = next(k for k in itertools.count(1) if k * k >= Fraction(eps) * d * d)
        for length in range(1, 4):
            for f in itertools.product(range(m), repeat=length):
                for d_cap in range(m, m + 4):
                    choices = [(x, *range(m, d_cap + 1)) for x in f]
                    big_sums = [
                        sum(x for x in vec if x >= m) for vec in itertools.product(*choices)
                    ]
                    for D in range(length * d_cap + 2):
                        result = count_legal_sequences(f, eps, d, D, d_cap)
                        assert result.big_threshold == m
                        assert result.count == big_sums.count(D), (f, d_cap, D)


class TestEllHat:
    def test_powers_of_ten(self):
        result = ell_hat(10**6, Fraction(1, 10**3), Fraction(1, 10))
        assert result.value == 1
        assert result.at_value_ok and result.above_value_fails

    def test_powers_of_two(self):
        result = ell_hat(2**20, Fraction(1, 2**15), Fraction(1, 10))
        assert result.value == 3

    def test_q_at_reciprocal_n_rejected(self):
        with pytest.raises(PreconditionError):
            ell_hat(100, Fraction(1, 100), Fraction(1, 2))


class TestMainInequality:
    def test_strict_at_two(self):
        q = q_min(complete_graph(3), 10).threshold
        report = verify_main_inequality(
            complete_graph(3), complete_graph(3), 10, q, 2
        )
        assert report.verdict
        assert report.witness["required_L"] == ["1.000000000000", "1.000000000000"]

    def test_fails_exactly_at_one(self):
        q = q_min(complete_graph(3), 10).threshold
        report = verify_main_inequality(
            complete_graph(3), complete_graph(3), 10, q, 1
        )
        assert not report.verdict

    def test_zero_copies_pass(self):
        report = verify_main_inequality(
            path_graph(2), complete_graph(3), 10, Fraction(1, 2), 1
        )
        assert report.verdict


def counting_host():
    """The seed-1 G(44, 300) host of the counting benchmark workload."""
    rng = random.Random("counting/1")
    pairs = [(a, b) for a in range(44) for b in range(a + 1, 44)]
    return Graph(44, rng.sample(pairs, 300))


class TestFitPins:
    # values captured before the fit class was keyed without building records

    def test_partition_report_on_a_gnm_host(self):
        doc = verify_fit_partition(counting_host(), path_graph(2), 1, 3).to_json()
        assert doc["lhs"] == doc["rhs"] == "8144"
        assert len(doc["witness"]["classes"]) == 1789
        text = json.dumps(doc, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f21c09aa5d7541f7bec244573964ca3a580d6873330e63b2413ddd882fb9a21a"
        )

    def test_decompose_on_a_tree_not_in_bfs_order(self):
        tree = Graph(5, [(0, 2), (2, 4), (1, 2), (3, 4)])  # BFS order 0, 2, 1, 4, 3
        host = Graph(9, [
            (a, b) for a in range(9) for b in range(a + 1, 9) if (a * b + a + b) % 3 != 1
        ])
        rec = fit_decompose(host, tree, (4, 1, 5, 7, 8), eps=1, d=4)
        assert rec.copy == (4, 5, 1, 8, 7)
        assert rec.residual == (5, 7, 3, 5, 1)
        assert rec.profile == DegreeProfile(
            f=(1, 2, 0, 1, 0), d=(5, 7, 0, 5, 0), big=(True, True, False, True, False), D=17
        )
        assert rec.b == (0, 0, 1, 2, 3)
        assert rec.backedge_mask == 490
        assert rec.rhat_vertices == (4, 5, 1, 8, 7, 0, 2, 3, 6)
        assert rec.rhat_edges == (
            (0, 5), (0, 8), (1, 4), (1, 5), (2, 4), (2, 5), (2, 8), (3, 5), (3, 8),
            (4, 5), (4, 7), (4, 8), (5, 6), (5, 7), (5, 8), (6, 8), (7, 8),
        )
        first = fit_decompose(host, tree, (0, 1, 2, 5, 3), eps=1, d=4)
        assert first.profile.d == (5, 7, 4, 1, 4) and first.profile.D == 20
        assert first.backedge_mask == 456 and first.b == (0, 0, 0, 1, 3)


class TestMainInequalityCountsOnce:
    def test_one_labeled_count(self, monkeypatch):
        calls = []
        real = kklab.counting.count_labeled

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kklab.counting, "count_labeled", counted)
        q = q_min(complete_graph(3), 10).threshold
        report = verify_main_inequality(complete_graph(3), complete_graph(3), 10, q, 2)
        assert report.verdict and report.lhs == "1"
        assert len(calls) == 1


class TestOneCertificate:
    """Each command certifies its host once: one walk of the edge subsets."""

    @pytest.fixture
    def walks(self, monkeypatch):
        hosts = []
        real = kklab.expectation._gray_steps

        def counted(H):
            hosts.append(H)
            return real(H)

        monkeypatch.setattr(kklab.expectation, "_gray_steps", counted)
        return hosts

    def test_verify_props_walks_the_host_once(self, walks, capsys):
        argv = ["verify", "props", "--graph", "pathpower:8:2", "--n", "14",
                "--q", "2/5", "--pattern", "P2"]
        assert main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["reports"]) == 6
        assert walks == [load_graph("pathpower:8:2")]

    def test_main_inequality_certifies_through_required_L(self, walks):
        assert "skip_sparsity_check" not in inspect.signature(required_L).parameters
        with pytest.raises(PreconditionError, match="not q-sparse"):
            verify_main_inequality(
                complete_graph(4), complete_graph(3), 10, Fraction(1, 10), 2
            )
        assert walks == [complete_graph(4)]

    def test_direct_calls_still_refuse_a_dense_host(self):
        with pytest.raises(PreconditionError, match="not q-sparse"):
            verify_packing(complete_graph(4), path_graph(2), 10, Fraction(1, 10))

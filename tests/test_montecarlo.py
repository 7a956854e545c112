"""Seeded sampling, threshold bisection, and certified instance generators."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kklab import montecarlo
from kklab.counting import contains
from kklab import (
    GENERATOR_FAMILIES,
    PreconditionError,
    TrialPlan,
    bernoulli,
    complete_graph,
    cycle_graph,
    derive_rng,
    estimate_pc,
    generate_sparse,
    is_q_sparse,
    make_value,
    path_graph,
    q_min,
    sample_gnp,
    value_cmp,
    wilson_interval,
)


class TestRng:
    def test_same_path_same_stream(self):
        a = derive_rng(7, "x", 1)
        b = derive_rng(7, "x", 1)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_paths_are_independent(self):
        a = derive_rng(7, "x", 1)
        b = derive_rng(7, "x", 2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_seed_matters(self):
        assert derive_rng(1, "t").random() != derive_rng(2, "t").random()


class TestBernoulli:
    def test_degenerate(self):
        rng = derive_rng(0, "b")
        assert not bernoulli(rng, Fraction(0))
        assert bernoulli(rng, Fraction(1))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_rational_mean(self, seed):
        rng = derive_rng(seed, "mean")
        p = Fraction(1, 3)
        hits = sum(bernoulli(rng, p) for _ in range(300))
        assert 60 <= hits <= 140  # 100 expected, generous slack

    def test_root_probability_is_deterministic(self):
        p = q_min(complete_graph(3), 10).threshold  # irrational
        first = [bernoulli(derive_rng(5, "r", i), p) for i in range(64)]
        second = [bernoulli(derive_rng(5, "r", i), p) for i in range(64)]
        assert first == second
        assert any(first) and not all(first)

    def test_root_probability_frequency(self):
        # p = 120^(-1/3) = 0.2027; 2048 draws, mean 415
        p = make_value(Fraction(1, 120), 3)
        hits = sum(bernoulli(derive_rng(11, "freq", i), p) for i in range(2048))
        assert 330 <= hits <= 500


class TestSampling:
    def test_extreme_probabilities(self):
        rng = derive_rng(3, "g")
        assert sample_gnp(6, Fraction(0), rng).edge_count == 0
        assert sample_gnp(6, Fraction(1), rng).edge_count == 15

    def test_rejects_bad_probability(self):
        with pytest.raises(PreconditionError):
            sample_gnp(4, Fraction(3, 2), derive_rng(0, "g"))

    def test_edge_count_concentration(self):
        total = 0
        for i in range(60):
            total += sample_gnp(30, Fraction(1, 2), derive_rng(i, "conc")).edge_count
        mean = total / 60
        # 217.5 expected, sd ~ 10.4/sqrt(60)
        assert 207 <= mean <= 228


class TestEstimate:
    def test_plan_validation(self):
        with pytest.raises(PreconditionError):
            TrialPlan(n=2, pattern=complete_graph(3))
        with pytest.raises(PreconditionError):
            TrialPlan(n=4, pattern=path_graph(1), trials=0)

    def test_single_edge_tiny_host(self):
        result = estimate_pc(TrialPlan(n=2, pattern=path_graph(1)))
        assert result.p_hat == Fraction(129, 256)
        lo, hi = result.interval
        assert lo <= Fraction(1, 2) <= hi

    def test_single_edge_three_vertices(self):
        result = estimate_pc(TrialPlan(n=3, pattern=path_graph(1)))
        assert result.p_hat == Fraction(53, 256)
        target = make_value(Fraction(1, 8), 3)  # 1 - 2^(-1/3) lives nearby
        lo, hi = result.interval
        assert lo == Fraction(3, 16) and hi == Fraction(7, 32)
        # the closed-form threshold 1 - 2^(-1/3) is inside the interval
        offset = value_cmp(make_value(Fraction(1, 2), 3), 1 - lo)
        assert offset <= 0 and value_cmp(make_value(Fraction(1, 2), 3), 1 - hi) >= 0

    def test_interval_contains_estimate(self):
        for seed in range(6):
            result = estimate_pc(
                TrialPlan(n=3, pattern=path_graph(1), seed=seed, trials=300)
            )
            lo, hi = result.interval
            assert lo <= result.p_hat <= hi

    def test_threads_do_not_change_bytes(self):
        plan = TrialPlan(n=5, pattern=complete_graph(3), trials=200, seed=9)
        one = estimate_pc(plan, threads=1)
        four = estimate_pc(plan, threads=4)
        assert one == four
        assert one.to_json() == four.to_json()
        assert one.trace_csv() == four.trace_csv()

    def test_trace_is_monotone_in_probes(self):
        result = estimate_pc(TrialPlan(n=4, pattern=path_graph(1), trials=400, seed=2))
        probed = sorted(result.probes, key=lambda pr: pr.p)
        rates = [pr.successes / pr.trials for pr in probed]
        # containment probability grows with p, up to CI slack
        for a, b in zip(rates, rates[1:]):
            assert b >= a - 0.15


class TestWilson:
    def test_brackets_the_rate(self):
        lo, hi = wilson_interval(30, 100, 0.95)
        assert lo < 0.3 < hi

    def test_shrinks_with_trials(self):
        lo1, hi1 = wilson_interval(30, 100, 0.95)
        lo2, hi2 = wilson_interval(300, 1000, 0.95)
        assert hi2 - lo2 < hi1 - lo1

    def test_stays_inside_unit_interval(self):
        lo, hi = wilson_interval(0, 50, 0.99)
        assert 0 <= lo and hi < 1
        lo, hi = wilson_interval(50, 50, 0.99)
        assert lo > 0 and hi <= 1


class TestGenerators:
    def test_families_are_published(self):
        assert set(GENERATOR_FAMILIES) == {
            "gnp-repair", "clique-union", "theta", "spider", "path-power",
        }

    @pytest.mark.parametrize(
        "family,params",
        [
            ("gnp-repair", {"vertices": 5}),
            ("clique-union", {"sizes": [3, 4]}),
            ("theta", {"a": 2, "b": 2, "c": 3}),
            ("spider", {"legs": [1, 2, 2]}),
            ("path-power", {"vertices": 6, "power": 2}),
        ],
    )
    def test_output_is_certified(self, family, params):
        q = Fraction(2, 5)
        g = generate_sparse(14, q, family, rng=derive_rng(1, "gen", family), params=params)
        assert is_q_sparse(g, 14, q).sparse

    def test_single_block_clique_union(self):
        g = generate_sparse(10, Fraction(1, 4), "clique-union", params={"sizes": [3]})
        assert g.edge_count == 3

    @pytest.mark.parametrize("family", GENERATOR_FAMILIES)
    def test_q_one_always_accepts(self, family):
        g = generate_sparse(12, Fraction(1), family, rng=derive_rng(2, "gen", family))
        assert g.n >= 1

    def test_theta_rejected_below_its_threshold(self):
        with pytest.raises(PreconditionError) as err:
            generate_sparse(
                12, Fraction(1, 50), "theta", params={"a": 1, "b": 2, "c": 2}
            )
        assert err.value.witness

    def test_gnp_repair_is_deterministic(self):
        q = q_min(complete_graph(3), 10).threshold
        a = generate_sparse(10, q, "gnp-repair", rng=derive_rng(4, "gen"))
        b = generate_sparse(10, q, "gnp-repair", rng=derive_rng(4, "gen"))
        assert a.n == b.n and a.edges == b.edges

    def test_repair_budget_exhaustion(self):
        with pytest.raises(RuntimeError):
            generate_sparse(
                10,
                Fraction(1, 100),
                "gnp-repair",
                rng=derive_rng(0, "gen"),
                params={"vertices": 7, "boost": 40},
                repair_budget=1,
            )

    def test_unknown_family(self):
        with pytest.raises(PreconditionError):
            generate_sparse(10, Fraction(1, 2), "mystery")


class TestSamplerOracle:
    """``sample_gnp`` against the per-pair ``bernoulli`` reference."""

    @pytest.mark.parametrize(
        "p", [make_value(Fraction(5), 2), Fraction(-1, 2)], ids=["sqrt5", "minus_half"]
    )
    def test_out_of_range_probability_is_refused(self, p):
        with pytest.raises(PreconditionError):
            bernoulli(derive_rng(0, "range"), p)
        with pytest.raises(PreconditionError):
            sample_gnp(4, p, derive_rng(0, "range"))

    @pytest.mark.parametrize(
        "p",
        [
            Fraction(0),
            Fraction(1),
            Fraction(1, 2),
            Fraction(23, 256),
            Fraction(3, 7),
            Fraction(1, 3),
            Fraction(999, 1000),
            Fraction(1, 1000),
            pytest.param(q_min(complete_graph(3), 10).threshold, id="qmin_K3_n10"),
            pytest.param(make_value(Fraction(1, 120), 3), id="cbrt_1_120"),
            pytest.param(make_value(Fraction(1, 2), 2), id="sqrt_1_2"),
        ],
        ids=str,
    )
    def test_draw_for_draw(self, p):
        # non-dyadic denominators run randrange's rejection loop; equal
        # states afterwards mean no draw was added or lost
        for seed in range(40):
            a = derive_rng(seed, "oracle", str(p))
            b = derive_rng(seed, "oracle", str(p))
            for n in (0, 1, 2, 7, 12):
                reference = [
                    (i, j) for i in range(n) for j in range(i + 1, n) if bernoulli(b, p)
                ]
                assert list(sample_gnp(n, p, a).edges) == reference
                assert a.getstate() == b.getstate()



class _FloatRandom(random.Random):
    # overriding random() makes CPython's randrange draw through random(),
    # not getrandbits, so the word-level draw rule no longer holds
    def random(self):
        return super().random()


class TestBatchedSamplerOracle:
    """The batched top-byte draws against ``bernoulli``, several rounds deep."""

    @pytest.mark.parametrize(
        "p",
        [
            Fraction(1, 2),
            Fraction(5, 8),
            Fraction(1, 255),
            Fraction(254, 255),
            Fraction(127, 128),
            Fraction(11, 128),
            Fraction(9, 128),
            Fraction(255, 256),  # den 256 needs 9 bits: the per-pair path
        ],
        ids=str,
    )
    @pytest.mark.parametrize("stream", ["derived", "float_subclass"])
    def test_draw_for_draw(self, p, stream):
        make = {"derived": lambda s: derive_rng(s, "batched", str(p)),
                "float_subclass": _FloatRandom}[stream]
        for seed in range(12):
            a, b = make(seed), make(seed)
            for n in (24, 40):
                reference = [
                    (i, j) for i in range(n) for j in range(i + 1, n) if bernoulli(b, p)
                ]
                assert list(sample_gnp(n, p, a).edges) == reference
                assert a.getstate() == b.getstate()


def test_pc_checks_p_once_per_probe(monkeypatch):
    calls = []

    def spy(x, y):
        calls.append((x, y))
        return value_cmp(x, y)

    monkeypatch.setattr(montecarlo, "value_cmp", spy)
    result = estimate_pc(TrialPlan(n=20, pattern=complete_graph(3), trials=250, seed=1))
    assert 0 < len(calls) <= 2 * len(result.probes)

def _probe(p, successes, wilson_low, wilson_high):
    return {
        "p": p, "successes": successes, "trials": 250,
        "wilson_low": wilson_low, "wilson_high": wilson_high,
    }


_ALL = (0.9848667005045553, 0.9999999999999998)

PINNED_PC = [
    (
        complete_graph(3), 20, 1787483971,
        {
            "n": 20, "pattern": "Bw", "trials": 250, "seed": 1787483971,
            "tolerance": "1/100", "confidence": 0.95,
            "p_hat": "23/256", "interval": ["5/64", "1/8"],
            "probes": [
                _probe("1/2", 250, *_ALL),
                _probe("1/4", 250, *_ALL),
                _probe("1/8", 205, 0.7676481206243572, 0.8626665676985582),
                _probe("1/16", 60, 0.19124884041749646, 0.2966204753201347),
                _probe("3/32", 126, 0.4424326671345239, 0.5654462664695125),
                _probe("5/64", 97, 0.3297252242653439, 0.44966463482163566),
                _probe("11/128", 114, 0.3953921335918012, 0.5179395967637979),
            ],
        },
    ),
    (
        cycle_graph(4), 24, 1748025857,
        {
            "n": 24, "pattern": "Cl", "trials": 250, "seed": 1748025857,
            "tolerance": "1/100", "confidence": 0.95,
            "p_hat": "19/256", "interval": ["1/16", "5/64"],
            "probes": [
                _probe("1/2", 250, *_ALL),
                _probe("1/4", 250, *_ALL),
                _probe("1/8", 240, 0.9279472764187334, 0.9781300880454574),
                _probe("1/16", 85, 0.28409658843703767, 0.40074606740150454),
                _probe("3/32", 207, 0.7763472799248405, 0.8697252756061478),
                _probe("5/64", 147, 0.5261050290746588, 0.6472315102141429),
                _probe("9/128", 110, 0.37983697819773843, 0.5019790177417148),
            ],
        },
    ),
]


@pytest.mark.parametrize("pattern,n,seed,expected", PINNED_PC, ids=["K3_n20", "C4_n24"])
def test_pc_pinned_at_benchmark_scale(pattern, n, seed, expected):
    result = estimate_pc(TrialPlan(n=n, pattern=pattern, trials=250, seed=seed))
    assert result.to_json() == expected


class TestTrialOracle:
    """Each ``estimate_pc`` trial, run on adjacency masks with its draws read
    ahead, against ``contains(sample_gnp(...))`` on an equal stream."""

    @pytest.mark.parametrize(
        "pattern,n,trials,tolerance",
        [
            (complete_graph(3), 20, 60, Fraction(1, 100)),
            (cycle_graph(4), 24, 60, Fraction(1, 100)),
            (path_graph(3), 12, 60, Fraction(1, 100)),
            (complete_graph(4), 16, 60, Fraction(1, 100)),
            # probes with denominator 512 and 1024 take the per-pair branch
            (complete_graph(3), 12, 25, Fraction(1, 1024)),
        ],
        ids=["K3_n20", "C4_n24", "P3_n12", "K4_n16", "K3_tol1024"],
    )
    def test_each_trial_matches_contains(self, pattern, n, trials, tolerance):
        plan = TrialPlan(n=n, pattern=pattern, trials=trials, seed=11, tolerance=tolerance)
        result = estimate_pc(plan)
        assert any(pr.p.denominator >= 256 for pr in result.probes) == (tolerance < Fraction(1, 256))
        for i, probe in enumerate(result.probes):
            gnp = montecarlo._gnp_plan(n, probe.p)
            outcomes = []
            for t in range(trials):
                stream = derive_rng(plan.seed, "pc", i, t)
                trial = montecarlo._trial(n, gnp, pattern, derive_rng(plan.seed, "pc", i, t))
                assert trial == contains(sample_gnp(n, probe.p, stream), pattern), (probe.p, t)
                outcomes.append(trial)
            assert sum(outcomes) == probe.successes


class TestReadAheadOracle:
    """The read-ahead pairs against ``sample_gnp``'s: the same accepted
    prefix, however many words past it the read-ahead drew."""

    @pytest.mark.parametrize(
        "p",
        [Fraction(1, 2), Fraction(1, 16), Fraction(23, 256), Fraction(3, 7),
         Fraction(1, 255), Fraction(254, 255)],
        ids=str,
    )
    def test_same_pairs_as_sample_gnp(self, p):
        for n in (2, 7, 20, 24):
            plan = montecarlo._gnp_plan(n, p)
            for seed in range(60):
                ahead = list(montecarlo._kept_pairs(
                    *plan, derive_rng(seed, "ahead", str(p)), read_ahead=True
                ))
                assert ahead == list(sample_gnp(n, p, derive_rng(seed, "ahead", str(p))).edges)

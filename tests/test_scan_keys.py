"""Threshold comparisons on class keys, and verdicts without powers of q.

``expectation._threshold_sign`` compares two class thresholds
(aut/(t*(n)_v))^(1/e) on their (v, e, aut) keys; the oracle is the
comparison of the two thresholds built as exact values.  The scans build
a threshold only for the report rows that print it, and ``_VerdictMemo``
builds an expectation only for the violator it returns.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from kklab import expectation
from kklab.exact import make_value, value_cmp
from kklab.expectation import _threshold_sign, expectation_threshold, q_min
from kklab.graphs import complete_graph, cycle_graph, path_power_graph, petersen_graph


def threshold(n, target_den, v, e, aut):
    return make_value(Fraction(aut, target_den * math.perm(n, v)), e)


class TestThresholdSign:
    def test_matches_exact_values(self):
        rng = random.Random(5)
        keys = [(2, 1, 2), (3, 3, 6), (4, 6, 24), (4, 4, 8), (6, 6, 72), (6, 6, 12)]
        keys += [(v, rng.randrange(v - 1, v * (v - 1) // 2 + 1), rng.randrange(1, 50))
                 for v in rng.choices(range(3, 9), k=14)]
        for n, target_den in ((8, 1), (12, 2), (1000, 1)):
            for a, b in itertools.product(keys, repeat=2):
                want = value_cmp(threshold(n, target_den, *a), threshold(n, target_den, *b))
                assert _threshold_sign(n, target_den, a, b) == want, (n, a, b)

    def test_tie_between_different_keys(self):
        # at n = 4: (6/12)^(1/1) and (6/24)^(1/2) are both 1/2
        assert _threshold_sign(4, 1, (2, 1, 6), (4, 2, 6)) == 0
        assert _threshold_sign(4, 1, (2, 1, 6), (4, 2, 5)) == 1
        assert _threshold_sign(4, 1, (2, 1, 5), (4, 2, 6)) == -1


HOSTS = [
    (complete_graph(4), 10),  # full table
    (petersen_graph(), 13),  # 15 edges: pruned
    (path_power_graph(9, 2), 14),  # 15 edges: pruned
]


@pytest.mark.parametrize("H, n", HOSTS, ids=["K4", "petersen", "pathpower9_2"])
def test_thresholds_built_only_for_printed_rows(monkeypatch, H, n):
    calls = []
    real = expectation._class_threshold

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(expectation, "_class_threshold", spy)
    for scan in (q_min, expectation_threshold):
        report = scan(H, n)
        assert len(calls) == len(report.classes)
        assert [c.threshold for c in report.classes] == [real(*args) for args in calls]
        assert report.threshold == report.classes[0].threshold
        calls.clear()


class TestVerdictMemo:
    def test_no_powers_and_bool_verdicts(self):
        q = q_min(complete_graph(3), 10).threshold
        memo = expectation._VerdictMemo(10, q, 10)
        assert not hasattr(memo, "powers")
        verdicts = [memo.below_one(v, e, aut) for v, e, aut in
                    ((3, 3, 6), (3, 3, 1), (4, 6, 24), (2, 1, 2), (20, 1, 1))]
        assert verdicts == [False, False, True, False, True]
        assert all(type(x) is bool for x in memo.verdicts.values())

    def test_expectation_built_only_for_the_violators_read(self, monkeypatch):
        # C4 at n = 5, q = 1/2: (5)_4/8 * (1/2)^4 = 15/16 < 1, the only violator
        memo = expectation._VerdictMemo(5, Fraction(1, 2), 4)
        H = cycle_graph(4)
        assert memo.violation(H, (1 << 4) - 1) == ((4, 4, 8), H.edges)
        assert memo.violation(H, 1) is None
        powers = []
        real = expectation.value_pow
        monkeypatch.setattr(expectation, "value_pow", lambda *a: powers.append(a) or real(*a))
        assert memo.certify(H, 24) is False
        assert list(memo.violators(H)) == [((4, 4, 8), H.edges)]
        assert powers == []
        assert list(memo.violations(H)) == [(Fraction(15, 16), H.edges)]
        assert powers == [(Fraction(1, 2), 4)]

    def test_zero_q_violates_everything(self):
        memo = expectation._VerdictMemo(10, Fraction(0), 3)
        assert memo.below_one(2, 1, 2) is True
        assert list(memo.violations(complete_graph(2))) == [(Fraction(0), ((0, 1),))]

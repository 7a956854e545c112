"""Every result record against the frozen dataclass it stands in for.

The records are ``util.Record`` values, so no command imports
``dataclasses``.  Each is checked here against a frozen dataclass with the
same fields and defaults, built in the test: constructor, refusals,
equality, hash, repr, immutability, pickling and copying.
"""

import copy
import dataclasses
import pickle
import sys
import types
from fractions import Fraction

import pytest

from kklab import expectation, graphs, montecarlo, search, util, verifier
from kklab.exact import make_value
from kklab.graphs import complete_graph, path_graph
from kklab.util import Record, _RecordType

K3, P2 = complete_graph(3), path_graph(2)
ROOT = make_value(Fraction(1, 120), 3)
PLAN = montecarlo.TrialPlan(10, K3)
PROBE = montecarlo.Probe(Fraction(1, 2), 3, 4, 0.25, 0.75)
PROFILE = verifier.DegreeProfile((1,), (2,), (0,), 3)

# record: (fields, defaults, two value tuples with every field given)
RECORDS = {
    expectation.ThresholdClass: (
        ("descriptor", "v", "e", "aut", "subsets", "threshold"), {},
        [("K3", 3, 3, 6, 1, ROOT), ("P2", 3, 2, 2, 3, Fraction(1, 3))],
    ),
    expectation.SparsityReport: (
        ("n", "target_den", "threshold", "base_pair", "witness", "witness_edges",
         "classes", "enclosure", "lower_bound_only", "table_complete"),
        {"lower_bound_only": False, "table_complete": True},
        [(10, 1, ROOT, (120, 3), K3, ((0, 1), (0, 2), (1, 2)), (), ("0.2", "0.3"), False, True),
         (10, 2, ROOT, (60, 3), P2, ((0, 1), (1, 2)), (), ("0.2", "0.3"), True, False)],
    ),
    expectation.SparseCheck: (
        ("sparse", "n", "q", "witness", "witness_edges", "expectation"),
        {"witness": None, "witness_edges": None, "expectation": None},
        [(True, 10, Fraction(1, 4), None, None, None),
         (False, 10, ROOT, K3, ((0, 1), (0, 2), (1, 2)), Fraction(3, 25))],
    ),
    expectation.RequiredL: (
        ("value", "enclosure", "copies", "expectation", "pattern_edges"), {},
        [(ROOT, ("0.1", "0.2"), 4, Fraction(8), 3), (Fraction(2), ("2", "2"), 1, Fraction(1), 2)],
    ),
    montecarlo.TrialPlan: (
        ("n", "pattern", "trials", "seed", "tolerance", "confidence"),
        {"trials": 2000, "seed": 0, "tolerance": Fraction(1, 100), "confidence": 0.95},
        [(10, K3, 2000, 0, Fraction(1, 100), 0.95), (8, P2, 20, 3, Fraction(1, 8), 0.5)],
    ),
    montecarlo.Probe: (
        ("p", "successes", "trials", "wilson_low", "wilson_high"), {},
        [(Fraction(1, 2), 3, 4, 0.25, 0.75), (Fraction(1, 4), 0, 4, 0.0, 0.5)],
    ),
    montecarlo.EstimateResult: (
        ("plan", "p_hat", "interval", "probes"), {},
        [(PLAN, Fraction(1, 2), (Fraction(0), Fraction(1)), (PROBE,)),
         (PLAN, Fraction(1, 4), (Fraction(0), Fraction(1, 2)), ())],
    ),
    search.SweepResult: (
        ("graph", "copies", "score", "enclosure", "expectation", "pattern_edges",
         "candidates", "sparse_candidates", "digits"), {},
        [(K3, 1, ROOT, ("1.9", "2.0"), Fraction(1, 8), 3, 208, 82, 12),
         (P2, 2, Fraction(2), ("2", "2"), Fraction(1, 2), 2, 4, 3, 6)],
    ),
    search.LeaderboardEntry: (
        ("graph", "copies", "score", "enclosure", "expectation", "moves", "seed", "chain",
         "digits"), {},
        [(K3, 1, ROOT, ("1.9", "2.0"), Fraction(1, 8), 40, 1, 0, 12),
         (P2, 2, Fraction(2), ("2", "2"), Fraction(1, 2), 7, 2, 1, 6)],
    ),
    search.SearchResult: (
        ("entries", "metadata"), {},
        [((), {"chains": 1}), ((), {"chains": 2})],
    ),
    verifier.PropositionReport: (
        ("prop_id", "inputs", "lhs", "rhs", "verdict", "witness", "note"),
        {"witness": None, "note": ""},
        [("prop-2.2", {"n": 10}, "1", "2", True, None, ""),
         ("prop-2.3", {"n": 10}, "3", "2", False, {"edges": [[0, 1]]}, "tight")],
    ),
    verifier.PeelResult: (
        ("surviving", "degrees", "total_copies"), {},
        [((0, 1, 2), (1, 1, 1), 1), ((), (), 0)],
    ),
    verifier.DegreeProfile: (
        ("f", "d", "big", "D"), {},
        [((1,), (2,), (0,), 3), ((1, 0), (2, 1), (), 0)],
    ),
    verifier.FitRecord: (
        ("copy", "residual", "profile", "b", "backedge_mask", "rhat_vertices", "rhat_edges"), {},
        [((0, 1), (2,), PROFILE, (1,), 5, (0,), ()), ((1, 2), (), PROFILE, (), 0, (), ())],
    ),
    verifier.LegalCount: (
        ("count", "big_threshold", "bound", "bound_applicable", "bound_holds"), {},
        [(4, 2, 9, True, True), (0, 1, 0, False, None)],
    ),
    verifier.EllHatResult: (
        ("value", "n", "delta", "at_value_ok", "above_value_fails"), {},
        [(2303, 10, Fraction(1, 2), True, True), (1, 1000, Fraction(1, 3), True, False)],
    ),
}


def reference(record):
    """The frozen dataclass with the record's name, fields and defaults."""
    fields, defaults, _ = RECORDS[record]
    spec = [
        (name, object, dataclasses.field(default=defaults[name])) if name in defaults
        else (name, object)
        for name in fields
    ]
    return dataclasses.make_dataclass(record.__name__, spec, frozen=True)


def outcome(call):
    """What a call gives: ("ok", value) or (exception type, message)."""
    try:
        return "ok", call()
    except TypeError as exc:
        return TypeError, str(exc)
    except AttributeError as exc:  # a frozen dataclass raises a subclass
        return AttributeError, str(exc)


@pytest.fixture(params=list(RECORDS), ids=lambda record: record.__name__)
def record(request):
    return request.param


def test_every_record_is_covered():
    # graphs.DensityValue, the seventeenth, is checked against its frozen
    # dataclass by tests/test_graphs.py::TestDensityValue
    assert len(RECORDS) == 16
    assert all(issubclass(record, Record) for record in RECORDS)
    assert issubclass(graphs.DensityValue, Record)


class TestParity:
    def test_repr_eq_and_hash(self, record):
        ref = reference(record)
        values = RECORDS[record][2]
        for first in values:
            mine, theirs = record(*first), ref(*first)
            assert repr(mine) == repr(theirs)
            for second in values:
                assert (mine == record(*second)) == (theirs == ref(*second))
                assert (mine != record(*second)) == (theirs != ref(*second))
            assert mine != theirs and mine != first
            hashed = outcome(lambda: hash(theirs))
            if hashed[0] == "ok":
                assert hash(mine) == hashed[1]
            else:
                with pytest.raises(TypeError):
                    hash(mine)

    def test_positional_keyword_and_defaults(self, record):
        fields, defaults, values = RECORDS[record]
        ref = reference(record)
        for given in values:
            by_name = dict(zip(fields, given))
            assert record(*given) == record(**by_name)
            assert repr(record(**by_name)) == repr(ref(**by_name))
            split = len(fields) // 2
            assert record(*given[:split], **dict(list(by_name.items())[split:])) == record(*given)
        required = [name for name in fields if name not in defaults]
        first = dict(zip(fields, values[0]))
        least = {name: first[name] for name in required}
        assert repr(record(**least)) == repr(ref(**least))

    def test_missing_or_unknown_argument(self, record):
        fields, defaults, values = RECORDS[record]
        ref = reference(record)
        given = values[0]
        required = len([name for name in fields if name not in defaults])
        calls = [
            lambda make: make(*given[:required - 1]),
            lambda make: make(*given, unknown=1),
            lambda make: make(*given, given[0]),
            lambda make: make(**dict(zip(fields, given)), unknown=1),
        ]
        for call in calls:
            assert outcome(lambda: call(ref))[0] is TypeError
            assert outcome(lambda: call(record))[0] is TypeError

    def test_immutability_messages(self, record):
        fields, _, values = RECORDS[record]
        mine, theirs = record(*values[0]), reference(record)(*values[0])
        for name in (*fields, "other"):
            assert outcome(lambda: setattr(mine, name, 3)) == outcome(
                lambda: setattr(theirs, name, 3)
            )
        for name in fields:
            assert outcome(lambda: delattr(mine, name)) == outcome(lambda: delattr(theirs, name))
        assert not hasattr(mine, "__dict__")

    def test_pickle_and_copy(self, record):
        # a record pickles and deep-copies wherever its field values do
        # (a Graph, itself a Record, does both)
        for given in RECORDS[record][2]:
            value = record(*given)
            twins = [copy.copy(value)]
            if outcome(lambda: pickle.loads(pickle.dumps(given)))[0] == "ok":
                twins += [pickle.loads(pickle.dumps(value)), copy.deepcopy(value)]
            for twin in twins:
                assert type(twin) is record and twin == value and repr(twin) == repr(value)


def test_plan_checks_run_in_the_constructor():
    with pytest.raises(montecarlo.PreconditionError, match="cannot embed"):
        montecarlo.TrialPlan(2, K3)
    with pytest.raises(montecarlo.PreconditionError, match="trials=0"):
        montecarlo.TrialPlan(n=10, pattern=K3, trials=0)


@pytest.mark.parametrize(
    "value",
    [
        K3,
        PLAN,
        expectation.SparsityReport(*RECORDS[expectation.SparsityReport][2][0]),
        search.SweepResult(*RECORDS[search.SweepResult][2][0]),
    ],
    ids=lambda value: type(value).__name__,
)
def test_graphs_and_their_holders_pickle_and_copy(value):
    # a Graph pickles and copies by rebuilding itself from (n, edges)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
        assert hash(twin) == hash(value)
    graph = pickle.loads(pickle.dumps(K3))
    assert graph.adj == K3.adj and hash(graph) == hash((3, K3.edges))
    with pytest.raises(AttributeError):
        graph.n = 4


class TestAnnotateFunction:
    """From Python 3.14 a class body compiled without ``from __future__
    import annotations``, as in this module and in graphs, expectation and
    verifier, keeps its annotations in an annotate function (PEP 649)."""

    def test_a_body_without_future_annotations(self):
        class Pair(Record):
            x: int
            y: int = 2

        assert Pair._fields == ("x", "y")
        assert repr(Pair(1)).endswith(".<locals>.Pair(x=1, y=2)")
        with pytest.raises(TypeError):
            Pair()

    @pytest.mark.skipif(sys.version_info >= (3, 14), reason="the body above runs it for real")
    def test_fields_from_the_annotate_function(self, monkeypatch):
        # annotationlib's documented calls, for versions that lack it; the
        # annotations are read as forward references, never evaluated
        monkeypatch.setattr(util, "_LAZY_ANNOTATIONS", True)
        stub = types.ModuleType("annotationlib")
        stub.Format = types.SimpleNamespace(FORWARDREF="forwardref")
        stub.get_annotate_from_class_namespace = lambda namespace: namespace.get("__annotate__")
        stub.call_annotate_function = lambda annotate, format: annotate(format)
        monkeypatch.setitem(sys.modules, "annotationlib", stub)
        seen = []

        def annotate(format):
            seen.append(format)
            return {"x": "Undefined", "y": "int"}

        Pair = _RecordType("Pair", (Record,), {"__annotate__": annotate, "y": 2})
        assert seen == ["forwardref"] and Pair._fields == ("x", "y")
        assert repr(Pair(1)) == "Pair(x=1, y=2)" and Pair(1) == Pair(1, 2)
        assert _RecordType("Empty", (Record,), {})._fields == ()

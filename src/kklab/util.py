"""Small shared helpers and the names the command line reads at start-up.

Besides bit iteration, the one CSV writer and ``Record``, the frozen-record
base that ``Graph`` and every result type are built on, this module holds
the two refusal types every layer may raise (``PreconditionError`` and
``EdgeCapError``) and the defaults the CLI parser shows: the enclosure
precision of ``exact``, the subset-scan caps of ``expectation``, the Monte
Carlo defaults and generator families of ``montecarlo``, and the annealer
and sweep limits of ``search``.  Those modules re-export them, so each
name has one object wherever it is imported from, and building the parser
imports none of those upper layers.
"""

import sys
from fractions import Fraction

# exact: decimal digits in enclosures
DEFAULT_DIGITS = 12

# expectation: exact subset scans
DEFAULT_EDGE_CAP = 24
DEFAULT_HEURISTIC_VERTEX_CAP = 8

# montecarlo: bisection estimates and certified generators
DEFAULT_TRIALS = 2000
DEFAULT_TOLERANCE = Fraction(1, 100)
DEFAULT_CONFIDENCE = 0.95
GENERATOR_FAMILIES = ("gnp-repair", "clique-union", "theta", "spider", "path-power")

# search: annealer and exhaustive sweep
DEFAULT_TOP_K = 5
DEFAULT_COOLING = 0.999
SWEEP_VERTEX_CAP = 8
DEFAULT_SWEEP_V_CAP = 6


class PreconditionError(ValueError):
    """A documented precondition was violated; carries an optional witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class EdgeCapError(RuntimeError):
    """Exact subset scan refused; use heuristic mode or raise the cap."""


# from Python 3.14 a class body compiled without ``from __future__ import
# annotations`` keeps its annotations only in an annotate function (PEP 649)
_LAZY_ANNOTATIONS = sys.version_info >= (3, 14)


def _annotated_names(namespace) -> tuple:
    # the annotated names of a class body, in order; an annotate function
    # is read through annotationlib without evaluating the annotations
    if "__annotations__" in namespace or not _LAZY_ANNOTATIONS:
        return tuple(namespace.get("__annotations__", ()))
    import annotationlib

    annotate = annotationlib.get_annotate_from_class_namespace(namespace)
    if annotate is None:
        return ()
    return tuple(annotationlib.call_annotate_function(annotate, annotationlib.Format.FORWARDREF))


class _RecordType(type):
    # turns a class body's annotated names into slots, in order, and takes
    # their values out of the body as constructor defaults
    def __new__(mcls, name, bases, namespace):
        fields = _annotated_names(namespace)
        namespace["_defaults"] = {f: namespace.pop(f) for f in fields if f in namespace}
        namespace["__slots__"] = namespace["_fields"] = fields
        return super().__new__(mcls, name, bases, namespace)


_set_field = object.__setattr__


class Record(metaclass=_RecordType):
    """An immutable value whose fields are the annotated names of its class
    body, in order; a value written after a name is its default.

    It behaves as a frozen dataclass of those fields would: the constructor
    takes them positionally or by keyword and refuses a missing or unknown
    one with ``TypeError``, then calls ``__post_init__``; ``==``, ``hash``
    and ``repr`` read the field tuple; assignment and deletion raise
    ``AttributeError``; and values pickle and copy.  It exists so that no
    command imports ``dataclasses`` to define its results.
    """

    def __init__(self, *args, **kwargs):
        name = self.__class__.__name__
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        for field, value in zip(fields, args):
            _set_field(self, field, value)
        for field in fields[len(args):]:
            if field in kwargs:
                value = kwargs.pop(field)
            elif field in self._defaults:
                value = self._defaults[field]
            else:
                raise TypeError(f"{name}() missing required argument: {field!r}")
            _set_field(self, field, value)
        if kwargs:
            raise TypeError(f"{name}() got an unexpected keyword argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values()


def iter_bits(mask: int):
    """Yield the set-bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def csv_text(header, rows) -> str:
    """The CSV table of a header row and rows, lines ending in a bare newline;
    ``csv`` loads here, so only the commands that render a table load it."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()

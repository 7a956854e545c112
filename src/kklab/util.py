"""Small shared helpers and the names the command line reads at start-up.

Besides bit iteration and the one CSV writer, this module holds the two
refusal types every layer may raise (``PreconditionError`` and
``EdgeCapError``) and the defaults the CLI parser shows: the enclosure
precision of ``exact``, the subset-scan caps of ``expectation``, the
Monte Carlo defaults and generator families of ``montecarlo``, and the
annealer and sweep limits of ``search``.  Those modules re-export them,
so each name has one object wherever it is imported from, and building
the parser imports none of those upper layers.
"""

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

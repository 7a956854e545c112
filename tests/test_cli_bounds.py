"""Every command line at the edge of its input range ends in a documented
exit code, in bounded time and memory, without a traceback.

Each case runs ``kklab.cli.entry`` in a child process with a 10 s
timeout and a 1 GiB address-space limit on that child alone, so a command
that hangs or allocates without bound fails its case instead of the run.
Exit 1 is listed only for what README calls an input error (an argument
that does not parse); a library's refusal of its arguments exits 2 and a
resource refusal 3.  ``TestLibraryRefusals`` checks the refusals behind
the new cases in-process, at their boundaries.
"""

import math
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kklab.counting import DEFAULT_NODE_BUDGET, ResourceGuardError
from kklab.exact import Root, format_fraction, parse_exact, value_float
from kklab.graphs import complete_graph, empty_graph, max_density
from kklab.montecarlo import TrialPlan, _gnp_plan, estimate_pc
from kklab.util import ROOT_EXPONENT_CAP, PreconditionError

SRC = str(Path(__file__).resolve().parent.parent / "src")
BIG = "1" + "0" * 400  # 10^400, past the float range
TINY = f"1/{BIG}"
ROOT_HUGE = "root:2:1000000"  # a root exponent exact arithmetic cannot finish
# past sys.get_int_max_str_digits() (4300 by default) once printed exactly:
# q_min(K3, 10^2000) has the base 6/(n)_3 and E[X_K4] at n = 10^1100 about
# n^4/1536, each over 4,400 digits
N2000 = "1" + "0" * 2000
N1100 = "1" + "0" * 1100

CASES = [
    # root exponents past util.ROOT_EXPONENT_CAP: refused before any power
    (3, "sparse-check --graph K3 --n 10 --q " + ROOT_HUGE),
    (3, "expect --pattern K3 --n 10 --p " + ROOT_HUGE),
    (3, "required-l --graph K3 --pattern K3 --n 10 --q " + ROOT_HUGE),
    (3, "ellhat --delta 1/2 --n 10 --q " + ROOT_HUGE),
    (3, "verify props --graph K3 --n 10 --q " + ROOT_HUGE),
    (3, "gen --family theta --n 10 --q " + ROOT_HUGE),
    (3, "search --pattern K3 --n 10 --budget 5 --q " + ROOT_HUGE),
    (3, "sweep --pattern K3 --n 10 --v-cap 3 --q " + ROOT_HUGE),
    # approximate figures past the float range print as inf
    (0, f"verify props --graph K3 --n {BIG} --q 1/2"),
    (0, f"verify main --graph K3 --pattern K3 --n 10 --q 1/2 --L {BIG}"),
    (0, f"search --pattern K3 --n {BIG} --q 1/2 --budget 5"),
    # a library refusal exits 2
    (2, "density --graph empty0"),
    (2, "gen --family clique-union --sizes 5 --n 10 --q 1/10"),
    # an exact number too long to print is a resource refusal
    (3, f"qmin --graph K3 --n {N2000}"),
    (3, f"expect --pattern K4 --n {N1100} --p 1/2"),
    (3, "qmin --graph K3 --n 10 --precision 5000"),
    # G(n,p) samples too large to draw
    (3, "pc --pattern K3 --n 1000000 --trials 10"),
    (3, "gen --family gnp-repair --vertices 100000 --n 100000 --q 1/2"),
    # scale n at 0 and at 10^400
    (2, "qmin --graph K3 --n 0"),
    (0, f"qmin --graph K3 --n {BIG}"),
    (2, "pe --graph K3 --n 0"),
    (0, f"pe --graph K3 --n {BIG}"),
    (2, "sparse-check --graph K3 --n 0 --q 1/2"),
    (0, f"sparse-check --graph K3 --n {BIG} --q 1/2"),
    (0, "expect --pattern K3 --n 0 --p 1/2"),
    (0, f"expect --pattern K3 --n {BIG} --p 1/2"),
    (2, "required-l --graph K3 --pattern K3 --n 0 --q 1/2"),
    (0, f"required-l --graph K3 --pattern K3 --n {BIG} --q 1/2"),
    (2, "ellhat --delta 1/2 --n 0 --q 1/2"),
    (0, f"ellhat --delta 1/2 --n {BIG} --q 1/2"),
    (2, "gen --family theta --n 0 --q 1/2"),
    (0, f"gen --family theta --n {BIG} --q 1/2"),
    (0, "peel --graph K4 --pattern K3 --a 0"),
    (0, f"peel --graph K4 --pattern K3 --a {BIG}"),
    # q at 0, above 1, at 10^-400 and a root of a 400-digit base
    (0, "sparse-check --graph K3 --n 10 --q 0"),
    (2, "sparse-check --graph K3 --n 10 --q 2"),
    (0, f"sparse-check --graph K3 --n 10 --q {TINY}"),
    (0, f"sparse-check --graph K3 --n 10 --q root:{BIG}:3"),
    # negative budgets and caps are refused as resource limits
    (3, "required-l --graph K3 --pattern K3 --n 10 --q 1/2 --node-budget -1"),
    (3, "pack --graph K4 --pattern K3 --copy-cap -1"),
    (3, "qmin --graph K3 --n 10 --edge-cap -1"),
    (2, "qmin --graph K3 --n 10 --mode heuristic --heuristic-vertex-cap 0"),
    (0, f"pc --pattern K3 --n 8 --trials 5 --tol {TINY}"),
    # the empty graph and a single vertex
    (0, "aut --graph empty0"),
    (2, "qmin --graph empty0 --n 10"),
    (0, "density --graph K1"),
    (2, "qmin --graph K1 --n 10"),
]

_LIMIT = 1 << 30


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (_LIMIT, _LIMIT))


@pytest.mark.parametrize(
    "code, line",
    CASES,
    ids=[re.sub(r"10{400,}", lambda m: f"10^{len(m[0]) - 1}", line) for _, line in CASES],
)
def test_exit_code(code, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", "from kklab.cli import entry; entry()", *line.split()],
        capture_output=True,
        text=True,
        timeout=10,
        env=env,
        preexec_fn=_limit_memory,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == code, proc.stderr


class TestLibraryRefusals:
    def test_root_exponent_cap(self):
        assert parse_exact(f"root:2:{ROOT_EXPONENT_CAP}") == Root(Fraction(1, 2), ROOT_EXPONENT_CAP)
        with pytest.raises(ResourceGuardError, match="root exponent"):
            parse_exact(f"root:2:{ROOT_EXPONENT_CAP + 1}")

    def test_value_float_past_the_float_range(self):
        big = Fraction(10**400)
        assert value_float(big) == value_float(10**400) == math.inf
        assert value_float(-big / 3) == -math.inf
        assert value_float(Root(big**2, 2)) == math.inf
        assert value_float(1 / big) == 0.0

    def test_integer_past_the_digit_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter sets no integer-to-string digit limit")
        assert format_fraction(10 ** (limit - 1)) == "1" + "0" * (limit - 1)
        with pytest.raises(ResourceGuardError, match=f"{limit}-digit"):
            format_fraction(Fraction(1, 10**limit))

    def test_gnp_sample_cap(self):
        # C(1449, 2) = 1,049,076 pairs, past 2^20 = 1,048,576
        with pytest.raises(ResourceGuardError, match="1049076 pairs"):
            _gnp_plan(1449, Fraction(1, 2))

    def test_probe_draw_budget(self):
        # 2000 trials of C(225, 2) = 25,200 pairs: 50,400,000 draws
        plan = TrialPlan(n=225, pattern=complete_graph(3), trials=2000)
        assert plan.trials * math.comb(225, 2) > DEFAULT_NODE_BUDGET
        with pytest.raises(ResourceGuardError, match="50400000 pairs"):
            estimate_pc(plan)

    def test_empty_graph_density_is_a_precondition(self):
        with pytest.raises(PreconditionError):
            max_density(empty_graph(0))

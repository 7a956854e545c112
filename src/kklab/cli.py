"""Command line front end for the whole toolkit.

Each subcommand runs one operation and emits a single report on stdout
(or to ``--out``).  The default format is JSON with a versioned
``"schema"`` field; exact quantities always travel as strings or
{base, exp} root records, never as binary floats.  ``--format csv``
is available where the result is a table (probe traces, leaderboards),
and ``--format text`` gives a flat key = value rendering.

Exit codes: 0 success, 1 usage or input errors (unknown flag,
unreadable file, malformed graph), 2 precondition violations with the
witness printed to stderr, 3 resource-guard refusals.  Any other failure
is a defect and surfaces as an uncaught exception.

Import layers: importing this module loads only the base layers that
graph loading and the exit-code mapping need: ``util``, ``graphs`` and
``counting``.  ``counting`` is one of them because it owns
``ResourceGuardError``, which ``main`` maps to exit code 3, and because
every upper layer imports it anyway.  ``exact`` is imported by the
argument converters and handlers that use it, ``csv`` by ``util.csv_text``
when a table is rendered, and each handler imports the upper layer it
runs (``expectation``, ``verifier``, ``montecarlo`` or ``search``) when
it runs.  ``main`` builds the subparser of the one subcommand it runs.
So a command starts up on the layers it uses and no others: the
graph-level commands (``aut``, ``count``, ``pack``, ``gamma``,
``density``) on the three base layers, without ``exact`` or ``csv``.
No command loads ``dataclasses``: every result record is a
``util.Record``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from .counting import (
    ResourceGuardError,
    count_cliques,
    count_copies,
    count_cycles,
    count_labeled,
    count_xy_paths,
    max_xy_paths,
    packing_number,
)
from .graphs import (
    Graph,
    GraphParseError,
    automorphism_count,
    bowtie_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    max_density,
    parse_graph,
    parse_graph6,
    path_graph,
    path_power_graph,
    petersen_graph,
    spider_graph,
    star_graph,
    theta_graph,
    to_graph6,
)
from .util import (
    DEFAULT_CONFIDENCE,
    DEFAULT_COOLING,
    DEFAULT_DIGITS,
    DEFAULT_EDGE_CAP,
    DEFAULT_HEURISTIC_VERTEX_CAP,
    DEFAULT_SWEEP_V_CAP,
    DEFAULT_TOLERANCE,
    DEFAULT_TOP_K,
    DEFAULT_TRIALS,
    GENERATOR_FAMILIES,
    SWEEP_VERTEX_CAP,
    EdgeCapError,
    PreconditionError,
    csv_text,
)

SCHEMA = "kklab/1"


class _InputError(Exception):
    """Bad input outside argparse's reach; reported with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # route usage errors through the normal exit-code path instead of exit 2
    def error(self, message):
        raise _InputError(message)


# -- value converters -------------------------------------------------------


def _exact_value(text: str):
    from .exact import parse_exact

    try:
        return parse_exact(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rational(text: str) -> Fraction:
    from .exact import parse_rational

    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _precision(text: str) -> int:
    try:
        digits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if digits < 4:
        raise argparse.ArgumentTypeError("precision must be at least 4 digits")
    return digits


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")


# -- graph loading -----------------------------------------------------------

# graph names: the sized families take a vertex count, the fixed graphs none
_SIZED_GRAPHS = {
    "K": complete_graph,
    "C": cycle_graph,
    "P": path_graph,
    "star": star_graph,
    "empty": empty_graph,
}
_FIXED_GRAPHS = {"petersen": petersen_graph, "bowtie": bowtie_graph}
_TOKEN_RE = re.compile(rf"^({'|'.join(_SIZED_GRAPHS)})(\d+)$")


def _graph_token(spec: str) -> Graph | None:
    m = _TOKEN_RE.match(spec)
    if m:
        return _SIZED_GRAPHS[m.group(1)](int(m.group(2)))
    if spec in _FIXED_GRAPHS:
        return _FIXED_GRAPHS[spec]()
    parts = spec.split(":")
    if parts[0] == "theta" and len(parts) == 4:
        return theta_graph(*(int(p) for p in parts[1:]))
    if parts[0] == "spider" and len(parts) >= 2:
        return spider_graph([int(p) for p in parts[1:]])
    if parts[0] == "pathpower" and len(parts) == 3:
        return path_power_graph(int(parts[1]), int(parts[2]))
    return None


def load_graph(spec: str) -> Graph:
    """Resolve a --graph/--pattern argument.

    Accepts a file path (graph6 or edge-list content, sniffed), ``-`` for
    stdin, ``g6:TOKEN`` for an inline graph6 string, or a named form such
    as K4, C5, P3, star4, empty6, petersen, bowtie, theta:1:2:2,
    spider:1:2:2, pathpower:6:2.  An existing file wins over a name.
    """
    if spec == "-":
        return parse_graph(sys.stdin.read())
    if spec.startswith("g6:"):
        return parse_graph6(spec[3:])
    try:
        with open(spec) as fh:
            return parse_graph(fh.read())
    except (FileNotFoundError, NotADirectoryError):
        pass
    try:
        g = _graph_token(spec)
    except (ValueError, PreconditionError) as exc:
        raise _InputError(f"bad graph token {spec!r}: {exc}")
    if g is not None:
        return g
    raise _InputError(
        f"cannot read graph {spec!r}: no such file and not a recognized name"
    )


# -- config file -------------------------------------------------------------


def _inject_config(argv: list) -> list:
    """Expand ``--config FILE`` (key=value lines) into argv tokens.

    Config tokens are inserted right after the subcommand so explicit
    flags, parsed later, win on conflict.
    """
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None or not argv:
        return argv
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read config file: {exc}")
    extra = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _InputError(f"malformed config line (need key=value): {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("_", "-")
        value = value.strip()
        if key == "config":
            continue
        if value.lower() in ("true", "yes"):
            extra.append(f"--{key}")
        elif value.lower() in ("false", "no"):
            continue
        else:
            extra.append(f"--{key}={value}")
    cut = 2 if argv[0] == "verify" and len(argv) >= 2 else 1
    return argv[:cut] + extra + argv[cut:]


# -- output ------------------------------------------------------------------


def _flat_lines(value, prefix: str, out: list) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flat_lines(sub, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, (list, tuple)):
        for idx, sub in enumerate(value):
            _flat_lines(sub, f"{prefix}[{idx}]", out)
    else:
        out.append(f"{prefix} = {value}")


def _render_text(doc: dict) -> str:
    lines: list = []
    _flat_lines(doc, "", lines)
    return "\n".join(lines) + "\n"


def _emit(args, doc: dict, csv_table=None) -> None:
    """Write the report.  Every handler's document gets ``"schema": SCHEMA``
    as its first key here; ``csv_table`` renders a tabular result as CSV
    text and is called only for ``--format csv``."""
    if args.format == "csv":
        if csv_table is None:
            raise _InputError("csv output is not available for this subcommand")
        rendered = csv_table()
    else:
        text = doc.pop("_text", None)
        doc = {"schema": SCHEMA, **doc}
        if args.format == "json":
            rendered = json.dumps(doc, indent=2) + "\n"
        else:
            rendered = text if text is not None else _render_text(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


# -- shared serializers ------------------------------------------------------


def _sparsity_doc(report, label: str, digits: int) -> dict:
    from .exact import value_to_json

    return {
        label: value_to_json(report.threshold, digits),
        "base_pair": [str(report.base_pair[0]), report.base_pair[1]],
        "enclosure": list(report.enclosure),
        "n": report.n,
        "witness6": to_graph6(report.witness),
        "witness_edges": [list(e) for e in report.witness_edges],
        "classes": [
            {
                "descriptor": c.descriptor,
                "v": c.v,
                "e": c.e,
                "aut": c.aut,
                "subsets": str(c.subsets),
                "threshold": value_to_json(c.threshold, digits),
            }
            for c in report.classes
        ],
        "lower_bound_only": report.lower_bound_only,
        "table_complete": report.table_complete,
    }


def _reports_doc(reports: list) -> dict:
    return {
        "all_pass": all(r.verdict for r in reports),
        "reports": [r.to_json() for r in reports],
    }


# -- subcommand handlers -----------------------------------------------------


def _cmd_count(args):
    host = load_graph(args.graph)
    if (args.pattern is None) == (args.family is None):
        raise _InputError("give exactly one of --pattern or --family")
    start = time.perf_counter()
    if args.pattern is not None:
        pattern = load_graph(args.pattern)
        if args.labeled:
            value = count_labeled(host, pattern, node_budget=args.node_budget)
        else:
            value = count_copies(host, pattern, node_budget=args.node_budget)
    else:
        if args.param is None:
            raise _InputError("--family requires --param")
        if args.family == "clique":
            value = count_cliques(host, args.param, node_budget=args.node_budget)
        elif args.family == "cycle":
            value = count_cycles(host, args.param, node_budget=args.node_budget)
        else:
            if args.x is None or args.y is None:
                raise _InputError("--family xy-path requires --x and --y")
            value = count_xy_paths(
                host, args.x, args.y, args.param, node_budget=args.node_budget
            )
    elapsed = time.perf_counter() - start
    return {"count": str(value), "elapsed_s": round(elapsed, 6)}, None


def _cmd_gamma(args):
    host = load_graph(args.graph)
    value, pair = max_xy_paths(host, args.length, node_budget=args.node_budget)
    return {"gamma": str(value), "pair": list(pair)}, None


def _cmd_pack(args):
    host = load_graph(args.graph)
    pattern = load_graph(args.pattern)
    value = packing_number(
        host, pattern, mode=args.mode, copy_cap=args.copy_cap, node_budget=args.node_budget
    )
    return {"packing": str(value), "mode": args.mode}, None


def _cmd_density(args):
    host = load_graph(args.graph)
    best = max_density(host)
    return {
        "density": f"{best.numerator}/{best.denominator}",
        "witness": list(best.witness),
    }, None


def _cmd_aut(args):
    host = load_graph(args.graph)
    return {"aut": str(automorphism_count(host))}, None


def _cmd_qmin(args):
    from .expectation import q_min

    host = load_graph(args.graph)
    report = q_min(
        host,
        args.n,
        mode=args.mode,
        edge_cap=args.edge_cap,
        heuristic_vertex_cap=args.heuristic_vertex_cap,
        digits=args.precision,
    )
    return _sparsity_doc(report, "q_min", args.precision), None


def _cmd_pe(args):
    from .expectation import expectation_threshold

    host = load_graph(args.graph)
    report = expectation_threshold(host, args.n, edge_cap=args.edge_cap, digits=args.precision)
    return _sparsity_doc(report, "p_E", args.precision), None


def _cmd_sparse_check(args):
    from .exact import value_to_json
    from .expectation import is_q_sparse

    host = load_graph(args.graph)
    check = is_q_sparse(host, args.n, args.q, edge_cap=args.edge_cap)
    doc = {
        "sparse": check.sparse,
        "n": check.n,
        "q": value_to_json(check.q, args.precision),
    }
    if not check.sparse:
        doc["witness6"] = to_graph6(check.witness)
        doc["witness_edges"] = [list(e) for e in check.witness_edges]
        doc["expectation"] = value_to_json(check.expectation, args.precision)
    return doc, None


def _cmd_expect(args):
    from .exact import value_mul, value_to_json
    from .expectation import expected_copies

    pattern = load_graph(args.pattern)
    has_p = args.p is not None
    has_lq = args.L is not None and args.q is not None
    if has_p == has_lq or (args.L is None) != (args.q is None):
        raise _InputError("give exactly one of --p or the pair --q with --L")
    p = args.p if has_p else value_mul(args.L, args.q)
    value = expected_copies(args.n, p, pattern)
    return {
        "expectation": value_to_json(value, args.precision),
        "p": value_to_json(p, args.precision),
        "n": args.n,
    }, None


def _cmd_required_l(args):
    from .exact import value_to_json
    from .expectation import required_L

    host = load_graph(args.graph)
    pattern = load_graph(args.pattern)
    req = required_L(
        host,
        pattern,
        args.n,
        args.q,
        digits=args.precision,
        node_budget=args.node_budget,
    )
    return {
        "required_L": value_to_json(req.value, args.precision),
        "enclosure": list(req.enclosure),
        "N": str(req.copies),
        "E_q": value_to_json(req.expectation, args.precision),
        "pattern_edges": req.pattern_edges,
    }, None


def _cmd_verify_props(args):
    from .verifier import _packing_report, verify_structure

    host = load_graph(args.graph)
    # verify_structure's certificate also serves the packing report
    reports = verify_structure(host, args.n, args.q)
    if args.pattern is not None:
        pattern = load_graph(args.pattern)
        reports.append(
            _packing_report(
                host, pattern, args.n, args.q, args.copy_cap, args.node_budget
            )
        )
    return _reports_doc(reports), None


def _cmd_verify_fit(args):
    from .verifier import verify_fit_partition

    host = load_graph(args.graph)
    pattern = load_graph(args.pattern)
    report = verify_fit_partition(
        host, pattern, args.eps, args.d, node_budget=args.node_budget
    )
    return _reports_doc([report]), None


def _cmd_verify_legal(args):
    from .verifier import count_legal_sequences

    result = count_legal_sequences(args.f, args.eps, args.d, args.D, args.d_cap)
    return {
        "count": str(result.count),
        "big_threshold": result.big_threshold,
        "bound": str(result.bound),
        "bound_applicable": result.bound_applicable,
        "bound_holds": result.bound_holds,
    }, None


def _cmd_verify_main(args):
    from .verifier import verify_main_inequality

    host = load_graph(args.graph)
    pattern = load_graph(args.pattern)
    report = verify_main_inequality(
        host, pattern, args.n, args.q, args.L, node_budget=args.node_budget
    )
    return _reports_doc([report]), None


def _cmd_peel(args):
    from .montecarlo import derive_rng
    from .verifier import peel_min_degree

    host = load_graph(args.graph)
    pattern = load_graph(args.pattern)
    rng = derive_rng(args.seed, "peel") if args.seed is not None else None
    result = peel_min_degree(
        host, pattern, args.a, rng=rng,
        copy_cap=args.copy_cap, node_budget=args.node_budget,
    )
    return {
        "surviving": list(result.surviving),
        "degrees": [str(d) for d in result.degrees],
        "total_copies": str(result.total_copies),
    }, None


def _cmd_ellhat(args):
    from .exact import format_fraction
    from .verifier import ell_hat

    result = ell_hat(args.n, args.q, args.delta)
    return {
        "ell_hat": str(result.value),
        "n": result.n,
        "delta": format_fraction(result.delta),
        "at_value_ok": result.at_value_ok,
        "above_value_fails": result.above_value_fails,
    }, None


def _cmd_pc(args):
    from .montecarlo import TrialPlan, estimate_pc

    pattern = load_graph(args.pattern)
    plan = TrialPlan(
        n=args.n,
        pattern=pattern,
        trials=args.trials,
        seed=args.seed,
        tolerance=args.tol,
        confidence=args.confidence,
    )
    result = estimate_pc(plan)
    return result.to_json(), result.trace_csv


def _cmd_gen(args):
    from .exact import value_to_json
    from .montecarlo import derive_rng, generate_sparse

    params = {}
    for key in ("vertices", "boost", "sizes", "a", "b", "c", "legs", "power"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    rng = derive_rng(args.seed, "gen", args.family)
    g = generate_sparse(
        args.n, args.q, args.family,
        rng=rng, params=params or None, repair_budget=args.repair_budget,
    )
    g6 = to_graph6(g)
    return {
        "family": args.family,
        "graph6": g6,
        "vertices": g.n,
        "edges": g.edge_count,
        "n": args.n,
        "q": value_to_json(args.q, args.precision),
        "sparse": True,
        "_text": g6 + "\n",
    }, None


def _cmd_search(args):
    from .search import extremal_search

    pattern = load_graph(args.pattern)
    result = extremal_search(
        args.n,
        args.q,
        pattern,
        budget=args.budget,
        seed=args.seed,
        host_cap=args.host_cap,
        chains=args.chains,
        top_k=args.top_k,
        cooling=args.cooling,
        edge_cap=args.edge_cap,
        digits=args.precision,
    )
    return result.to_json(), lambda: csv_text(
        ["rank", "graph6", "score_lo", "score_hi", "N", "moves", "seed", "chain"],
        ([rank, to_graph6(e.graph), *e.enclosure, e.copies, e.moves, e.seed, e.chain]
         for rank, e in enumerate(result.entries)),
    )


def _cmd_sweep(args):
    from .search import exhaustive_sweep

    pattern = load_graph(args.pattern)
    result = exhaustive_sweep(
        args.n,
        args.q,
        pattern,
        v_cap=args.v_cap,
        edge_cap=args.edge_cap,
        digits=args.precision,
    )
    return result.to_json(), lambda: csv_text(
        ["graph6", "score_lo", "score_hi", "N", "candidates", "sparse_candidates"],
        [[to_graph6(result.graph), *result.enclosure, result.copies, result.candidates,
          result.sparse_candidates]],
    )


# -- parser ------------------------------------------------------------------


def _add_common(p, graph=False, pattern=False, n=False, q=False, threads=False,
                precision=False, node_budget=False, copy_cap=False, edge_cap=False,
                seed=None):
    if graph:
        p.add_argument("--graph", required=True, help="host graph: path, -, g6:TOKEN, or a name like K4/C5/P3")
    if pattern:
        p.add_argument("--pattern", required=(pattern == "required"), default=None,
                       help="pattern graph: path, -, g6:TOKEN, or a name like K3/C4/P3")
    if n:
        p.add_argument("--n", type=int, required=True, help="ambient vertex count")
    if q:
        p.add_argument("--q", type=_exact_value, required=(q == "required"), default=None,
                       help="probability: a/b, decimal, or root:V:K for V^(-1/K)")
    if threads:
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; kklab runs serially")
    if precision:
        p.add_argument("--precision", type=_precision, default=DEFAULT_DIGITS,
                       help="decimal digits in enclosures (minimum 4)")
    if node_budget:
        p.add_argument("--node-budget", type=int, default=None,
                       help="cap on backtracking nodes before a resource refusal")
    if copy_cap:
        p.add_argument("--copy-cap", type=int, default=None,
                       help="cap on materialized copy lists before a resource refusal")
    if edge_cap:
        p.add_argument("--edge-cap", type=int, default=DEFAULT_EDGE_CAP,
                       help="refuse exact subset scans beyond this many edges")
    if seed is not None:
        p.add_argument("--seed", type=int, default=seed, help="master seed for derived streams")
    p.add_argument("--config", default=None,
                   help="key=value file supplying defaults; explicit flags win")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json",
                   help="output format (csv only where a table exists)")
    p.add_argument("--out", default=None, help="write the report to this path instead of stdout")


def _args_count(p):
    p.add_argument("--family", choices=("clique", "cycle", "xy-path"), default=None)
    p.add_argument("--param", type=int, default=None,
                   help="family size: clique order, cycle length, or path edge count")
    p.add_argument("--labeled", action="store_true", help="count labeled embeddings instead of copies")
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--y", type=int, default=None)
    _add_common(p, graph=True, pattern=True, threads=True, node_budget=True)
    p.set_defaults(handler=_cmd_count)


def _args_gamma(p):
    p.add_argument("--length", type=int, required=True, help="path length in edges")
    _add_common(p, graph=True, node_budget=True)
    p.set_defaults(handler=_cmd_gamma)


def _args_pack(p):
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    _add_common(p, graph=True, pattern="required", node_budget=True, copy_cap=True)
    p.set_defaults(handler=_cmd_pack)


def _args_density(p):
    _add_common(p, graph=True)
    p.set_defaults(handler=_cmd_density)


def _args_aut(p):
    _add_common(p, graph=True)
    p.set_defaults(handler=_cmd_aut)


def _args_qmin(p):
    p.add_argument("--mode", choices=("exact", "heuristic"), default="exact",
                   help="heuristic scans connected classes only and flags a lower bound")
    p.add_argument("--heuristic-vertex-cap", type=int, default=DEFAULT_HEURISTIC_VERTEX_CAP,
                   help="heuristic-mode cap on scanned subgraph orders")
    _add_common(p, graph=True, n=True, threads=True, precision=True, edge_cap=True)
    p.set_defaults(handler=_cmd_qmin)


def _args_pe(p):
    _add_common(p, graph=True, n=True, threads=True, precision=True, edge_cap=True)
    p.set_defaults(handler=_cmd_pe)


def _args_sparse_check(p):
    _add_common(p, graph=True, n=True, q="required", precision=True, edge_cap=True)
    p.set_defaults(handler=_cmd_sparse_check)


def _args_expect(p):
    p.add_argument("--p", type=_exact_value, default=None,
                   help="probability; exclusive with --q/--L")
    p.add_argument("--L", type=_rational, default=None,
                   help="multiplier so the comparison probability is L*q")
    _add_common(p, pattern="required", n=True, q=True, precision=True)
    p.set_defaults(handler=_cmd_expect)


def _args_required_l(p):
    _add_common(p, graph=True, pattern="required", n=True, q="required",
                threads=True, precision=True, node_budget=True)
    p.set_defaults(handler=_cmd_required_l)


def _args_verify_props(vp):
    _add_common(vp, graph=True, pattern=True, n=True, q="required",
                node_budget=True, copy_cap=True)
    vp.set_defaults(handler=_cmd_verify_props)


def _args_verify_fit(vp):
    vp.add_argument("--eps", type=_rational, required=True)
    vp.add_argument("--d", type=_rational, required=True)
    _add_common(vp, graph=True, pattern="required", threads=True, node_budget=True)
    vp.set_defaults(handler=_cmd_verify_fit)


def _args_verify_legal(vp):
    vp.add_argument("--f", type=_int_list, required=True,
                    help="comma list of previous-round degree values, e.g. 1,1,0")
    vp.add_argument("--eps", type=_rational, required=True)
    vp.add_argument("--d", type=_rational, required=True)
    vp.add_argument("--D", type=int, required=True, help="degree total the sequences must reach")
    vp.add_argument("--d-cap", type=int, required=True, help="per-position degree ceiling")
    _add_common(vp)
    vp.set_defaults(handler=_cmd_verify_legal)


def _args_verify_main(vp):
    vp.add_argument("--L", type=_rational, required=True)
    _add_common(vp, graph=True, pattern="required", n=True, q="required",
                threads=True, node_budget=True)
    vp.set_defaults(handler=_cmd_verify_main)


# verify's modes: name -> (help, argument builder)
_VERIFY_MODES = {
    "props": ("structure bounds for a q-sparse host (plus packing with --pattern)",
              _args_verify_props),
    "fit": ("fit-class partition identity for a tree pattern", _args_verify_fit),
    "legal": ("legal degree-sequence count against the binomial bound", _args_verify_legal),
    "main": ("strict inequality N(H,F) < L^{e_F} E_qX_F", _args_verify_main),
}


def _args_verify(p):
    vsub = p.add_subparsers(dest="mode", required=True, parser_class=_Parser)
    for mode, (help_text, add_args) in _VERIFY_MODES.items():
        add_args(vsub.add_parser(mode, help=help_text))


def _args_peel(p):
    p.add_argument("--a", type=_rational, required=True, help="copy-degree threshold")
    p.add_argument("--seed", type=int, default=None,
                   help="randomize deletion order (survivors are order-independent)")
    _add_common(p, graph=True, pattern="required", threads=True, node_budget=True,
                copy_cap=True)
    p.set_defaults(handler=_cmd_peel)


def _args_ellhat(p):
    p.add_argument("--delta", type=_rational, required=True)
    _add_common(p, n=True, q="required")
    p.set_defaults(handler=_cmd_ellhat)


def _args_pc(p):
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--tol", type=_rational, default=DEFAULT_TOLERANCE,
                   help="bisection stops once the bracket is this narrow")
    p.add_argument("--confidence", type=float, default=DEFAULT_CONFIDENCE)
    _add_common(p, pattern="required", n=True, threads=True, seed=0)
    p.set_defaults(handler=_cmd_pc)


def _args_gen(p):
    p.add_argument("--family", choices=GENERATOR_FAMILIES, required=True)
    p.add_argument("--vertices", type=int, default=None, help="gnp-repair / path-power order")
    p.add_argument("--boost", type=_rational, default=None, help="gnp-repair initial density multiplier")
    p.add_argument("--sizes", type=_int_list, default=None, help="clique-union block orders, e.g. 3,4")
    p.add_argument("--a", type=int, default=None, help="theta arm length")
    p.add_argument("--b", type=int, default=None, help="theta arm length")
    p.add_argument("--c", type=int, default=None, help="theta arm length")
    p.add_argument("--legs", type=_int_list, default=None, help="spider leg lengths, e.g. 1,2,2")
    p.add_argument("--power", type=int, default=None, help="path-power exponent")
    p.add_argument("--repair-budget", type=int, default=None,
                   help="max repair deletions before giving up")
    _add_common(p, n=True, q="required", threads=True, precision=True, seed=0)
    p.set_defaults(handler=_cmd_gen)


def _args_search(p):
    p.add_argument("--budget", type=int, required=True, help="proposed moves per chain")
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--host-cap", type=int, default=None,
                   help="labeled vertices available to the annealer (default min(12, n))")
    p.add_argument("--top-k", type=int, default=DEFAULT_TOP_K)
    p.add_argument("--cooling", type=float, default=DEFAULT_COOLING)
    _add_common(p, pattern="required", n=True, q="required", threads=True,
                precision=True, edge_cap=True, seed=0)
    p.set_defaults(handler=_cmd_search)


def _args_sweep(p):
    p.add_argument("--v-cap", type=int, default=DEFAULT_SWEEP_V_CAP,
                   help=f"catalog order ceiling (at most {SWEEP_VERTEX_CAP})")
    _add_common(p, pattern="required", n=True, q="required", threads=True,
                precision=True, edge_cap=True)
    p.set_defaults(handler=_cmd_sweep)


# the subcommands in --help order: name -> (help, argument builder)
_SUBCOMMANDS = {
    "count": ("exact copy and embedding counts", _args_count),
    "gamma": ("max x-y path count over endpoint pairs", _args_gamma),
    "pack": ("edge-disjoint packing number", _args_pack),
    "density": ("max subgraph density e(U)/|U| with witness", _args_density),
    "aut": ("automorphism group order", _args_aut),
    "qmin": ("least q at which the graph is q-sparse", _args_qmin),
    "pe": ("expectation threshold p_E (subgraph expectations >= 1/2)", _args_pe),
    "sparse-check": ("q-sparseness verdict with violating witness", _args_sparse_check),
    "expect": ("expected copy count at p, or at L*q", _args_expect),
    "required-l": ("least L with N(H,F) = E_{Lq}X_F", _args_required_l),
    "verify": ("machine-checked propositions", _args_verify),
    "peel": ("iterated low-copy-degree vertex deletion", _args_peel),
    "ellhat": ("largest l with (nq)^l below n^(1-delta*c)", _args_ellhat),
    "pc": ("Monte Carlo threshold estimate by bisection", _args_pc),
    "gen": ("certified q-sparse instance generators", _args_gen),
    "search": ("simulated-annealing hunt for copy-rich sparse hosts", _args_search),
    "sweep": ("exact maximizer over all small sparse hosts", _args_sweep),
}


def build_parser(command: str | None = None) -> _Parser:
    """The kklab parser, with every subcommand, or with only ``command``'s
    subparser when it names one.  Building a subparser costs a terminal-size
    query per argument, so ``main`` builds the one it runs."""
    # the import-layer note is for readers of the source, not of --help
    description = __doc__.partition("\nImport layers:")[0]
    parser = _Parser(prog="kklab", description=description, add_help=True)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    names = (command,) if command in _SUBCOMMANDS else _SUBCOMMANDS
    for name in names:
        help_text, add_args = _SUBCOMMANDS[name]
        add_args(sub.add_parser(name, help=help_text))
    return parser


def _parser_for(argv: list) -> _Parser:
    """The parser ``main`` runs on argv: one subcommand's when argv starts
    with a subcommand name, else the full parser, whose help, usage and
    unknown-command error list every subcommand."""
    return build_parser(argv[0] if argv else None)


# -- entry points ------------------------------------------------------------


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
        args = _parser_for(argv).parse_args(argv)
        doc, csv_table = args.handler(args)
        _emit(args, doc, csv_table)
        return 0
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GraphParseError as exc:
        print(f"error: malformed graph: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {exc.witness}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EdgeCapError, ResourceGuardError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

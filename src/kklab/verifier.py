"""Machine-checked propositions and constructive decompositions.

Every check here is exact.  One power test, ``_power_exceeds_one``,
decides every comparison of the form n^t * q^e > 1: the ratio bounds
against q = n^-c, the log-form bounds, which are the ratio bounds at
q = 1/2 (x/t < log2 n iff n^t * 2^-x > 1), and the path-length cutoff
``ell_hat``, through ``exact``'s sign test: float logarithms away from a
tie, exact powers within a few ulps of one.  Bounds involving the
constant e use adaptive rational enclosures, and thresholds of the form
sqrt(eps)*d are compared by squaring.  Reports carry both sides and a
verdict; a failing report is an honest outcome, not an exception.

The structural bounds in log form (maximum density below log2 n, edge
count below n*log2 n) are guaranteed for sparse hosts with q <= 1/2 and
can genuinely fail near q = 1 (K_7 at q = 1, n = 7 has density 3 which
exceeds log2 7); reports note when q is outside the guaranteed regime.
"""

import math
from fractions import Fraction

from .counting import (
    ResourceGuardError,
    _match_plan,
    copies_as_edge_masks,
    iter_labeled,
    packing_number,
)
from .exact import (
    _power_sign,
    ceil_root,
    cmp_with_e_power,
    value_cmp,
    value_div,
    value_float,
    value_mul,
    value_pow,  # kept importable from this module
    value_to_json,
)
from .expectation import _require_sparse, expected_copies, required_L
from .graphs import Graph, _span_mask, max_density, to_graph6
from .util import PreconditionError, Record, iter_bits


class PropositionReport(Record):
    prop_id: str
    inputs: dict
    lhs: str
    rhs: str
    verdict: bool
    witness: object = None
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "prop_id": self.prop_id,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


def _base_inputs(H: Graph, n: int, q) -> dict:
    return {"graph6": to_graph6(H), "n": n, "q": value_to_json(q)}


# -- structural bounds for sparse hosts ----------------------------------------


def _power_exceeds_one(n: int, t: int, q, e: int) -> bool:
    """n^t * q^e > 1, true when e = 0 or q = 1 and false when q = 0 < e;
    a tie is never above one."""
    if e == 0 or value_cmp(q, 1) == 0:
        return True
    return value_cmp(q, 0) > 0 and _power_sign(((n, t), (q, e))) > 0


def verify_structure(H: Graph, n: int, q) -> list:
    """Five exact bound checks for a q-sparse host at scale n."""
    _require_sparse(H, n, q)
    inputs = _base_inputs(H, n, q)
    regime_note = (
        "" if value_cmp(q, Fraction(1, 2)) <= 0 else
        "log-form bound is guaranteed only for q <= 1/2; evaluated as stated"
    )
    reports = []

    delta = H.max_degree()
    log_ok = (1 << delta) <= n
    if value_cmp(q, 0) == 0:
        lin_ok = delta == 0
    else:
        # delta <= 2*e*n*q  iff  e >= delta/(2nq)
        x = value_div(Fraction(delta), value_mul(Fraction(2 * n), q))
        lin_ok = cmp_with_e_power(x, 1) <= 0
    reports.append(
        PropositionReport(
            prop_id="max-degree-bound",
            inputs=inputs,
            lhs=str(delta),
            rhs=f"max(log2({n}), 2*e*{n}*q) ~ "
            f"{max(math.log2(n), 2 * math.e * n * value_float(q)):.6g}",
            verdict=log_ok or lin_ok,
        )
    )

    dens = max_density(H)
    num, den = dens.numerator, dens.denominator
    reports.append(
        PropositionReport(
            prop_id="density-log-bound",
            inputs=inputs,
            lhs=f"{num}/{den}",
            rhs=f"log2({n}) ~ {math.log2(n):.6g}",
            verdict=_power_exceeds_one(n, den, Fraction(1, 2), num),
            witness={"densest_vertices": list(dens.witness)},
            note=regime_note,
        )
    )

    # density below 1/c with c solving q = n^-c:  n^den * q^num > 1
    ratio_ok = _power_exceeds_one(n, den, q, num)
    reports.append(
        PropositionReport(
            prop_id="density-ratio-bound",
            inputs=inputs,
            lhs=f"{num}/{den}",
            rhs="1/c with q = n^-c",
            verdict=ratio_ok,
        )
    )

    e_h = H.edge_count
    reports.append(
        PropositionReport(
            prop_id="edge-count-log-bound",
            inputs=inputs,
            lhs=str(e_h),
            rhs=f"{n}*log2({n}) ~ {n * math.log2(n):.6g}",
            verdict=_power_exceeds_one(n, n, Fraction(1, 2), e_h),
            note=regime_note,
        )
    )

    edge_ratio_ok = _power_exceeds_one(n, n, q, e_h)
    reports.append(
        PropositionReport(
            prop_id="edge-count-ratio-bound",
            inputs=inputs,
            lhs=str(e_h),
            rhs="n/c with q = n^-c",
            verdict=edge_ratio_ok,
        )
    )
    return reports


def verify_packing(
    H: Graph, J: Graph, n: int, q, copy_cap=None, node_budget=None
) -> PropositionReport:
    """Edge-disjoint packing count against e times the expected copy count."""
    _require_sparse(H, n, q)
    return _packing_report(H, J, n, q, copy_cap, node_budget)


def _packing_report(H: Graph, J: Graph, n: int, q, copy_cap, node_budget) -> PropositionReport:
    """verify_packing's report on a host already certified q-sparse."""
    nu = packing_number(H, J, mode="exact", copy_cap=copy_cap, node_budget=node_budget)
    expectation = expected_copies(n, q, J)
    if nu == 0:
        verdict = True
    elif value_cmp(expectation, 0) == 0:
        verdict = False
    else:
        verdict = cmp_with_e_power(value_div(Fraction(nu), expectation), 1) <= 0
    inputs = _base_inputs(H, n, q)
    inputs["pattern6"] = to_graph6(J)
    return PropositionReport(
        prop_id="packing-expectation-bound",
        inputs=inputs,
        lhs=str(nu),
        rhs=f"e * E_qX_J ~ {math.e * value_float(expectation):.6g}",
        verdict=verdict,
    )


# -- peeling -------------------------------------------------------------------


class PeelResult(Record):
    surviving: tuple
    degrees: tuple
    total_copies: int


def peel_min_degree(
    H: Graph, F: Graph, a, rng=None, copy_cap=None, node_budget=None
) -> PeelResult:
    """Iteratively delete vertices lying in fewer than ``a`` copies of F.

    The hypergraph has one edge per distinct copy (its vertex set, with
    multiplicity across copies sharing a vertex set).  Deletion order is
    smallest id first; the surviving set is order-independent, and passing
    ``rng`` randomizes the order as a regression check.
    """
    a = Fraction(a)
    masks = copies_as_edge_masks(H, F, copy_cap=copy_cap, node_budget=node_budget)
    vsets = [_span_mask(H, m) for m in masks]
    alive = list(range(len(vsets)))
    deg = [0] * H.n
    for vm in vsets:
        for v in iter_bits(vm):
            deg[v] += 1
    removed = 0
    while True:
        low = [v for v in range(H.n) if not removed >> v & 1 and deg[v] < a]
        if not low:
            break
        v = low[0] if rng is None else low[rng.randrange(len(low))]
        removed |= 1 << v
        keep = []
        for idx in alive:
            if vsets[idx] >> v & 1:
                for w in iter_bits(vsets[idx]):
                    deg[w] -= 1
            else:
                keep.append(idx)
        alive = keep
    surviving = tuple(v for v in range(H.n) if not removed >> v & 1)
    return PeelResult(
        surviving=surviving,
        degrees=tuple(deg[v] for v in surviving),
        total_copies=len(vsets),
    )


# -- fit decomposition ------------------------------------------------------------


class DegreeProfile(Record):
    f: tuple
    d: tuple
    big: tuple
    D: int


class FitRecord(Record):
    copy: tuple
    residual: tuple
    profile: DegreeProfile
    b: tuple
    backedge_mask: int
    rhat_vertices: tuple
    rhat_edges: tuple


def _prepare_tree(F: Graph):
    """F relabeled into BFS order from vertex 0 (``perm`` old->new), each
    position's parent and child count."""
    if not F.is_tree():
        raise PreconditionError("pattern must be a tree")
    plan = _match_plan(F)
    # a tree's only earlier neighbor in BFS order is its parent
    parents = [earlier[0] if earlier else None for _, earlier in plan]
    perm = [0] * F.n
    for new, (old, _) in enumerate(plan):
        perm[old] = new
    Fn = F.relabel(perm)
    f = tuple(sum(1 for w in Fn.neighbors(i) if w > i) for i in range(Fn.n))
    return Fn, perm, parents, f


def _check_fit_threshold(F: Graph, eps: Fraction, d: Fraction):
    thr = eps * d * d
    dmax = F.max_degree()
    if Fraction(dmax * dmax) >= thr:
        raise PreconditionError(
            "need sqrt(eps)*d strictly above the tree's maximum degree"
        )
    return thr


def _fit_key(adj, parents, f, copy, thr) -> tuple:
    """The fit class of one labeled copy: (d vector, back-edge mask)."""
    prev = 0
    d_vec = []
    backedge_mask = 0
    for i, w in enumerate(copy):
        r = (adj[w] & ~prev).bit_count()
        d_vec.append(r if r * r >= thr else f[i])
        if i:
            pw = copy[parents[i]]
            base = i * (i - 1) // 2
            for k in range(i):
                wk = copy[k]
                if wk != pw and adj[w] >> wk & 1:
                    backedge_mask |= 1 << (base + k)
        prev |= 1 << w
    return tuple(d_vec), backedge_mask


def fit_decompose(H: Graph, F: Graph, copy, eps, d) -> FitRecord:
    """Classify one labeled tree copy and expand it to its unique fitting R.

    Index i is big when its residual degree r_i (neighbors of the image
    outside the earlier images) satisfies r_i >= sqrt(eps)*d, compared by
    squaring; big indices contribute all residual edges, small ones only
    their tree children.  A residual degree exactly at the threshold counts
    as big (knife-edge convention).
    """
    eps, d = Fraction(eps), Fraction(d)
    Fn, perm, parents, f = _prepare_tree(F)
    thr = _check_fit_threshold(Fn, eps, d)
    if len(copy) != Fn.n:
        raise PreconditionError("copy length does not match the tree")
    remapped = [0] * Fn.n
    for old, w in enumerate(copy):
        remapped[perm[old]] = w
    copy = remapped
    if len(set(copy)) != len(copy) or not all(0 <= w < H.n for w in copy):
        raise PreconditionError("copy is not an embedding of the tree")
    for a, b in Fn.edges:
        if not H.has_edge(copy[a], copy[b]):
            raise PreconditionError("copy is not an embedding of the tree")
    adj = H.adj
    d_vec, backedge_mask = _fit_key(adj, parents, f, copy, thr)
    prev = 0
    residual = []
    big = []
    b_vec = []
    extra = 0
    rhat_edges = set()
    for i, w in enumerate(copy):
        if i:
            pw = copy[parents[i]]
            rhat_edges.add((min(w, pw), max(w, pw)))
        resid_mask = adj[w] & ~prev
        r = resid_mask.bit_count()
        residual.append(r)
        big.append(r * r >= thr)
        back = adj[w] & prev
        b_vec.append(back.bit_count() - (1 if i else 0))
        if big[i]:
            extra |= resid_mask
            for x in iter_bits(resid_mask):
                rhat_edges.add((min(w, x), max(w, x)))
        prev |= 1 << w
    D = sum(x for x, is_big in zip(d_vec, big) if is_big)
    return FitRecord(
        copy=tuple(copy),
        residual=tuple(residual),
        profile=DegreeProfile(f=f, d=d_vec, big=tuple(big), D=D),
        b=tuple(b_vec),
        backedge_mask=backedge_mask,
        rhat_vertices=tuple(copy) + tuple(iter_bits(extra & ~prev)),
        rhat_edges=tuple(sorted(rhat_edges)),
    )


def verify_fit_partition(H: Graph, F: Graph, eps, d, node_budget=None) -> PropositionReport:
    """Grouped fit classes over all labeled copies must total the labeled count."""
    eps, d = Fraction(eps), Fraction(d)
    Fn, _, parents, f = _prepare_tree(F)
    thr = _check_fit_threshold(Fn, eps, d)
    classes: dict = {}
    labeled = 0
    for copy in iter_labeled(H, Fn, node_budget=node_budget):
        labeled += 1
        key = _fit_key(H.adj, parents, f, copy, thr)
        classes[key] = classes.get(key, 0) + 1
    total = sum(classes.values())
    table = [
        {"d": list(key[0]), "backedges": key[1], "count": cnt}
        for key, cnt in sorted(classes.items())
    ]
    return PropositionReport(
        prop_id="fit-partition-identity",
        inputs={
            "graph6": to_graph6(H),
            "tree6": to_graph6(Fn),
            "eps": str(eps),
            "d": str(d),
        },
        lhs=str(labeled),
        rhs=str(total),
        verdict=labeled == total,
        witness={"classes": table},
    )


# -- legal degree sequences -----------------------------------------------------


class LegalCount(Record):
    count: int
    big_threshold: int
    bound: int
    bound_applicable: bool
    bound_holds: bool | None


def _bound_term(j: int, s: int, D: int) -> int:
    # C(j,s) * C(D-1, s-1) with the C(-1,-1) = 1 convention
    if s == 0:
        return 1 if D == 0 else 0
    if s > j or D - 1 < s - 1:
        return 0
    return math.comb(j, s) * math.comb(D - 1, s - 1)


def count_legal_sequences(f, eps, d, D: int, d_cap: int) -> LegalCount:
    """Exact number of legal degree vectors with big-part sum D.

    A vector is legal when every index is big (value in [m, d_cap] with
    m = ceil(sqrt(eps)*d)) or small (value = child count).  The reported
    binomial bound sum C(j,s)*C(D-1,s-1) is meaningful when d_cap >= D;
    it is a theorem only in part of the parameter range, so the report
    carries the comparison outcome rather than asserting it.
    """
    eps, d = Fraction(eps), Fraction(d)
    f = tuple(int(x) for x in f)
    if D < 0:
        raise PreconditionError("D must be nonnegative")
    m = ceil_root(eps * d * d, 2)
    if m < 1:
        m = 1
    if d_cap < m:
        raise PreconditionError("d_cap must be at least the big threshold")
    if any(x >= m for x in f):
        raise PreconditionError(
            "child counts must lie strictly below the big threshold"
        )
    positions = len(f)
    # comp[s] = compositions of D into s parts, each in [m, d_cap]
    comp = [0] * (positions + 1)
    comp[0] = 1 if D == 0 else 0
    ways = {0: 1}
    for s in range(1, positions + 1):
        nxt: dict = {}
        for total, cnt in ways.items():
            for part in range(m, d_cap + 1):
                t = total + part
                if t > D:
                    break
                nxt[t] = nxt.get(t, 0) + cnt
        ways = nxt
        comp[s] = ways.get(D, 0)
    count = sum(math.comb(positions, s) * comp[s] for s in range(positions + 1))
    j = positions - 1
    bound = sum(_bound_term(j, s, D) for s in range(positions + 1))
    applicable = d_cap >= D
    return LegalCount(
        count=count,
        big_threshold=m,
        bound=bound,
        bound_applicable=applicable,
        bound_holds=(count <= bound) if applicable else None,
    )


# -- path-length cutoff -----------------------------------------------------------

# ell_hat refuses once the cutoff is known to exceed this
_ELL_HAT_CAP = 10**6


class EllHatResult(Record):
    value: int
    n: int
    delta: Fraction
    at_value_ok: bool
    above_value_fails: bool


def ell_hat(n: int, q, delta) -> EllHatResult:
    """Largest integer l with (nq)^l < n^(1 - delta*c), where nq = n^c.

    Rewriting n^(1-delta*c) as n*(nq)^(-delta) removes c: with delta = s/t
    the condition is n^t * (1/(nq))^(t*l+s) > 1, which the one power test
    of the structural bounds decides.  A cutoff above 10^6 is refused with
    ``ResourceGuardError``.
    """
    delta = Fraction(delta)
    if not (0 < delta < 1):
        raise PreconditionError("delta must lie strictly between 0 and 1")
    if n < 2 or value_cmp(q, Fraction(1, n)) <= 0 or value_cmp(q, 1) >= 0:
        raise PreconditionError("need 1/n < q < 1 so the exponent c is defined")
    s, t = delta.numerator, delta.denominator
    inv_nq = value_div(Fraction(1), value_mul(Fraction(n), q))

    def holds(ell: int) -> bool:
        ok = _power_exceeds_one(n, t, inv_nq, t * ell + s)
        if ok and ell > _ELL_HAT_CAP:
            raise ResourceGuardError(f"path-length cutoff exceeds {_ELL_HAT_CAP}")
        return ok

    # holds is monotone, as nq > 1: double past the cutoff, then bisect
    ell, hi = 0, 1
    while holds(hi):
        ell, hi = hi, 2 * hi
    while hi - ell > 1:
        mid = (ell + hi) // 2
        if holds(mid):
            ell = mid
        else:
            hi = mid
    return EllHatResult(
        value=ell,
        n=n,
        delta=delta,
        at_value_ok=holds(ell),
        above_value_fails=not holds(ell + 1),
    )


# -- main comparison ---------------------------------------------------------------


def verify_main_inequality(
    H: Graph, F: Graph, n: int, q, L, node_budget=None
) -> PropositionReport:
    """Strict comparison N(H,F) < L^{e_F} * E_qX_F for a sparse host."""
    L = Fraction(L)
    if L <= 0:
        raise PreconditionError("L must be positive")
    req = required_L(H, F, n, q, node_budget=node_budget)
    rhs = value_mul(L**F.edge_count, req.expectation)
    verdict = value_cmp(Fraction(req.copies), rhs) < 0
    inputs = _base_inputs(H, n, q)
    inputs["pattern6"] = to_graph6(F)
    inputs["L"] = str(L)
    lo, hi = req.enclosure
    return PropositionReport(
        prop_id="main-inequality",
        inputs=inputs,
        lhs=str(req.copies),
        rhs=f"L^{F.edge_count} * E_qX_F ~ {value_float(rhs):.6g}",
        verdict=verdict,
        witness={"required_L": [lo, hi]},
    )

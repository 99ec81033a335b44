"""Universal measuring machinery relative to a finite-dimensional ambient.

A span constraint compares two routes out of a coalgebra C: comultiply l
times, push every leg through the carrier map psi into V = Hom(A, B), apply
the left map; against the same with r legs and the right map.  The elements
of C satisfying every span of a multispan form the constraint subspace; the
largest subcoalgebra inside it (stabilized under any requested extra maps,
e.g. an antipode and the involution) is the universal measuring subcoalgebra
relative to the ambient C.  The true universal objects are infinite
dimensional; everything here is their trace inside a user-supplied C, and
terminality is certified relative to that ambient only.

Spans are evaluated sparsely.  psi(e_j) is the sparse row carrier_rows[j]
of V, whose entry (o, a) sits at o dim A + a; a side of a span takes the
tuple of legs psi(e_j), one per index of a term of Delta^(l), and yields
(target index, value) terms, which collect sums.  A matrix-backed side
meets the sparse Kronecker power of its legs (linalg.kron), so neither a
leg nor the power is ever dense.

The decreasing iteration V_{k+1} = {x in V_k : Delta x in V_k (x) V_k,
sigma x in V_k} stabilizes in at most dim C steps.  It never forms the
tensor square: V (x) V = (V (x) C) cap (C (x) V), so Delta x lies in it
exactly when (a (x) id) Delta x = 0 and (id (x) a) Delta x = 0 for every
annihilator row a of V, which are sparse rows in the coordinates of x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable, Iterable

from .algebra import (
    StarAlgebra,
    generated_subalgebra,
    is_unital_star_subalgebra,
    light_generators,
    reify,
    relative_commutant,
)
from .errors import InputError
from .hopf import (
    HopfStarAlgebra,
    StarCoalgebra,
    dual_algebra,
    validate_coalgebra,
)
from .linalg import (
    Mat,
    SpanBuilder,
    Subspace,
    collect,
    dot,
    kernel_of,
    kron,
    op_from_entries,
    op_sparse,
    op_transpose,
    span_of,
    sparse,
    sparse_apply,
    sparse_comb,
    sparse_conj,
)
from .report import Report
from .scalars import Scalar


@dataclass
class SpanConstraint:
    """One diagram: left . psi^(x)l . Delta^(l) = right . psi^(x)r . Delta^(r).

    left and right take a tuple of legs, one sparse vector of V per leg
    (empty for a 0-leg side), and yield the (target index, value) terms of
    their value.
    """

    shape: tuple[int, int]
    left: Callable[[tuple], Iterable]
    right: Callable[[tuple], Iterable]
    name: str = "span"

    @staticmethod
    def from_matrices(l: int, r: int, left_mat: Mat, right_mat: Mat,
                      carrier_dim: int, name: str = "span") -> "SpanConstraint":
        """Matrix-backed span: maps act on the Kronecker power of the legs.

        Each side must have carrier_dim ** legs columns, and both sides the
        same number of rows; the width is checked by division, so a huge
        leg count is rejected cheaply.  Column j of a side meets entry j of
        the sparse power kron(...kron(psi(c_1), psi(c_2))..., psi(c_l)),
        and a 0-leg side meets {0: 1}.
        """
        if l < 0 or r < 0:
            raise InputError(f"{name}: l and r must be nonnegative")
        if len(left_mat) != len(right_mat):
            raise InputError(f"{name}: left has {len(left_mat)} rows, right"
                             f" has {len(right_mat)}")
        for side, legs, mat in (("left", l, left_mat),
                                ("right", r, right_mat)):
            if not all(_is_power(len(row), carrier_dim, legs) for row in mat):
                raise InputError(f"{name}.{side}: every row needs"
                                 f" {carrier_dim}^{legs} columns")

        def side(mat: Mat):
            columns = op_transpose(op_sparse(mat))

            def apply(legs: tuple):
                power = reduce(partial(kron, n=carrier_dim), legs,
                               {0: Scalar.one()})
                return ((t, a * x) for j, x in power.items()
                        for t, a in columns.get(j, {}).items())
            return apply

        return SpanConstraint((l, r), side(left_mat), side(right_mat), name)


def _is_power(m: int, base: int, exp: int) -> bool:
    """m == base ** exp, decided by dividing m down."""
    if base <= 1:
        return m == base ** min(exp, 1)
    while exp and m > 1 and m % base == 0:
        m //= base
        exp -= 1
    return exp == 0 and m == 1


@dataclass
class Multispan:
    """Spans sharing one carrier map psi: C -> V; psi(e_i) is the sparse
    row carrier_rows[i], with no zero entry."""

    carrier_rows: list
    spans: list[SpanConstraint] = field(default_factory=list)


def _span_value(C: StarCoalgebra, ms: Multispan, span: SpanConstraint,
                x: dict) -> dict:
    """left-minus-right evaluation of one span at the sparse element x, as
    a sparse vector of the target.

    Each term c e_idx of Delta^(legs) x meets the side's value at the legs
    psi(e_j), j in idx, summed before it is scaled by c.
    """
    l, r = span.shape
    return collect(
        (t, c * b)
        for legs_n, side, sign in ((l, span.left, 1), (r, span.right, -1))
        for idx, v in C.iterated_comult(x, legs_n).items()
        for c in [v if sign > 0 else -v]
        for t, b in collect(side(tuple(ms.carrier_rows[j]
                                       for j in idx))).items())


def constraint_subspace(C: StarCoalgebra, ms: Multispan) -> Subspace:
    """{c : every span diagram commutes at c}, made *-stable."""
    n = C.dim
    one = Scalar.one()

    def entries():
        for s, span in enumerate(ms.spans):
            if span.shape[0] < 0 or span.shape[1] < 0:
                raise InputError("span shape must be nonnegative")
            for i in range(n):
                for t, v in _span_value(C, ms, span, {i: one}).items():
                    yield (s, t), i, v
    W = kernel_of(entries(), n)
    return W.intersect(W.image_conjlinear(C.star_vec))


# -- built-in spans --------------------------------------------------------
#
# A leg is a sparse vector of V = Hom(A, B): its entry (o, a), the
# coefficient of f_o in the image of e_a, sits at o dim A + a.


def _columns(leg: dict, dim_in: int) -> dict:
    """The nonzero columns {a: {o: F[o][a]}} of a sparse leg F."""
    cols: dict = {}
    for k, v in leg.items():
        if v:
            cols.setdefault(k % dim_in, {})[k // dim_in] = v
    return cols


def multiplication_span(A: StarAlgebra, B: StarAlgebra) -> SpanConstraint:
    """c . (a a') = (c_1 . a)(c_2 . a'), target Hom(A (x) A, B) at
    o dim A^2 + a dim A + a'."""
    na = A.dim

    def left(legs):
        F, G = (_columns(leg, na) for leg in legs)
        return ((o * na * na + a * na + ap, v)
                for a, col_f in F.items() for ap, col_g in G.items()
                for o, v in sparse_apply(B.mult, col_f, col_g).items())

    def right(legs):
        (F,) = (_columns(leg, na) for leg in legs)
        return ((o * na * na + a * na + ap, m * f)
                for a in range(na) for ap in range(na)
                for k, m in A.mult[a][ap].items()
                for o, f in F.get(k, {}).items())

    return SpanConstraint((2, 1), left, right, "multiplication")


def unit_span(A: StarAlgebra, B: StarAlgebra) -> SpanConstraint:
    """c . 1_A = counit(c) 1_B, target B."""
    na = A.dim

    def left(legs):
        return sparse(B.unit).items()

    def right(legs):
        (F,) = (_columns(leg, na) for leg in legs)
        return ((o, f * u) for j, u in sparse(A.unit).items()
                for o, f in F.get(j, {}).items())

    return SpanConstraint((0, 1), left, right, "unit")


def fixing_span(A: StarAlgebra, B: StarAlgebra,
                fixed: Subspace) -> SpanConstraint:
    """c . a = counit(c) a on a distinguished subspace of A; B must be A.

    The target is one copy of B per basis vector b_i of the subspace, at
    i dim B + o.
    """
    na, nb = A.dim, B.dim
    basis = fixed.vectors
    if nb != na:
        raise InputError("default fixing map needs B = A")

    def left(legs):
        (F,) = (_columns(leg, na) for leg in legs)
        return ((i * nb + o, f * x) for i, b in enumerate(basis)
                for j, x in b.items() for o, f in F.get(j, {}).items())

    def right(legs):
        return ((i * nb + k, x) for i, b in enumerate(basis)
                for k, x in b.items())

    return SpanConstraint((1, 0), left, right, "fixing")


def star_compat_rows(C: StarCoalgebra, ms: Multispan, A: StarAlgebra,
                     B: StarAlgebra) -> list[dict]:
    """Constraint rows for (c . a)* = c* . a*, linearized.

    psi(c) must agree with star_B . psi(c*) . star_A; the two conjugations
    make the condition linear in c.  Row t, in increasing t, holds
    psi(e_h)[t] minus the twisted entry at t over the h where they differ.
    """
    na = A.dim
    a_star = [sparse(row) for row in A.star]
    b_star = [sparse(row) for row in B.star]

    def entries():
        for h, row in enumerate(ms.carrier_rows):
            for t, v in row.items():
                yield t, h, v
            op = _columns(sparse_comb(ms.carrier_rows, C.star_row(h)), na)
            for i in range(na):
                col = collect((o, f * x) for j, x in a_star[i].items()
                              for o, f in op.get(j, {}).items())
                for o, v in sparse_comb(b_star, sparse_conj(col)).items():
                    yield o * na + i, h, -v

    rows = op_from_entries(entries())
    return [rows[t] for t in sorted(rows)]


# -- largest subcoalgebra -----------------------------------------------------


def largest_subcoalgebra(C: StarCoalgebra, W: Subspace,
                         stabilizers: list | None = None,
                         log: list | None = None) -> Subspace:
    """The largest subspace D of W with Delta(D) in D (x) D, sigma(D) in D.

    stabilizers are maps of sparse vectors, linear or marked conjugate linear
    (linalg.conjugate_linear).  V_{k+1} = {x in V_k : Delta x in V_k (x) V_k,
    sigma x in V_k} is a kernel (kernel_of) in the coordinates c of
    x = sum c_j b_j on the RREF basis of V_k; the dimensions of this
    decreasing iteration go to log when given.  The result contains every
    stabilized subcoalgebra of W.

    With U_k = V_k^perp in C*, V_{k+1}^perp = U_k + U_k C* + C* U_k +
    sum sigma^T(U_k) (Sweedler, Hopf Algebras, 1969, ch. 1), sigma^T(a)
    being k -> a(sigma e_k), conjugated for a conjugate-linear sigma.
    When light_generators finds generators G of C* in this call, U_k C*
    is the closure (SpanBuilder.close) of U_k under right multiplication
    by G, C* U_k that on the left, and the rows are a . x for the a that
    these closures and sigma^T add (_dual_rounds).  Otherwise (a
    cocommutative C has too many G), the rows are (a (x) id) Delta x on
    each column, (id (x) a) Delta x on each pivot row and a . sigma(x),
    conjugated for a conjugate-linear sigma, per annihilator row a of V_k.
    """
    if W.ambient_dim != C.dim:
        raise InputError("subspace does not live in the coalgebra")
    stabilizers = stabilizers or []
    conjugated = {("stabilizer", s) for s, sigma in enumerate(stabilizers)
                  if getattr(sigma, "conjugate_linear", False)}
    dual_entries = _dual_rounds(C, W, stabilizers)

    def entries(V: Subspace):
        pivots = set(V.pivots)
        for j, b in enumerate(V.vectors):
            slices: dict = {}
            for (p, q), v in C.comult_vec(b).items():
                slices.setdefault(("left", q), {})[p] = v
                if p in pivots:
                    slices.setdefault(("right", p), {})[q] = v
            for s, sigma in enumerate(stabilizers):
                slices["stabilizer", s] = sigma(b)
            for key, vec in slices.items():
                for f, v in V.residue(vec).items():
                    yield key + (f,), j, v.conj() if key in conjugated else v

    current = W
    while True:
        if log is not None:
            log.append(current.dim)
        if current.dim == 0:
            return current
        coeffs = kernel_of((dual_entries or entries)(current), current.dim)
        if coeffs.dim == current.dim:
            return current
        current = span_of((sparse_comb(current.vectors, c)
                           for c in coeffs.vectors), C.dim)


def _dual_rounds(C: StarCoalgebra, W: Subspace, stabilizers: list):
    """The entries of each round of largest_subcoalgebra on the dual route,
    or None when light_generators finds no generators of C*."""
    n, one = C.dim, Scalar.one()
    dual = dual_algebra(C, [C.star_row(k) for k in range(n)])
    gens = light_generators(dual)
    if gens is None:
        return None
    right = [list(column) for column in zip(*dual.mult)]   # (a, g) -> a g
    closures = [(SpanBuilder(n), [partial(sparse_apply, t, g) for g in gens])
                for t in (dual.mult, right)]
    images = [[sigma({k: one}) for k in range(n)] for sigma in stabilizers]
    conj = [getattr(sigma, "conjugate_linear", False) for sigma in stabilizers]
    fresh = W.annihilator_rows()

    def entries(V: Subspace):
        new = [(sparse_conj if c else dict)(collect(
            (k, dot(row, a)) for k, row in enumerate(rows)))
            for a in fresh for rows, c in zip(images, conj)]
        for builder, ops in closures:
            new.extend(builder.close([a for a in fresh if builder.insert(a)],
                                     ops))
        fresh[:] = new
        return ((r, j, dot(b, a)) for r, a in enumerate(new)
                for j, b in enumerate(V.vectors))
    return entries


def _tensor_square_closed(C: StarCoalgebra, D: Subspace) -> bool:
    """Delta(D) in D (x) D, decided in the span of all b_i (x) b_j.

    largest_subcoalgebra and reify_coalgebra never build this dim(C)^2
    span; the reports keep it on purpose, so that they re-check a result
    by a route that production does not use.
    """
    n = C.dim
    basis = D.vectors
    square = span_of((kron(u, v, n) for u in basis for v in basis), n * n)
    return all(square.contains({j * n + k: c for (j, k), c
                                in C.comult_vec(b).items()})
               for b in basis)


def subcoalgebra_report(C: StarCoalgebra, D: Subspace,
                        stabilizers: list | None = None) -> Report:
    """Delta- and sigma-closure of D; Delta by the tensor-square route."""
    rep = Report("subcoalgebra certificate")
    rep.add("comultiplication_closed", _tensor_square_closed(C, D))
    for idx, sigma in enumerate(stabilizers or []):
        rep.add(f"stabilizer_{idx}_closed",
                all(D.contains(sigma(v)) for v in D.vectors))
    return rep


# -- universal measuring ----------------------------------------------------------


@dataclass
class MeasuringResult:
    subspace: Subspace
    constraint: Subspace
    coalgebra: StarCoalgebra | None
    inclusion: list[dict]
    report: Report
    log: list[int]


def universal_measuring_within(C: StarCoalgebra, A: StarAlgebra,
                               B: StarAlgebra, carrier_rows: list,
                               extra: list[SpanConstraint] | None = None
                               ) -> MeasuringResult:
    """Largest subcoalgebra of C measuring A to B through the carrier map.

    The constraint subspace collects the multiplication and unit spans plus
    any extra spans and the star compatibility condition (c.a)* = c*.a*.
    The result is re-validated to measure, and is the terminal measuring
    subcoalgebra relative to the ambient C.
    """
    ms = Multispan(carrier_rows,
                   [multiplication_span(A, B), unit_span(A, B)]
                   + list(extra or []))
    W = constraint_subspace(C, ms)
    rows = W.annihilator_rows() + star_compat_rows(C, ms, A, B)
    W = kernel_of(((r, c, v) for r, row in enumerate(rows)
                   for c, v in row.items()), C.dim)
    log: list[int] = []
    D = largest_subcoalgebra(C, W, stabilizers=[C.star_vec], log=log)
    rep = Report("universal measuring (relative)")
    rep.merge(subcoalgebra_report(C, D, [C.star_vec]), prefix="closure:")
    rep.add("inside_constraints", W.contains_subspace(D))
    # re-validate that the result measures, straight from the definitions
    ok = not any(_span_value(C, ms, span, v)
                 for v in D.vectors for span in ms.spans)
    rep.add("measures", ok)
    coalg, inclusion = (None, [])
    if D.dim:
        coalg, inclusion = reify_coalgebra(C, D)
        rep.add("reified_coalgebra_valid", validate_coalgebra(coalg).ok)
    return MeasuringResult(D, W, coalg, inclusion, rep, log)


def reify_coalgebra(C: StarCoalgebra, D: Subspace):
    """Standalone comultiplication tensors on a subcoalgebra's basis.

    D's basis b_i is in RREF with pivots p_i, so if Delta(v) lies in
    D (x) D its coefficient on b_i (x) b_j is the entry of Delta(v) at
    (p_i, p_j).  Rebuilding Delta(v) from those entries is the exact check.
    The inclusion returned is the basis, as sparse vectors.
    """
    where = {p: i for i, p in enumerate(D.pivots)}
    supports = D.vectors
    comult = []
    for v in supports:
        delta = C.comult_vec(v)
        plane = {(where[p], where[q]): c for (p, q), c in delta.items()
                 if p in where and q in where}
        # sum g_ij b_i (x) b_j
        rebuilt = collect(((s, t), x * c * y) for (i, j), c in plane.items()
                          for s, x in supports[i].items()
                          for t, y in supports[j].items())
        if rebuilt != delta:
            raise InputError("not a subcoalgebra")
        comult.append(plane)
    counit = [C.counit_of(v) for v in supports]
    star = [D.coordinates(C.star_vec(v)) for v in supports]
    return StarCoalgebra(D.dim, comult, counit, star), supports


# -- Hopf *-subalgebras and centralizers ---------------------------------------------


def largest_hopf_star_subalgebra(Q: HopfStarAlgebra, W: Subspace) -> Subspace:
    """The largest Hopf *-subalgebra of Q contained in the subalgebra W.

    W must be a unital *-subalgebra.  The antipode- and star-stabilized
    largest subcoalgebra of W is multiplicatively closed up to one algebra
    generation step, which stays inside W; the certificate re-checks every
    closure property instead of trusting the construction.
    """
    if not is_unital_star_subalgebra(W, Q):
        raise InputError("W not a unital *-subalgebra")
    d0 = largest_subcoalgebra(
        Q.coalgebra, W,
        stabilizers=[Q.antipode_vec, Q.star_vec],
    )
    result = generated_subalgebra(d0.vectors, Q)
    if not W.contains_subspace(result):
        raise InputError("generation escaped W; W is not closed")
    return result


def hopf_subalgebra_report(Q: HopfStarAlgebra, S: Subspace) -> Report:
    """Delta-, S-, *-, multiplication- and unit-closure of a subspace.

    Delta-closure goes by the tensor-square route, independent of the
    production iteration.
    """
    rep = Report("hopf *-subalgebra certificate")
    rep.add("comultiplication_closed", _tensor_square_closed(Q.coalgebra, S))
    basis = S.vectors
    rep.add("antipode_closed",
            all(S.contains(Q.antipode_vec(v)) for v in basis))
    rep.add("star_closed", all(S.contains(Q.star_vec(v)) for v in basis))
    rep.add("multiplicatively_closed",
            all(S.contains(Q.mul_vec(u, v)) for u in basis for v in basis))
    rep.add("unital", S.contains(Q.unit))
    return rep


def hopf_centralizer(Q: HopfStarAlgebra, S: Subspace) -> Subspace:
    """Largest Hopf *-subalgebra inside the commutant of a *-closed S."""
    W = relative_commutant(S, Q)  # which checks S lives in Q
    if not all(S.contains(Q.star_vec(v)) for v in S.vectors):
        raise InputError("S not *-closed")
    return largest_hopf_star_subalgebra(Q, W)


def reify_hopf_subalgebra(Q: HopfStarAlgebra, S: Subspace,
                          name: str = "") -> HopfStarAlgebra:
    """Standalone Hopf *-algebra structure on a Hopf *-subalgebra."""
    alg, inclusion = reify(Q, S, name=name)
    coalg, _ = reify_coalgebra(Q.coalgebra, S)
    antipode = [S.coordinates(Q.antipode_vec(b)) for b in S.vectors]
    return HopfStarAlgebra(alg, coalg.comult, coalg.counit, antipode,
                           name=name)

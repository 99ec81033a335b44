"""GNS representation, Jones projection, basic construction, exact index.

The base algebra M with its faithful tracial state tau is represented on
L^2(M, tau) = the coordinate space of M with inner product <x, y> =
tau(y* x).  On it live the left regular representation lam, the canonical
conjugation J (x -> x*), the Jones projection e_N onto a subalgebra, the
basic construction M_1 = alg(M, e_N) = J N' J, and the coupling-constant
index.

Traces of factor subalgebras of End(L^2) collapse to the normalized ambient
trace (uniqueness of the tracial state on a factor), which is what makes the
index an exact rational: the coupling constant becomes a ratio of ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .algebra import (
    StarAlgebra,
    analyze_state,
    gram_matrix,
    is_nonsingular,
    is_unital_star_subalgebra,
    relative_commutant,
)
from .errors import ConsistencyError, InputError
from .linalg import (
    Mat,
    SpanBuilder,
    Subspace,
    Vec,
    flatten_matrix,
    kernel_of,
    mat_inverse,
    mat_mul,
    mat_vec,
    matrix_commutant,
    operator_algebra_span,
    sparse,
    unit_vec,
    vec_is_zero,
    vzero,
)
from .report import Report
from .scalars import Scalar


@dataclass
class GnsSpace:
    base: StarAlgebra
    gram: Mat
    report: Report

    def __post_init__(self):
        self._lam_cache: dict[int, Mat] = {}
        self._n_commutants: dict = {}

    @property
    def dim(self) -> int:
        return self.base.dim

    def lam(self, x: Vec) -> Mat:
        return self.base.left_mult_matrix(x)

    def lam_basis(self, i: int) -> Mat:
        if i not in self._lam_cache:
            self._lam_cache[i] = self.base.left_mult_matrix(
                unit_vec(self.dim, i)
            )
        return self._lam_cache[i]

    def lam_apply(self, i: int, v: Vec) -> Vec:
        """lam(e_i) v = e_i . v, through the sparse structure constants."""
        out = vzero(self.dim)
        row = self.base.mult[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            for k, m in row[j].items():
                out[k] = out[k] + vj * m
        return out

    def jvec(self, x: Vec) -> Vec:
        """The canonical conjugation J x = x* (conjugate linear)."""
        return self.base.star_vec(x)

    def jmat(self, X: Mat) -> Mat:
        """J X J as a linear operator."""
        n = self.dim
        cols = [self.jvec(mat_vec(X, self.jvec(unit_vec(n, i))))
                for i in range(n)]
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def inner(self, x: Vec, y: Vec) -> Scalar:
        """<x, y> = tau(y* x) through the Gram matrix."""
        tot = Scalar.zero()
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if yj and self.gram[i][j]:
                    tot = tot + xi * yj.conj() * self.gram[i][j]
        return tot

    def n_commutant(self, N: Subspace) -> tuple[Subspace, Subspace]:
        """N' and J N' J in End(L^2), flattened; computed once per N."""
        key = (tuple(N.pivots), tuple(map(tuple, N.basis)))
        if key not in self._n_commutants:
            n = self.dim
            mats = matrix_commutant([self.lam(b) for b in N.basis], n)
            self._n_commutants[key] = (
                Subspace.from_vectors([flatten_matrix(X) for X in mats],
                                      n * n),
                Subspace.from_vectors(
                    [flatten_matrix(self.jmat(X)) for X in mats], n * n),
            )
        return self._n_commutants[key]

    @cached_property
    def gram_inverse(self) -> Mat:
        return mat_inverse(self.gram)

    def adjoint(self, X: Mat) -> Mat:
        """Gram adjoint: <X x, y> = <x, X^dagger y>."""
        xct = [[X[j][i].conj() for j in range(self.dim)]
               for i in range(self.dim)]
        return mat_mul(self.gram_inverse, mat_mul(xct, self.gram))


def gns(M: StarAlgebra, certify: bool = True) -> GnsSpace:
    """GNS space of (M, tau); tau must be tracial and exactly nondegenerate."""
    if M.state is None:
        raise InputError("gns needs a state")
    st = analyze_state(M)
    if not st.tracial or not st.hermitian:
        raise InputError("gns needs a tracial hermitian state")
    G = gram_matrix(M)
    if not is_nonsingular(G):
        raise InputError("degenerate Gram matrix")
    rep = Report("gns")
    space = GnsSpace(M, G, rep)
    if certify:
        _certify_gns(space)
    return space


def _certify_gns(space: GnsSpace):
    M, G, rep = space.base, space.gram, space.report
    n = M.dim
    hermitian = all(
        G[i][j] == G[j][i].conj() for i in range(n) for j in range(n)
    )
    rep.add("gram_hermitian", hermitian)
    rep.add("gram_nonsingular", True)  # checked in gns()

    ok = True
    for i in range(n):
        lam_i = space.lam_basis(i)
        lam_star = space.lam(M.star_vec(unit_vec(n, i)))
        if space.adjoint(lam_i) != lam_star:
            ok = False
            break
    rep.add("left_regular_star_representation", ok)

    ok = True
    for i in range(n):
        e = unit_vec(n, i)
        if space.jvec(space.jvec(e)) != e:
            ok = False
            break
    rep.add("conjugation_involutive", ok)

    commutant = matrix_commutant([space.lam_basis(i) for i in range(n)], n)
    jmj = [space.jmat(space.lam_basis(i)) for i in range(n)]
    lhs = Subspace.from_vectors([flatten_matrix(X) for X in jmj], n * n)
    rhs = Subspace.from_vectors(
        [flatten_matrix(X) for X in commutant], n * n
    )
    rep.add("jmj_equals_commutant", lhs == rhs)


# -- Jones projection ----------------------------------------------------------


def orthogonal_projection(space: GnsSpace, W: Subspace) -> Mat:
    """Gram-orthogonal projection of L^2 onto a subspace."""
    basis = W.basis
    k = len(basis)
    if k == 0:
        return [vzero(space.dim) for _ in range(space.dim)]
    gram_w = [[space.inner(basis[j], basis[i]) for j in range(k)]
              for i in range(k)]
    try:
        gw_inv = mat_inverse(gram_w)
    except InputError as e:
        raise InputError("degenerate restriction") from e
    n = space.dim
    cols = []
    for idx in range(n):
        x = unit_vec(n, idx)
        rhs = [space.inner(x, basis[i]) for i in range(k)]
        coeffs = mat_vec(gw_inv, rhs)
        col = vzero(n)
        for c, b in zip(coeffs, basis):
            if c:
                col = [u + c * w for u, w in zip(col, b)]
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def jones_projection(space: GnsSpace, N: Subspace,
                     expectation: Mat | None = None) -> tuple[Mat, Report]:
    """e_N with its property report.

    Checks, all exactly: e_N is the Gram-orthogonal projection onto N with
    e_N = e_N* = e_N^2; e_N lam(x) e_N = lam(E_N(x)) e_N; x is in N iff
    e_N lam(x) = lam(x) e_N; J commutes with e_N; and the double-commutant
    identity N' = alg(M, e_N)''.
    """
    M = space.base
    n = space.dim
    if not is_unital_star_subalgebra(N, M):
        raise InputError("not a subalgebra")
    e = orthogonal_projection(space, N)
    rep = Report("jones projection")
    rep.add("idempotent", mat_mul(e, e) == e)
    rep.add("self_adjoint", space.adjoint(e) == e)
    rep.add("image_is_subalgebra_closure",
            Subspace.from_vectors([mat_vec(e, unit_vec(n, i))
                                   for i in range(n)], n) == N)

    if expectation is None:
        from .algebra import conditional_expectation

        expectation = conditional_expectation(M, N)
    ok = True
    for i in range(n):
        lam_i = space.lam_basis(i)
        lhs = mat_mul(e, mat_mul(lam_i, e))
        rhs = mat_mul(space.lam(mat_vec(expectation, unit_vec(n, i))), e)
        if lhs != rhs:
            ok = False
            break
    rep.add("compresses_to_expectation", ok,
            note="operator form e lam(x) e = lam(E(x)) e")

    def entries():
        # (e lam_i - lam_i e)[k][j] on the sparse rows of e and lam_i
        e_rows = [sparse(r) for r in e]
        for i in range(n):
            lam_rows = [sparse(r) for r in space.lam_basis(i)]
            for k in range(n):
                for p, x in e_rows[k].items():
                    for j, y in lam_rows[p].items():
                        yield (k, j), i, x * y
                for p, x in lam_rows[k].items():
                    for j, y in e_rows[p].items():
                        yield (k, j), i, -(x * y)
    commuting = kernel_of(entries(), n)
    rep.add("commutation_characterizes_subalgebra",
            commuting == N)

    ok = True
    for i in range(n):
        x = unit_vec(n, i)
        if space.jvec(mat_vec(e, x)) != mat_vec(e, space.jvec(x)):
            ok = False
            break
    rep.add("commutes_with_conjugation", ok)

    gens = [space.lam_basis(i) for i in range(n)] + [e]
    double_comm = matrix_commutant(matrix_commutant(gens, n), n)
    lhs = Subspace.from_vectors(
        [flatten_matrix(X) for X in double_comm], n * n
    )
    _, rhs = space.n_commutant(N)
    rep.add("double_commutant_identity", lhs == rhs,
            note="alg(M, e_N)'' = J N' J; conjugation by J turns this"
                 " into the commutant-of-N form")
    return e, rep


# -- basic construction ----------------------------------------------------------


@dataclass
class BasicConstruction:
    space: GnsSpace
    subalgebra: Subspace
    e_N: Mat
    m1: Subspace              # of End(L^2), flattened
    n_commutant: Subspace     # N' in End(L^2), flattened
    index: Fraction
    report: Report = field(default_factory=lambda: Report("basic construction"))

    def trace1(self, X: Mat) -> Scalar:
        """tau_1 = the normalized ambient trace restricted to M_1."""
        n = self.space.dim
        tot = Scalar.zero()
        for i in range(n):
            if X[i][i]:
                tot = tot + X[i][i]
        return tot * Scalar.rational(1, n)


def m1_span(space: GnsSpace, e: Mat) -> Subspace:
    """span{lam(a) e_N lam(b)} + lam(M), flattened inside End(L^2)."""
    n = space.dim
    builder = SpanBuilder(n * n)
    lams = [space.lam_basis(i) for i in range(n)]
    for a in range(n):
        left = mat_mul(lams[a], e)
        for b in range(n):
            builder.insert(flatten_matrix(mat_mul(left, lams[b])))
    for a in range(n):
        builder.insert(flatten_matrix(lams[a]))
    return builder.subspace()


def basic_construction(space: GnsSpace, N: Subspace) -> BasicConstruction:
    """M_1 computed three ways and certified equal, with tau_1 and the index."""
    n = space.dim
    e, e_rep = jones_projection(space, N)
    rep = Report("basic construction")
    rep.merge(e_rep, prefix="e_N:")

    generated = operator_algebra_span(
        [space.lam_basis(i) for i in range(n)] + [e], n
    )
    spanned = m1_span(space, e)
    n_comm_span, conjugated = space.n_commutant(N)
    if not (generated == spanned == conjugated):
        raise ConsistencyError(
            "the three computations of M_1 disagree: "
            f"alg {generated.dim}, span {spanned.dim}, JN'J {conjugated.dim}"
        )
    rep.add("m1_three_ways_agree", True,
            note="alg(M, e_N) = span{a e_N b} + M = J N' J")

    # tau_1 is the unique trace on the factor M_1
    center_dim = _operator_center_dim(generated, n)
    if center_dim != 1:
        raise InputError("not a factor")
    rep.add("m1_factor", True)

    idx = index(space, N)
    bc = BasicConstruction(space, N, e, generated, n_comm_span, idx, rep)
    rep.add("markov", markov_check(bc).ok)
    return bc


def _operator_center_dim(span: Subspace, n: int) -> int:
    from .linalg import unflatten_matrix

    mats = [unflatten_matrix(v, n) for v in span.basis]
    commutant = matrix_commutant(mats, n)
    comm_span = Subspace.from_vectors(
        [flatten_matrix(X) for X in commutant], n * n
    )
    return comm_span.intersect(span).dim


# -- index -------------------------------------------------------------------------


def index(space: GnsSpace, N: Subspace, xi: Vec | None = None,
          spot_checks: int = 3) -> Fraction:
    """[M : N] as the coupling constant dim_N L^2(M, tau), exactly.

    dim_N H = tau_N([N' xi]) / tau_{N'}([N xi]) for any nonzero xi.  Both
    tau_N and tau_{N'} are unique tracial states of factors acting on L^2,
    hence equal the restricted normalized ambient trace; for projections the
    ambient trace is rank / dim, so the coupling constant is an exact ratio
    of ranks.  N' xi is reached through N' = J M_1 J without materializing
    either algebra.
    """
    M = space.base
    n = space.dim
    if _center_dim_in(space, Subspace.full(n)) != 1:
        raise InputError("not a factor")
    if _center_dim_in(space, N) != 1:
        raise InputError("not a factor")
    if xi is None:
        xi = list(M.unit)
    if vec_is_zero(xi):
        raise InputError("xi degenerate")

    e = orthogonal_projection(space, N)
    value = _coupling(space, N, e, xi)

    import random

    rng = random.Random(20290)
    for _ in range(spot_checks):
        rand_xi = [Scalar.from_int(rng.randint(-3, 3)) for _ in range(n)]
        if vec_is_zero(rand_xi):
            rand_xi = list(M.unit)
        if _coupling(space, N, e, rand_xi) != value:
            raise ConsistencyError("coupling constant depends on xi")
    return value


def _coupling(space: GnsSpace, N: Subspace, e: Mat, xi: Vec) -> Fraction:
    n = space.dim
    # [N xi]: rank of the orbit span
    orbit = SpanBuilder(n)
    for b in N.basis:
        orbit.insert(space.base.mul_vec(b, xi))
    rank_n_xi = orbit.dim

    # [N' xi] with N' = J M_1 J and M_1 = span{lam(a) e lam(b)} + lam(M):
    # N' xi = J(M_1 (J xi))
    w = space.jvec(xi)
    u_span = SpanBuilder(n)
    lam_w = []
    for i in range(n):
        v = space.lam_apply(i, w)
        lam_w.append(v)
        u_span.insert(v)
    eu = SpanBuilder(n)
    for v in u_span.subspace().basis:
        eu.insert(mat_vec(e, v))
    m1w = SpanBuilder(n)
    for v in lam_w:
        m1w.insert(v)
    for v in eu.subspace().basis:
        for i in range(n):
            m1w.insert(space.lam_apply(i, v))
    # conjugating by J preserves dimension, so rank(N' xi) = rank(M_1 J xi)
    rank_nprime_xi = m1w.dim
    if rank_n_xi == 0:
        raise InputError("xi degenerate")
    return Fraction(rank_nprime_xi, rank_n_xi)


def _center_dim_in(space: GnsSpace, S: Subspace) -> int:
    comm = relative_commutant(S, space.base)
    return comm.intersect(S).dim


# -- Markov property ------------------------------------------------------------


def markov_check(bc: BasicConstruction) -> Report:
    """tau_1(e_N lam(x)) = tau(x) / [M:N], exactly, for every basis x."""
    rep = Report("markov property")
    space = bc.space
    n = space.dim
    lam_matrices = [space.lam_basis(i) for i in range(n)]
    idx = Scalar.rational(bc.index.numerator, bc.index.denominator)
    witness = None
    for i in range(n):
        lhs = bc.trace1(mat_mul(bc.e_N, lam_matrices[i]))
        rhs = space.base.apply_state(unit_vec(n, i)) / idx
        if lhs != rhs:
            witness = i
            break
    rep.add("markov_identity", witness is None, witness)
    return rep


# -- bimodule endomorphisms -------------------------------------------------------


def bimodule_endos(M: StarAlgebra, n_left: Subspace,
                   n_right: Subspace) -> Subspace:
    """{phi in End(M) : phi(n x n') = n phi(x) n'}, flattened.

    Bimodularity is commutation with left multiplications by n_left and
    right multiplications by n_right, so this is one operator commutant.
    """
    gens = [M.left_mult_matrix(b) for b in n_left.basis]
    gens += [M.right_mult_matrix(b) for b in n_right.basis]
    mats = matrix_commutant(gens, M.dim)
    return Subspace.from_vectors(
        [flatten_matrix(X) for X in mats], M.dim * M.dim
    )


def bimodule_endos_report(bc: BasicConstruction) -> Report:
    """dim End(N M N) = dim(N' cap M_1), with the identity intertwiner.

    On L^2 the underlying spaces of M and L^2(M) coincide, so a bimodule
    endomorphism already is an operator; the certificate checks it lands in
    N' cap M_1 and that the dimensions match.  M_1 and N' are the ones the
    basic construction already certified.
    """
    rep = Report("bimodule endomorphisms")
    endos = bimodule_endos(bc.space.base, bc.subalgebra, bc.subalgebra)
    inter = bc.n_commutant.intersect(bc.m1)
    rep.add("dimension_matches", endos.dim == inter.dim,
            witness={"endos": endos.dim, "n_comm_cap_m1": inter.dim})
    rep.add("extension_lands_in_intersection",
            all(inter.contains(v) for v in endos.basis))
    rep.add("intersection_consists_of_bimodule_maps",
            all(endos.contains(v) for v in inter.basis))
    return rep

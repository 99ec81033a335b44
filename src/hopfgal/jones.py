"""GNS representation, Jones projection, basic construction, exact index.

The base algebra M with its faithful tracial state tau is represented on
L^2(M, tau) = the coordinate space of M with inner product <x, y> =
tau(y* x).  On it live the left regular representation lam, the canonical
conjugation J (x -> x*), the Jones projection e_N onto a subalgebra, the
basic construction M_1 = alg(M, e_N) = J N' J, and the coupling-constant
index.  Every operator on L^2 is a sparse operator of linalg (dict row ->
dict column -> Scalar), so products and span pushes cost their nonzeros.

Traces of factor subalgebras of End(L^2) collapse to the normalized ambient
trace (uniqueness of the tracial state on a factor), which is what makes the
index an exact rational: the coupling constant becomes a ratio of ranks.

Commutants in End(L^2) come from three facts, not from n^2 unknowns
against every basis operator.  (a) X commutes with a set iff it commutes
with the unital algebra the set generates, so lam or rho of a generating
set is enough (GnsSpace.generators): for N', the bimodule maps, the
generated M_1 and the outer half of the double commutant.  (b) An X that
commutes with lam(M) is rho(b) for b = X 1, so {lam(M), e_N}' is a kernel
in the n coordinates of b (GnsSpace.e_commutant), shared by the double
commutant and the center of M_1.  (c) Rank sandwich: once a subspace S of
a kernel is checked exactly, elimination may stop at rank n^2 - dim S
(jmj_is_commutant).

(b) rests on lam(M)' = rho(M), so jmj_equals_commutant keeps its own
route: every lam_i in End(L^2), with the stop of (c).  The three routes to
M_1 stay apart (m1_span keeps every lam_i, and N' comes from lam(N), never
from J M_1 J), and so do the two sides of double_commutant_identity: the
left from e_N through (b), the right from lam(N).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain

from .algebra import (
    StarAlgebra,
    conditional_expectation,
    generating_set,
    gram_matrix,
    is_unital_star_subalgebra,
    relative_commutant,
    state_flags,
)
from .errors import ConsistencyError, InputError
from .linalg import (
    Subspace,
    commuting_kernel,
    kernel_of,
    matrix_commutant,
    nonzero,
    op_adjoint,
    op_flat,
    op_from_entries,
    op_inverse,
    op_mul,
    op_span,
    op_sparse,
    op_trace,
    op_transpose,
    op_unflat,
    op_vec,
    operator_algebra_span,
    projection,
    span_of,
    sparse,
    sparse_comb,
    sparse_conj,
    sparse_ne,
)
from .report import Report
from .scalars import Scalar


@dataclass
class GnsSpace:
    """L^2(M, tau), with the Gram operator of tau and its inverse."""

    base: StarAlgebra
    gram: dict
    gram_inv: dict
    report: Report

    def __post_init__(self):
        self._lam_cache: dict[int, dict] = {}
        self._memos: dict = {}

    @property
    def dim(self) -> int:
        return self.base.dim

    def lam_basis(self, i: int) -> dict:
        if i not in self._lam_cache:
            self._lam_cache[i] = self.base.left_mult_op({i: Scalar.one()})
        return self._lam_cache[i]

    @cached_property
    def _star_ops(self) -> tuple[dict, dict]:
        S = op_sparse(self.base.star)
        return S, op_adjoint(S)

    def jmat(self, X: dict) -> dict:
        """J X J as a linear operator.

        J e_i is the star row S[i], so column i of J X J is J(X S[i]),
        whose entry t is the sum of conj(X[k][j] S[i][j]) S[k][t].
        """
        S, S_adj = self._star_ops
        return op_from_entries(
            (t, i, x.conj() * a * s)
            for k, row in X.items() for j, x in row.items()
            for i, a in S_adj.get(j, {}).items()
            for t, s in S.get(k, {}).items())

    def _memo(self, what: str, S: Subspace, make):
        """make(), computed once per (what, S)."""
        key = what, tuple(tuple(v.items()) for v in S.vectors)
        if key not in self._memos:
            self._memos[key] = make()
        return self._memos[key]

    def projection(self, W: Subspace) -> dict:
        """The orthogonal projection onto W; computed once per W."""
        return self._memo("projection", W,
                          lambda: orthogonal_projection(self.gram, W))

    def generators(self, S: Subspace) -> list[dict]:
        """A generating set of the unital subalgebra S; chosen once per S."""
        return self._memo("generators", S,
                          lambda: generating_set(S, self.base))

    def e_commutant(self, N: Subspace) -> Subspace:
        """The b with rho(b) in {lam(M), e_N}'; computed once per N.

        An X that commutes with every lam(a) is rho(b) for b = X 1, since
        X a = X lam(a) 1 = lam(a) X 1 = a b.  So the commutant is
        {rho(b) : rho(b) e_N = e_N rho(b)}, the commuting kernel of the
        rho(e_c) against e_N.  rho is injective and rho(b) rho(b') =
        rho(b' b), so the b form a unital subalgebra of M.
        """
        def make():
            one = Scalar.one()
            rhos = [self.base.right_mult_op({c: one})
                    for c in range(self.dim)]
            return commuting_kernel(rhos, [self.projection(N)])
        return self._memo("e_commutant", N, make)

    def n_commutant(self, N: Subspace) -> tuple[Subspace, Subspace]:
        """N' and J N' J in End(L^2), flattened; computed once per N from
        lam of a generating set of N."""
        def make():
            n = self.dim
            comm = matrix_commutant(
                [self.base.left_mult_op(g) for g in self.generators(N)], n)
            return comm, op_span((self.jmat(op_unflat(v, n))
                                  for v in comm.vectors), n)
        return self._memo("n_commutant", N, make)

    def adjoint(self, X: dict) -> dict:
        """Gram adjoint: <X x, y> = <x, X^dagger y>."""
        return op_mul(self.gram_inv, op_mul(op_adjoint(X), self.gram))


def gns(M: StarAlgebra, certify: bool = True) -> GnsSpace:
    """GNS space of (M, tau); tau must be tracial and exactly nondegenerate."""
    if M.state is None:
        raise InputError("gns needs a state")
    if not all(state_flags(M, M.state)):
        raise InputError("gns needs a tracial hermitian state")
    G = gram_matrix(M)
    G_inv = op_inverse(G, M.dim)
    if G_inv is None:
        raise InputError("degenerate Gram matrix")
    rep = Report("gns")
    space = GnsSpace(M, G, G_inv, rep)
    if certify:
        _certify_gns(space)
    return space


def _certify_gns(space: GnsSpace):
    M, G, rep = space.base, space.gram, space.report
    n = M.dim
    rep.add("gram_hermitian", G == op_adjoint(G))
    rep.add("gram_nonsingular", True)  # checked in gns()

    lams = [space.lam_basis(i) for i in range(n)]
    star = [sparse(row) for row in M.star]
    rep.add("left_regular_star_representation", all(
        space.adjoint(lams[i]) == M.left_mult_op(star[i]) for i in range(n)))
    rep.add("conjugation_involutive", not any(
        sparse_ne(M.star_vec(star[i]), {i: Scalar.one()}) for i in range(n)))
    rep.add("jmj_equals_commutant", jmj_is_commutant(space, lams))


def jmj_is_commutant(space: GnsSpace, ops: list[dict]) -> bool:
    """span{J X J : X in ops} = {ops}' in End(L^2), decided exactly.

    Every J X J is first checked to commute with every X.  Then the rows
    of {ops}' stop once the kernel has fallen to dim span{J X J} (rank
    sandwich): the kernel then contains {ops}', which contains the span,
    so the two are equal exactly when the stop is reached.  Without the
    first check the stop can land on a span that is not inside {ops}'.
    """
    n = space.dim
    jmjs = [space.jmat(X) for X in ops]
    if any(op_mul(Y, X) != op_mul(X, Y) for Y in jmjs for X in ops):
        return False
    jmj = op_span(jmjs, n)
    return jmj == matrix_commutant(ops, n, known_dim=jmj.dim)


# -- Jones projection ----------------------------------------------------------


def orthogonal_projection(G: dict, W: Subspace) -> dict:
    """The orthogonal projection onto a subspace W for the Gram operator G.

    With the basis b_i of W as the rows of B and C[i][t] = <e_t, b_i>,
    this is linalg.projection: e_W = B^T (C B^T)^-1 C, where C B^T is the
    Gram matrix of the basis.
    """
    B = dict(enumerate(W.vectors))
    if not B:
        return {}
    C = op_transpose(op_mul(G, op_adjoint(B)))
    P = projection(B, C, W.dim)
    if P is None:
        raise InputError("degenerate restriction")
    return P


def jones_projection(space: GnsSpace, N: Subspace) -> tuple[dict, Report]:
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
    e = space.projection(N)
    columns = op_transpose(e)
    rep = Report("jones projection")
    rep.add("idempotent", op_mul(e, e) == e)
    rep.add("self_adjoint", space.adjoint(e) == e)
    rep.add("image_is_subalgebra_closure",
            span_of(columns.values(), n) == N)

    # column i of E is E(e_i)
    expectation = op_transpose(conditional_expectation(M, N))
    lams = [space.lam_basis(i) for i in range(n)]
    compresses = all(op_mul(e, op_mul(lams[i], e))
                     == op_mul(M.left_mult_op(expectation.get(i, {})), e)
                     for i in range(n))
    rep.add("compresses_to_expectation", compresses,
            note="operator form e lam(x) e = lam(E(x)) e")

    # the coefficient of e_i in x is x_i, so x lies in the kernel exactly
    # when lam(x) commutes with e
    rep.add("commutation_characterizes_subalgebra",
            commuting_kernel(lams, [e]) == N)

    # J e_i is the star row S[i]: J (e e_i) = e (J e_i) on every basis vector
    S = [sparse(row) for row in M.star]
    rep.add("commutes_with_conjugation", all(
        not sparse_ne(sparse_comb(S, sparse_conj(columns.get(i, {}))),
                      op_vec(e, S[i]))
        for i in range(n)))

    # {lam(M), e_N}' = rho(K), whose commutant is that of rho of a
    # generating set of K
    K = space.e_commutant(N)
    double_comm = matrix_commutant(
        [M.right_mult_op(g) for g in space.generators(K)], n)
    _, rhs = space.n_commutant(N)
    rep.add("double_commutant_identity", double_comm == rhs,
            note="alg(M, e_N)'' = J N' J; conjugation by J turns this"
                 " into the commutant-of-N form")
    return e, rep


# -- basic construction ----------------------------------------------------------


@dataclass
class BasicConstruction:
    space: GnsSpace
    subalgebra: Subspace
    e_N: dict
    m1: Subspace              # of End(L^2), flattened
    n_commutant: Subspace     # N' in End(L^2), flattened
    index: Fraction
    report: Report = field(default_factory=lambda: Report("basic construction"))
    markov: Report | None = None

    def trace1(self, X: dict) -> Scalar:
        """tau_1 = the normalized ambient trace restricted to M_1."""
        return op_trace(X) * Scalar.rational(1, self.space.dim)


def m1_span(space: GnsSpace, e: dict) -> Subspace:
    """span{lam(a) e_N lam(b)} + lam(M), flattened inside End(L^2)."""
    n = space.dim
    lams = [space.lam_basis(i) for i in range(n)]
    lefts = [op_mul(lam, e) for lam in lams]
    products = (op_mul(left, lam) for left in lefts for lam in lams)
    return op_span(chain(products, lams), n)


def basic_construction(space: GnsSpace, N: Subspace) -> BasicConstruction:
    """M_1 computed three ways and certified equal, with tau_1 and the index."""
    n = space.dim
    e, e_rep = jones_projection(space, N)
    rep = Report("basic construction")
    rep.merge(e_rep, prefix="e_N:")

    gens = [space.base.left_mult_op(g)
            for g in space.generators(Subspace.full(n))]
    generated = operator_algebra_span(gens + [e], n)
    spanned = m1_span(space, e)
    n_comm_span, conjugated = space.n_commutant(N)
    if not (generated == spanned == conjugated):
        raise ConsistencyError(
            "the three computations of M_1 disagree: "
            f"alg {generated.dim}, span {spanned.dim}, JN'J {conjugated.dim}"
        )
    rep.add("m1_three_ways_agree", True,
            note="alg(M, e_N) = span{a e_N b} + M = J N' J")

    # tau_1 is the unique trace on the factor M_1.  M_1 is the algebra that
    # lam(M) and e_N generate, so its commutant is rho(K) for their
    # commutant K; the center is the part of rho(K) inside M_1, where the
    # residues modulo M_1 of a combination of the rho(b) cancel
    rho_k = (space.base.right_mult_op(b)
             for b in space.e_commutant(N).vectors)
    residues = [generated.residue(op_flat(X, n)) for X in rho_k]
    center = kernel_of(((f, k, x) for k, r in enumerate(residues)
                        for f, x in r.items()), len(residues))
    if center.dim != 1:
        raise InputError("not a factor")
    rep.add("m1_factor", True)

    idx = index(space, N)
    bc = BasicConstruction(space, N, e, generated, n_comm_span, idx, rep)
    bc.markov = markov_check(bc)
    rep.add("markov", bc.markov.ok)
    return bc


# -- index -------------------------------------------------------------------------


def index(space: GnsSpace, N: Subspace, xi: dict | None = None) -> Fraction:
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
        xi = sparse(M.unit)
    if not any(xi.values()):
        raise InputError("xi degenerate")

    e = space.projection(N)
    value = _coupling(space, N, e, xi)

    # a consistency guard: three random xi must give the same value
    rng = random.Random(20290)
    for _ in range(3):
        rand_xi = sparse([Scalar.from_int(rng.randint(-3, 3))
                          for _ in range(n)])
        if not rand_xi:
            rand_xi = sparse(M.unit)
        if _coupling(space, N, e, rand_xi) != value:
            raise ConsistencyError("coupling constant depends on xi")
    return value


def _coupling(space: GnsSpace, N: Subspace, e: dict, xi: dict) -> Fraction:
    n = space.dim
    # [N xi]: rank of the orbit span
    rank_n_xi = span_of((space.base.mul_vec(b, xi) for b in N.vectors),
                        n).dim

    # [N' xi] with N' = J M_1 J and M_1 = span{lam(a) e lam(b)} + lam(M):
    # N' xi = J(M_1 (J xi))
    w = nonzero(space.base.star_vec(xi))  # J xi = xi*
    lams = [space.lam_basis(i) for i in range(n)]
    lam_w = [op_vec(lam, w) for lam in lams]
    eu = span_of((op_vec(e, v) for v in span_of(lam_w, n).vectors), n)
    m1w = chain(lam_w, (op_vec(lam, v) for v in eu.vectors for lam in lams))
    # conjugating by J preserves dimension, so rank(N' xi) = rank(M_1 J xi)
    rank_nprime_xi = span_of(m1w, n).dim
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
    idx = Scalar.rational(bc.index.numerator, bc.index.denominator)
    rep.law("markov_identity", (
        i for i in range(n)
        if bc.trace1(op_mul(bc.e_N, space.lam_basis(i)))
        != space.base.state[i] / idx))
    return rep


# -- bimodule endomorphisms -------------------------------------------------------


def bimodule_endos(M: StarAlgebra, n_left: Subspace,
                   n_right: Subspace) -> Subspace:
    """{phi in End(M) : phi(n x n') = n phi(x) n'}, flattened.

    Bimodularity is commutation with left multiplications by n_left and
    right multiplications by n_right, so this is one operator commutant,
    and generating sets of the two sides are enough.
    """
    gens = [M.left_mult_op(g) for g in generating_set(n_left, M)]
    gens += [M.right_mult_op(g) for g in generating_set(n_right, M)]
    return matrix_commutant(gens, M.dim)


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
    rep.add("extension_lands_in_intersection", inter.contains_subspace(endos))
    rep.add("intersection_consists_of_bimodule_maps",
            endos.contains_subspace(inter))
    return rep

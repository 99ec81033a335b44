"""Finite-dimensional unital *-algebras given by structure constants.

A StarAlgebra stores the multiplication as a rank-3 tensor in sparse form
(mult[i][j] maps an output index k to the coefficient of e_k in e_i e_j),
the unit as a coordinate vector, the involution as a matrix St with
(sum x_i e_i)* = sum_{i,j} conj(x_i) St[i][j] e_j, and optionally a state.

Subalgebras are Subspaces of the ambient coordinate space; a reify helper
extracts standalone structure constants when an honest algebra object is
needed (commutant and invariant computations live most naturally in the
ambient coordinates).

validate_algebra and the left and right multiplication matrices read the
sparse mult tensor directly, with no unit vectors and no mul_vec.  The
vector methods (mul_vec, star_vec, apply_state) take sparse vectors,
skipping a zero entry as a missing one, and evaluate through linalg's
sparse helpers (sparse_apply, sparse_comb, dot), which alone decide how a
table acts on a vector; an entry of a result whose terms cancel is kept,
as a zero of their order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .errors import InputError
from .linalg import (
    Mat,
    SpanBuilder,
    Subspace,
    Vec,
    conjugate_linear,
    dense_row,
    dot,
    is_nonsingular,
    kernel_of,
    kron,
    nonzero,
    normalized,
    op_from_entries,
    op_mul,
    projection,
    sparse,
    sparse_add,
    sparse_apply,
    sparse_comb,
    sparse_conj,
    sparse_ne,
)
from .report import Report
from .scalars import Scalar, common_order

POSITIVITY_TOL = 1e-9


@dataclass
class AlgebraState:
    """A normalized functional with its verdict flags."""

    functional: Vec
    tracial: bool = False
    hermitian: bool = False
    faithful: bool = False          # exact: Gram matrix nonsingular
    positive: bool | None = None    # numerical verdict at the embedding


class StarAlgebra:
    """Associative unital *-algebra by structure constants."""

    def __init__(self, dim: int, mult, unit: Vec, star: Mat,
                 state: Vec | None = None, name: str = ""):
        self.dim = dim
        self.mult = mult            # list[list[dict[int, Scalar]]]
        self.unit = unit
        self.star = star
        self.state = state
        self.name = name
        if len(mult) != dim or any(len(r) != dim for r in mult):
            raise InputError("multiplication tensor shape mismatch")
        if len(unit) != dim or len(star) != dim:
            raise InputError("unit or star shape mismatch")
        if state is not None and len(state) != dim:
            raise InputError("state shape mismatch")

    # -- basic operations -------------------------------------------------

    def order(self) -> int:
        orders = [x.order for x in self.unit]
        for plane in self.mult:
            for line in plane:
                orders.extend(v.order for v in line.values())
        return common_order(*orders) if orders else 1

    def mul_vec(self, x: dict, y: dict) -> dict:
        return sparse_apply(self.mult, nonzero(x), nonzero(y))

    @conjugate_linear
    def star_vec(self, x: dict) -> dict:
        x = nonzero(x)
        rows = {i: sparse(self.star[i]) for i in x}
        return sparse_comb(rows, sparse_conj(x))

    def left_mult_op(self, x: dict) -> dict:
        """Sparse operator of y -> x y for a sparse x."""
        return op_from_entries((k, j, xi * m) for i, xi in x.items()
                               for j, line in enumerate(self.mult[i])
                               for k, m in line.items())

    def right_mult_op(self, x: dict) -> dict:
        """Sparse operator of y -> y x for a sparse x."""
        return op_from_entries((k, j, xi * m) for i, xi in x.items()
                               for j in range(self.dim)
                               for k, m in self.mult[j][i].items())

    def apply_state(self, x: dict) -> Scalar:
        if self.state is None:
            raise InputError("algebra carries no state")
        return dot(nonzero(x), self.state)

    def is_commutative(self) -> bool:
        for i in range(self.dim):
            for j in range(i):
                if self.mult[i][j] != self.mult[j][i]:
                    return False
        return True

    def to_json(self):
        return {
            "dim": self.dim,
            "mult": [
                [[v.to_json() for v in dense_row(line, self.dim)]
                 for line in plane]
                for plane in self.mult
            ],
            "unit": [x.to_json() for x in self.unit],
            "star": [[x.to_json() for x in row] for row in self.star],
            "state": None if self.state is None
            else [x.to_json() for x in self.state],
        }


def tensor_algebra(A: StarAlgebra, B: StarAlgebra,
                   name: str = "") -> StarAlgebra:
    """A (x) B with basis e_i (x) f_j at index i*dimB + j."""
    da, db = A.dim, B.dim
    dim = da * db
    mult = [[kron(A.mult[i1][i2], B.mult[j1][j2], db)
             for i2 in range(da) for j2 in range(db)]
            for i1 in range(da) for j1 in range(db)]

    def square(x: Vec, y: Vec) -> Vec:
        return dense_row(kron(sparse(x), sparse(y), db), dim)

    unit = square(A.unit, B.unit)
    star = [square(sa, sb) for sa in A.star for sb in B.star]
    state = None
    if A.state is not None and B.state is not None:
        state = square(A.state, B.state)
    return StarAlgebra(dim, mult, unit, star, state,
                       name=name or f"{A.name}(x){B.name}")


# -- state analysis ----------------------------------------------------------


def gram_matrix(A: StarAlgebra, functional: Vec | None = None) -> dict:
    """The Gram operator {i: {j: tau(e_j^* e_i)}} of the given functional
    (default: the state)."""
    tau = functional if functional is not None else A.state
    if tau is None:
        raise InputError("no state supplied")
    n = A.dim
    star = [sparse(row) for row in A.star]
    return op_from_entries((i, j, dot(_compose(A, star[j], i, right=True),
                                      tau))
                           for i in range(n) for j in range(n))


def numerically_positive(G: dict, n: int,
                         tol: float = POSITIVITY_TOL) -> bool:
    """Positivity of a Hermitian Gram operator on k^n at the float
    embedding.

    This is the one deliberately non-exact verdict in the package.
    """
    M = np.zeros((n, n), dtype=complex)
    for i, row in G.items():
        for j, x in row.items():
            M[i, j] = x.embed()
    M = (M + M.conj().T) / 2
    eigs = np.linalg.eigvalsh(M)
    return bool(eigs.min() > -tol)


def state_flags(A: StarAlgebra, tau: Vec) -> tuple[bool, bool]:
    """(hermitian, tracial) for the functional tau on A, both exact."""
    n = A.dim
    hermitian = all(dot(sparse(A.star[i]), tau) == tau[i].conj()
                    for i in range(n))
    tracial = all(dot(A.mult[i][j], tau) == dot(A.mult[j][i], tau)
                  for i in range(n) for j in range(i + 1))
    return hermitian, tracial


def analyze_state(A: StarAlgebra, functional: Vec | None = None) -> AlgebraState:
    tau = functional if functional is not None else A.state
    if tau is None:
        raise InputError("no state supplied")
    hermitian, tracial = state_flags(A, tau)
    G = gram_matrix(A, tau)
    return AlgebraState(
        functional=tau,
        tracial=tracial,
        hermitian=hermitian,
        faithful=is_nonsingular(G.values(), A.dim),
        positive=numerically_positive(G, A.dim),
    )


# -- validation ---------------------------------------------------------------


def validate_algebra(A: StarAlgebra) -> Report:
    """Axiom-by-axiom check with a witness basis tuple on first failure.

    Both sides of each identity are sparse dicts built from the mult
    tensor and the rows of the involution.

    Associativity is Light's test (Clifford and Preston, The Algebraic
    Theory of Semigroups I, 1961, section 1.2).  The middle nucleus
    N = {a : (x a) y = x (a y) for all x, y} is a subspace, and it is
    closed under products whether or not A is associative: for a, b in N,
    (x (a b)) y = ((x a) b) y = (x a)(b y) = x (a (b y)) = x ((a b) y).
    So when the unit and a generating set, whose right-normed words span
    A, lie in N, all of A does, at n^2 cases per generator.  A unit that
    passes the unit law is in N, as (x 1) y = x y = x (1 y), and is
    checked only when it fails.  The n^3 basis triples are scanned only
    when Light's test fails, or when it would check as many cases; the
    witness is the first failing triple of that scan.  Once A is
    associative, the x with (x y)* = y* x* for every y also form a
    subspace closed under products, so the unit and the same generators
    settle star_antimultiplicative.  The generators are found afresh on
    every call: the tables of A may have changed since the last one.
    """
    rep = Report(f"algebra {A.name}".strip())
    n = A.dim
    one = Scalar.one()
    unit = sparse(A.unit)

    unit_failures = list(islice((
        j for j in range(n)
        if sparse_ne(_compose(A, unit, j, right=True), {j: one})
        or sparse_ne(_compose(A, unit, j, right=False), {j: one})), 1))
    gens = generating_set(Subspace.full(n), A)
    middles = [unit, *gens] if unit_failures else gens
    light = len(middles) < n and not any(associator_failures(A, middles))
    rep.law("associativity", () if light else associator_failures(A))
    rep.law("unit", unit_failures)
    star = [sparse(row) for row in A.star]
    rep.law("star_involutive", involution_failures(star))
    rep.law("star_antimultiplicative", (
        () if light and not any(antimultiplicative_failures(
            A, star, [unit, *gens]))
        else antimultiplicative_failures(A, star)))

    if A.state is not None:
        st = analyze_state(A)
        rep.add("state_normalized", A.apply_state(unit) == Scalar.one())
        rep.add("state_hermitian", st.hermitian)
        rep.add("state_tracial", st.tracial)
        rep.add("state_faithful_exact", st.faithful)
        rep.add("state_positive_numerical", bool(st.positive),
                note=f"float verdict at tolerance {POSITIVITY_TOL}")
    return rep


def associator_failures(A: StarAlgebra, middles: list | None = None):
    """The (i, j, k), in order, where (e_i m_j) e_k != e_i (m_j e_k), for
    the sparse vectors m_j of middles, by default the basis."""
    n, mult = A.dim, A.mult
    if middles is None:
        lefts = [[mult[i][j] for i in range(n)] for j in range(n)]
        rights = mult
    else:
        lefts = [[_compose(A, m, i, right=False) for i in range(n)]
                 for m in middles]
        rights = [[_compose(A, m, k, right=True) for k in range(n)]
                  for m in middles]
    return ((i, j, k) for i in range(n) for j in range(len(lefts))
            for k in range(n)
            if sparse_ne(_compose(A, lefts[j][i], k, right=True),
                         _compose(A, rights[j][k], i, right=False)))


def antimultiplicative_failures(A: StarAlgebra, star: list,
                                xs: list | None = None):
    """The (i, j), in order, where (x_i e_j)* != e_j* x_i*, for the sparse
    vectors x_i of xs, by default the basis; star holds the sparse rows
    of the involution."""
    n, mult = A.dim, A.mult
    if xs is None:
        products, stars = mult, star
    else:
        products = [[_compose(A, x, j, right=True) for j in range(n)]
                    for x in xs]
        stars = [sparse_comb(star, sparse_conj(x)) for x in xs]
    return ((i, j) for i, row in enumerate(products) for j in range(n)
            if sparse_ne(sparse_comb(star, sparse_conj(row[j])),
                         sparse_apply(mult, star[j], stars[i])))


def involution_failures(rows: list):
    """The i, in order, where the conjugate-linear map with sparse rows
    rows does not square to the identity."""
    one = Scalar.one()
    return (i for i, row in enumerate(rows)
            if sparse_ne(sparse_comb(rows, sparse_conj(row)), {i: one}))


def is_bimodular(A: StarAlgebra, T: dict, elements) -> bool:
    """The sparse operator T commutes with left and with right
    multiplication by each sparse element: T is a bimodule map over the
    subalgebra they generate."""
    return all(op_mul(T, X) == op_mul(X, T) for z in elements
               for X in (A.left_mult_op(z), A.right_mult_op(z)))


def _compose(A: StarAlgebra, x: dict, idx: int, right: bool) -> dict:
    # right=True: x e_idx ; right=False: e_idx x
    out: dict = {}
    for k, v in x.items():
        sparse_add(out, A.mult[k][idx] if right else A.mult[idx][k], v)
    return out


# -- subalgebra machinery -----------------------------------------------------


def relative_commutant(S: Subspace, B: StarAlgebra) -> Subspace:
    """{x in B : x s = s x for every s in a basis of S}, one exact nullspace."""
    if S.ambient_dim != B.dim:
        raise InputError("subspace does not live in the algebra")

    def entries():
        for g, s in enumerate(S.vectors):
            for j, sj in s.items():
                for i in range(B.dim):
                    # (e_i s - s e_i)_k
                    for k, m in B.mult[i][j].items():
                        yield (g, k), i, sj * m
                    for k, m in B.mult[j][i].items():
                        yield (g, k), i, -(sj * m)
    return kernel_of(entries(), B.dim)


def center(B: StarAlgebra) -> Subspace:
    return relative_commutant(Subspace.full(B.dim), B)


def generated_subalgebra(gens: list[dict], B: StarAlgebra) -> Subspace:
    """Smallest unital, *-closed, multiplicatively closed subspace over gens.

    The letters are the generators and their stars.  The span of the unit
    and the letters is closed (SpanBuilder.close) under left
    multiplication by the letters alone, which reaches every right-normed
    word s_1 (s_2 (... s_k)).  B is associative, so these are all the
    words, and the star of a word is again a word, so the span is
    *-closed.  A letter already in the span of the unit and earlier letters
    adds nothing and is dropped.
    """
    builder = SpanBuilder(B.dim)
    builder.insert(B.unit)
    letters = [v for g in gens for v in (g, B.star_vec(g))
               if builder.insert(v)]
    builder.close(list(letters), [partial(B.mul_vec, s) for s in letters])
    return builder.subspace()


def generating_set(S: Subspace, B: StarAlgebra) -> list[dict]:
    """Basis vectors of S, as sparse vectors, that generate S as a unital
    algebra.

    Greedy: a basis vector g outside the algebra generated so far becomes
    a generator.  g and g w, for every word w kept before, enter the span,
    which is then closed (SpanBuilder.close) under left multiplication by
    every generator so far.  What the closure certifies holds for any
    bilinear product, associative or not: the words it keeps span S, and
    each is the unit, a generator, or g w for a generator g and a word w
    kept before (a right-normed word).  In an associative algebra the
    right-normed words are all the words, and an operator commutes with a
    set exactly when it commutes with the unital algebra the set
    generates, so a commutant needs only these.  Raises InputError when
    the closure leaves S, i.e. when S is not a unital subalgebra.
    """
    builder = SpanBuilder(B.dim)
    words: list[dict] = []
    gens: list[dict] = []

    def grow(seeds: list, ops: list):
        fresh = [w for w in seeds if builder.insert(w)]
        new = fresh + builder.close(list(fresh), ops)
        if not all(S.contains(w) for w in new):
            raise InputError("the generated algebra leaves the subspace")
        words.extend(new)

    grow([sparse(B.unit)], [])
    for g in S.vectors:
        if builder.contains(g):
            continue
        gens.append(g)
        grow([g] + [sparse_apply(B.mult, g, w) for w in words],
             [partial(sparse_apply, B.mult, h) for h in gens])
    return gens


def is_unital_star_subalgebra(S: Subspace, B: StarAlgebra) -> bool:
    basis = S.vectors
    return (S.contains(B.unit)
            and all(S.contains(B.star_vec(v)) for v in basis)
            and all(S.contains(B.mul_vec(v, w)) for v in basis for w in basis))


# -- conditional expectation --------------------------------------------------


def conditional_expectation(M: StarAlgebra, N: Subspace) -> dict:
    """The tau-preserving conditional expectation onto N, as an operator.

    E is the orthogonal projection onto N for <x, y> = tau(y* x), restricted
    to M.  Requires a state on M; N must be a unital *-subalgebra and the
    Gram matrix of tau on N must be exactly nonsingular.  With the basis b_i
    of N as the rows of B and F[i][x] = <e_x, b_i> = tau(b_i* e_x), this is
    linalg.projection: E = B^T (F B^T)^-1 F, where (F B^T)[i][j] =
    <b_j, b_i> is the Gram matrix of the basis.  F is read from the mult
    tensor and the state, not from a GNS space.
    """
    if M.state is None:
        raise InputError("conditional expectation needs a state")
    if not is_unital_star_subalgebra(N, M):
        raise InputError("not a subalgebra")
    tau, n = M.state, M.dim
    star = [sparse(row) for row in M.star]
    # tau(e_p e_x) as sparse rows p
    products = [{x: t for x in range(n) if (t := dot(M.mult[p][x], tau))}
                for p in range(n)]
    F = op_from_entries(
        (i, x, v) for i, b in enumerate(N.vectors)
        for x, v in sparse_comb(products,
                                sparse_comb(star, sparse_conj(b))).items())
    E = projection(dict(enumerate(N.vectors)), F, N.dim)
    if E is None:
        raise InputError("degenerate form")
    return E


# -- reification and canonical traces ------------------------------------------


def reify(B: StarAlgebra, S: Subspace,
          name: str = "") -> tuple[StarAlgebra, list[dict]]:
    """Standalone structure constants for a unital *-subalgebra.

    Returns (algebra on the subspace basis, the inclusion: the basis
    vectors in ambient coordinates, as sparse vectors).
    """
    if not is_unital_star_subalgebra(S, B):
        raise InputError("not a subalgebra")
    basis = S.vectors
    mult = [[sparse(S.coordinates(B.mul_vec(x, y))) for y in basis]
            for x in basis]
    unit = S.coordinates(B.unit)
    star = [S.coordinates(B.star_vec(x)) for x in basis]
    state = None
    if B.state is not None:
        state = [B.apply_state(x) for x in basis]
    return StarAlgebra(S.dim, mult, unit, star, state, name=name), basis


def unique_trace(B: StarAlgebra) -> Vec:
    """The unique normalized tracial functional, when it is unique.

    The traces form the kernel K of tau(xy) - tau(yx).  When some trace
    has tau(1) != 0 the normalized ones, tau(1) = 1, are an affine
    subspace of dimension dim K - 1, so they are a single point exactly
    when dim K = 1; raises otherwise.
    """

    def entries():
        # tau(e_i e_j - e_j e_i) = 0 for j < i
        for i in range(B.dim):
            for j in range(i):
                for k, v in B.mult[i][j].items():
                    yield (i, j), k, v
                for k, v in B.mult[j][i].items():
                    yield (i, j), k, -v
    space = kernel_of(entries(), B.dim)
    for t in space.vectors:
        tau = normalized(t, B.unit, B.dim)
        if tau is not None:
            break
    else:
        raise InputError("no normalized trace exists")
    if space.dim > 1:
        raise InputError("trace is not unique (algebra is not a factor)")
    return tau

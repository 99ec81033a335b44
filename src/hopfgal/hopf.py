"""Finite-dimensional Hopf *-algebras, their duals, variants and pairings.

A HopfStarAlgebra is a StarAlgebra that also holds Delta, epsilon and S.
Its coalgebra is the view HopfCoalgebra, whose involution is x -> S(x)*,
built on each access of `coalgebra` and never stored.

Comultiplication is stored sparsely: comult[i] maps a pair (j, k) to the
coefficient of e_j (x) e_k in Delta(e_i).  The dual of a finite-dimensional
Hopf *-algebra is again one, with multiplication the transpose of Delta and
comultiplication the transpose of multiplication; the involution on the dual
is fixed by <phi*, h> = conj(<phi, S(h)*>), the standard convention for dual
pairs of Hopf *-algebras (the one convention in this module that is not
forced by the axioms; validate_pairing records it in its report).
"""

from __future__ import annotations

from heapq import merge
from itertools import product

from .algebra import (
    StarAlgebra,
    involution_failures,
    validate_algebra,
)
from .errors import InputError
from .linalg import (
    Mat,
    Vec,
    collect,
    conjugate_linear,
    dense_row,
    dot,
    identity_matrix,
    fixed_space,
    is_nonsingular,
    nonzero,
    normalized,
    op_dense,
    op_from_entries,
    op_inverse,
    op_mul,
    op_sparse,
    op_transpose,
    sparse,
    sparse_add,
    sparse_apply,
    sparse_comb,
    sparse_conj,
    sparse_ne,
    transpose,
    unit_vec,
)
from .report import Report
from .scalars import Scalar

PAIRING_STAR_NOTE = (
    "star law uses the convention <q*, h> = conj(<q, S(h)*>)"
)


class StarCoalgebra:
    """Coassociative counital coalgebra with a *-structure.

    The vector methods take sparse vectors and skip a zero entry as a
    missing one.
    """

    def __init__(self, dim: int, comult, counit: Vec, star: Mat):
        self.dim = dim
        self.comult = comult        # list[dict[(j, k), Scalar]]
        self.counit = counit
        self.star = star
        if len(comult) != dim or len(counit) != dim or len(star) != dim:
            raise InputError("coalgebra tensor shape mismatch")

    def comult_vec(self, x: dict) -> dict:
        """Delta(x) as a sparse dict (j, k) -> Scalar."""
        return nonzero(sparse_comb(self.comult, nonzero(x)))

    def counit_of(self, x: dict) -> Scalar:
        return dot(nonzero(x), self.counit)

    def star_row(self, i: int) -> dict:
        """The involution of the basis vector e_i, as a sparse row without
        zeros."""
        return sparse(self.star[i])

    @conjugate_linear
    def star_vec(self, x: dict) -> dict:
        # star_row is read on every call: the tables behind it may change
        x = nonzero(x)
        rows = {i: self.star_row(i) for i in x}
        return sparse_comb(rows, sparse_conj(x))

    def iterated_comult(self, x: dict, legs: int) -> dict:
        """Delta^(legs) of a sparse x: sparse dict mapping index tuples to
        Scalars.

        legs = 0 returns {(): counit(x)}, legs = 1 is x itself.
        """
        if legs == 0:
            c = dot(x, self.counit)
            return {(): c} if c else {}
        cur, comult = {(i,): v for i, v in x.items() if v}, self.comult
        for _ in range(legs - 1):
            cur = collect((idx[:-1] + jk, v * w) for idx, v in cur.items()
                          for jk, w in comult[idx[-1]].items())
        return cur


class HopfCoalgebra(StarCoalgebra):
    """The coalgebra of a Hopf *-algebra H: a view on H's tables.

    The coalgebra-side involution of a Hopf *-algebra is x -> S(x)*, which
    reverses comultiplication; x -> x* does not when the comultiplication
    is noncocommutative.  dim, comult, counit and the involution are read
    from H at each use, so the view cannot go stale when a table of H is
    replaced or edited.
    """

    def __init__(self, hopf: HopfStarAlgebra):
        self.hopf = hopf

    @property
    def dim(self) -> int:
        return self.hopf.dim

    @property
    def comult(self):
        return self.hopf.comult

    @property
    def counit(self) -> Vec:
        return self.hopf.counit

    def star_row(self, i: int) -> dict:
        return nonzero(self.hopf.star_vec(sparse(self.hopf.antipode[i])))


class HopfStarAlgebra(StarAlgebra):
    """A StarAlgebra with Delta, epsilon and S.

    It takes over the tables of the given algebra, not the algebra itself.
    `coalgebra` is the x -> S(x)* view, built on each access and never
    stored: a stored view would point back at H and make a reference cycle.
    """

    def __init__(self, algebra: StarAlgebra, comult, counit: Vec,
                 antipode: Mat, name: str = ""):
        super().__init__(algebra.dim, algebra.mult, algebra.unit,
                         algebra.star, algebra.state,
                         name=name or algebra.name)
        if len(antipode) != self.dim:
            raise InputError("antipode shape mismatch")
        if len(comult) != self.dim or len(counit) != self.dim:
            raise InputError("coalgebra tensor shape mismatch")
        self.comult = comult        # list[dict[(j, k), Scalar]]
        self.counit = counit
        self.antipode = antipode

    @property
    def coalgebra(self) -> HopfCoalgebra:
        return HopfCoalgebra(self)

    def antipode_vec(self, x: dict) -> dict:
        x = nonzero(x)
        rows = {i: sparse(self.antipode[i]) for i in x}
        return sparse_comb(rows, x)

    def is_kac(self) -> bool:
        """Involutive antipode: S^2 = id."""
        rows, one = [sparse(row) for row in self.antipode], Scalar.one()
        return not any(sparse_ne(sparse_comb(rows, row), {i: one})
                       for i, row in enumerate(rows))

    def to_json(self):
        doc, zero, n = super().to_json(), Scalar.zero(), self.dim
        doc["comult"] = [[[plane.get((j, k), zero).to_json()
                           for k in range(n)] for j in range(n)]
                         for plane in self.comult]
        doc["counit"] = [x.to_json() for x in self.counit]
        doc["antipode"] = [[x.to_json() for x in row] for row in self.antipode]
        doc["kac"] = self.is_kac()
        return doc


# -- coactions and validation -----------------------------------------------
#
# A coaction beta of a coalgebra with comultiplication Delta is stored like
# Delta itself: beta[i] maps (j, k) to the coefficient of e_j (x) f_k in
# beta(e_i), f the basis of the coalgebra.  Delta is the coaction of a
# coalgebra on itself, so these laws serve coalgebras, comodule algebras
# and the product coaction of banica alike, each stated once here as the
# generator of the cases where it breaks.
#
# A right comodule is a left module over the dual by phi . v = v_0 phi(v_1),
# and coaction_operator is that module map: the T_lam of galois, the dual
# action on a smash product, and the Lambda(omega) and the expectation
# E = (id (x) tau) rho of banica are all (id (x) phi) beta.  Its module laws
# are composition_failures and, for the counit, counit_failures.


def coaction_operator(coact, phi: dict) -> dict:
    """(id (x) phi) beta as a sparse operator, for a sparse functional phi
    on the second leg: column i is sum beta[i][(j, k)] phi_k e_j."""
    return op_from_entries((j, i, v * phi[k])
                           for i, plane in enumerate(coact)
                           for (j, k), v in plane.items() if k in phi)


def convolution(comult, f: dict, g: dict) -> dict:
    """f * g = (f (x) g) Delta for sparse functionals f and g."""
    return collect((x, v * f[x1] * g[x2]) for x, plane in enumerate(comult)
                   for (x1, x2), v in plane.items() if x1 in f and x2 in g)


def coassociativity_failures(coact, comult):
    """The i, in order, with (beta (x) id) beta(e_i) != (id (x) Delta)
    beta(e_i)."""
    for i, plane in enumerate(coact):
        left = collect(((a, b, k), v * w) for (j, k), v in plane.items()
                       for (a, b), w in coact[j].items())
        right = collect(((j, a, b), v * w) for (j, k), v in plane.items()
                        for (a, b), w in comult[k].items())
        if sparse_ne(left, right):
            yield i


def counit_failures(coact, counit: Vec):
    """The i, in order, with (id (x) counit) beta(e_i) != e_i."""
    images = op_transpose(coaction_operator(coact, sparse(counit)))
    one = Scalar.one()
    return (i for i in range(len(coact))
            if sparse_ne(images.get(i, {}), {i: one}))


def star_failures(coact, planes, star_b: list, star_h: list):
    """The i, in order, with beta(e_i*) != the conjugate of planes[i] under
    star_b (x) star_h.

    beta is stored like Delta and the stars are given by sparse rows.  With
    planes = beta this is the law that beta is a *-map; Delta against its
    flip, at x -> S(x)*, is the law that S(x)* reverses Delta.
    """
    return (i for i, plane in enumerate(planes)
            if sparse_ne(sparse_comb(coact, star_b[i]),
                         tensor_map(sparse_conj(plane), star_b, star_h)))


def multiplicative_failures(coact, mult_b, mult_h):
    """The (i, j), in order, with beta(e_i e_j) != beta(e_i) beta(e_j) in
    B (x) H, for the mult tensors of B and H.  With beta = Delta this is
    the law that Delta is multiplicative."""
    n = len(coact)
    return ((i, j) for i in range(n) for j in range(n)
            if sparse_ne(sparse_comb(coact, mult_b[i][j]),
                         tensor_product(mult_b, mult_h, coact[i], coact[j])))


def is_unital(coact, unit_b: dict, unit_h: dict) -> bool:
    """beta(1) = 1 (x) 1, for the sparse units of B and H."""
    return not sparse_ne(sparse_comb(coact, unit_b), _outer(unit_b, unit_h))


def composition_failures(coact, comult, functionals: list):
    """The (g, h), in order, with (id (x) f_g * f_h) beta !=
    (id (x) f_g) beta (id (x) f_h) beta, for sparse functionals f on the
    second leg: a comodule is a module over the dual, where convolution
    acts as composition."""
    ops = [coaction_operator(coact, f) for f in functionals]
    n = len(functionals)
    return ((g, h) for g in range(n) for h in range(n)
            if coaction_operator(coact, convolution(comult, functionals[g],
                                                    functionals[h]))
            != op_mul(ops[g], ops[h]))


def convolution_inverse_failures(comult, counit: Vec, mult, unit: dict,
                                 f: list, g: list):
    """The i, in order, with m (f (x) g) Delta(e_i) or m (g (x) f) Delta(e_i)
    other than counit(e_i) 1, for f and g given by sparse rows into an
    algebra with the mult tensor and the sparse unit given: the i at which
    f and g are not convolution inverses."""
    targets = [{k: e * u for k, u in unit.items()} for e in counit]
    return (i for i, plane in enumerate(comult)
            if sparse_ne(convolve(mult, plane, f, g), targets[i])
            or sparse_ne(convolve(mult, plane, g, f), targets[i]))


def flip(comult) -> list[dict]:
    """The comultiplication with its tensor legs swapped (Delta^cop)."""
    return [{(k, j): v for (j, k), v in plane.items()} for plane in comult]


def validate_coalgebra(C: StarCoalgebra) -> Report:
    rep = Report("coalgebra")
    rep.law("coassociativity", coassociativity_failures(C.comult, C.comult))
    # the left counit law of Delta is the right one of the flipped Delta
    flipped = flip(C.comult)
    rep.law("counit", merge(counit_failures(C.comult, C.counit),
                            counit_failures(flipped, C.counit)))
    star = [C.star_row(i) for i in range(C.dim)]
    rep.law("star_reverses_comultiplication",
            star_failures(C.comult, flipped, star, star))
    return rep


def validate_hopf(H: HopfStarAlgebra) -> Report:
    """Full Hopf *-algebra axiom suite with witnesses."""
    rep = Report(f"hopf {H.name}".strip())
    rep.merge(validate_algebra(H), prefix="alg:")
    rep.merge(validate_coalgebra(H.coalgebra), prefix="coalg:")
    n, mult, comult, counit = H.dim, H.mult, H.comult, H.counit
    one = Scalar.one()

    # Delta and epsilon are unital algebra morphisms.
    rep.law("comult_is_algebra_morphism",
            multiplicative_failures(comult, mult, mult))
    unit = sparse(H.unit)
    rep.add("comult_unital", is_unital(comult, unit, unit))
    rep.law("counit_is_algebra_morphism", (
        (i, j) for i, j in product(range(n), repeat=2)
        if dot(mult[i][j], counit) != counit[i] * counit[j]))
    rep.add("counit_unital", dot(unit, counit) == one)

    # Delta(x*) = (x_1)* (x) (x_2)*: Delta is a *-algebra morphism.
    star = [sparse(row) for row in H.star]
    rep.law("comult_is_star_morphism",
            star_failures(comult, comult, star, star))

    # Antipode axiom: m (S (x) id) Delta = unit . counit = m (id (x) S) Delta
    antipode = [sparse(row) for row in H.antipode]
    ident = [{i: one} for i in range(n)]
    rep.law("antipode_axiom", convolution_inverse_failures(
        comult, counit, mult, unit, antipode, ident))

    # x -> S(x)^* is an involution; it is conjugate linear.
    rep.law("star_antipode_involution", involution_failures(
        [H.coalgebra.star_row(i) for i in range(n)]))

    # row i of the table is S(e_i): S is invertible when the rows are
    # independent
    rep.add("antipode_invertible", is_nonsingular(H.antipode, n))

    rep.add("kac_flag_recorded", True, witness={"kac": H.is_kac()},
            note="S^2 = id is a flag consumed downstream, not an axiom")
    return rep


def tensor_product(mult_a, mult_b, x: dict, y: dict) -> dict:
    """x y in A (x) B for x and y keyed by index pairs."""
    out: dict = {}
    for (a, b), v in x.items():
        for (c, d), w in y.items():
            ac, bd = mult_a[a][c], mult_b[b][d]
            if ac and bd:
                sparse_add(out, _outer(ac, bd), v * w)
    return out


def convolve(mult, plane: dict, f: list, g: list) -> dict:
    """m (f (x) g) of the tensor plane, f and g given by sparse rows."""
    out: dict = {}
    for (j, k), v in plane.items():
        sparse_add(out, sparse_apply(mult, f[j], g[k]), v)
    return out


def tensor_map(plane: dict, f: list, g: list) -> dict:
    """(f (x) g) of the tensor plane, f and g given by sparse rows."""
    out: dict = {}
    for (j, k), v in plane.items():
        sparse_add(out, _outer(f[j], g[k]), v)
    return out


def _outer(x: dict, y: dict) -> dict:
    """x (x) y keyed by index pairs."""
    return {(j, k): a * b for j, a in x.items() for k, b in y.items()}


# -- duality ----------------------------------------------------------------


def dual_hopf(H: HopfStarAlgebra, name: str = "") -> HopfStarAlgebra:
    """The dual Hopf *-algebra on the dual basis.

    Multiplication is the transpose of Delta, comultiplication the transpose
    of multiplication, antipode the transpose of S, and the involution is
    <phi*, h> = conj(<phi, S(h)*>).
    """
    n = H.dim
    # each entry is one entry of H: a transpose, not a sum
    mult = [[{} for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for (i, j), v in H.comult[k].items():
            mult[i][j][k] = v
    comult = [dict() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k, v in H.mult[i][j].items():
                comult[k][(i, j)] = v
    unit = list(H.counit)
    counit = list(H.unit)
    antipode = transpose(H.antipode)
    # (e^i)*: <(e^i)*, e_j> = conj(<e^i, S(e_j)*>), with S(e_j)* read from
    # the sparse star and antipode rows
    star_rows = [sparse(row) for row in H.star]
    circ = [dense_row(sparse_comb(star_rows, sparse_conj(sparse(row))), n)
            for row in H.antipode]
    star = [[circ[j][i].conj() for j in range(n)] for i in range(n)]
    alg = StarAlgebra(n, mult, unit, star, state=None,
                      name=name or (H.name + "^*" if H.name else ""))
    return HopfStarAlgebra(alg, comult, counit, antipode,
                           name=alg.name)


def variants(H: HopfStarAlgebra):
    """(H^op, H^cop, H^op_cop); single flips carry the inverse antipode.
    Each variant holds its own copy of every table."""
    n = H.dim
    s_inv = op_inverse(op_sparse(H.antipode), n)
    if s_inv is None:
        raise InputError("antipode is singular")
    s_inv = op_dense(s_inv, n)

    def make(suffix, mult, comult, antipode):
        alg = StarAlgebra(n, [[dict(cell) for cell in row] for row in mult],
                          list(H.unit), [list(r) for r in H.star],
                          state=H.state,
                          name=H.name + suffix if H.name else "")
        return HopfStarAlgebra(alg, [dict(p) for p in comult],
                               list(H.counit), [list(r) for r in antipode],
                               name=alg.name)
    op_mult = [[H.mult[j][i] for j in range(n)] for i in range(n)]
    cop_comult = flip(H.comult)
    return (make("^op", op_mult, H.comult, s_inv),
            make("^cop", H.mult, cop_comult, s_inv),
            make("^opcop", op_mult, cop_comult, H.antipode))


def hopf_equal(A: HopfStarAlgebra, B: HopfStarAlgebra) -> bool:
    """Tensor-by-tensor equality (same basis)."""
    return (A.dim == B.dim and A.mult == B.mult and A.comult == B.comult
            and A.unit == B.unit and A.counit == B.counit
            and A.antipode == B.antipode and A.star == B.star)


# -- Haar integral ------------------------------------------------------------


def haar(H: HopfStarAlgebra) -> Vec:
    """The normalized two-sided integral tau, found by exact linear solve.

    (id (x) tau) Delta h = tau(h) 1 = (tau (x) id) Delta h and tau(1) = 1.
    Coefficient by coefficient, tau is fixed by tau -> (e^j (x) tau) Delta
    and by tau -> (tau (x) e^j) Delta at the character j -> unit_j.
    Raises when no solution exists or every solution kills the unit.
    """
    n = H.dim
    legs: list = [[] for _ in range(2 * n)]
    for i, plane in enumerate(H.comult):
        for (a, b), v in plane.items():
            legs[a].append((i, b, v))
            legs[n + b].append((i, a, v))
    space = fixed_space([op_from_entries(leg) for leg in legs],
                        H.unit * 2, n)
    for t in space.vectors:
        tau = normalized(t, H.unit, n)
        if tau is not None:
            return tau
    raise InputError("no normalizable two-sided integral")


def haar_state(H: HopfStarAlgebra) -> "StarAlgebra":
    """Copy of the underlying algebra carrying the Haar state."""
    return StarAlgebra(H.dim, H.mult, H.unit, H.star, state=haar(H),
                       name=H.name)


# -- group fixtures ------------------------------------------------------------


def _check_group_table(table) -> int:
    n = len(table)
    for row in table:
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise InputError("not a group: malformed table")
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            raise InputError("not a group: element 0 is not an identity")
    for i in range(n):
        if not any(table[i][j] == 0 for j in range(n)):
            raise InputError("not a group: missing inverse")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise InputError("not a group: associativity fails")
    return n


def group_inverse(table, i: int) -> int:
    for j in range(len(table)):
        if table[i][j] == 0:
            return j
    raise InputError("not a group: missing inverse")


def group_algebra(table, name: str = "", order: int = 1) -> HopfStarAlgebra:
    """Group algebra CG: Delta g = g (x) g, S(g) = g^{-1}, g* = g^{-1}; its
    scalars are of the given order."""
    n = _check_group_table(table)
    one = Scalar.one(order)
    mult = [[{table[i][j]: one} for j in range(n)] for i in range(n)]
    unit = unit_vec(n, 0, order)
    star = [unit_vec(n, group_inverse(table, i), order) for i in range(n)]
    comult = [{(i, i): one} for i in range(n)]
    counit = [one] * n
    antipode = [unit_vec(n, group_inverse(table, i), order)
                for i in range(n)]
    alg = StarAlgebra(n, mult, unit, star, name=name)
    return HopfStarAlgebra(alg, comult, counit, antipode, name=name)


def function_algebra(table, name: str = "",
                     order: int = 1) -> HopfStarAlgebra:
    """Function algebra C(G): pointwise product, Delta delta_g = sum over
    gh; its scalars are of the given order."""
    n = _check_group_table(table)
    one = Scalar.one(order)
    mult = [[{i: one} if i == j else {} for j in range(n)] for i in range(n)]
    unit = [one] * n
    star = identity_matrix(n, order)
    comult = []
    for g in range(n):
        plane = {}
        for a in range(n):
            for b in range(n):
                if table[a][b] == g:
                    plane[(a, b)] = one
        comult.append(plane)
    counit = unit_vec(n, 0, order)
    antipode = [unit_vec(n, group_inverse(table, i), order)
                for i in range(n)]
    alg = StarAlgebra(n, mult, unit, star, name=name)
    return HopfStarAlgebra(alg, comult, counit, antipode, name=name)


# -- pairings -------------------------------------------------------------------


class HopfPairing:
    """A bilinear pairing matrix P[q][h] = <e_q, e_h> between Q and H."""

    def __init__(self, Q: HopfStarAlgebra, H: HopfStarAlgebra, matrix: Mat):
        self.Q = Q
        self.H = H
        self.matrix = matrix
        if len(matrix) != Q.dim or any(len(r) != H.dim for r in matrix):
            raise InputError("pairing matrix shape mismatch")

    def is_nondegenerate(self) -> bool:
        return (self.Q.dim == self.H.dim
                and is_nonsingular(self.matrix, self.H.dim))


def canonical_pairing(Q: HopfStarAlgebra, H: HopfStarAlgebra) -> HopfPairing:
    """Evaluation pairing when Q is built on the dual basis of H."""
    if Q.dim != H.dim:
        raise InputError("canonical pairing needs matching dimensions")
    return HopfPairing(Q, H, identity_matrix(Q.dim))


def validate_pairing(P: HopfPairing) -> Report:
    """The five pairing laws plus the star law, checked on basis elements.

    Row a of the pairing matrix M is the functional <e_a, .> on H and
    column c is <., e_c> on Q, so <x, e_c> = dot(x, column c) and
    <e_a, y> = dot(y, row a).  The multiplicative laws pair one leg of a
    comultiplication first: <e_a e_b, e_c> = <e_a, h_legs[b][c]> with
    h_legs[b][c] = sum c_1 <e_b, c_2>, and <e_a, e_c e_d> =
    <q_legs[d][a], e_c> with q_legs[d][a] = sum a_1 <a_2, e_d>; both are
    read, column by column, off a coaction operator of Delta.
    Each side is read from M, the sparse mult and comult tensors and the
    sparse antipode and star rows; a failing law reports its first basis
    witness in the order of the cases below.
    """
    rep = Report("hopf pairing")
    Q, H, M = P.Q, P.H, P.matrix
    cols = transpose(M)
    qs, hs = range(Q.dim), range(H.dim)

    h_legs = [op_transpose(coaction_operator(H.comult, sparse(row)))
              for row in M]
    rep.law("multiplicative_left", (
        (a, b, c) for a, b, c in product(qs, qs, hs)
        if dot(Q.mult[a][b], cols[c]) != dot(h_legs[b].get(c, {}), M[a])))
    q_legs = [op_transpose(coaction_operator(Q.comult, sparse(col)))
              for col in cols]
    rep.law("multiplicative_right", (
        (a, c, d) for a, c, d in product(qs, hs, hs)
        if dot(H.mult[c][d], M[a]) != dot(q_legs[d].get(a, {}), cols[c])))
    q_unit, h_unit = sparse(Q.unit), sparse(H.unit)
    rep.add("unit_pairs_to_counit",
            all(dot(q_unit, cols[c]) == H.counit[c] for c in hs))
    rep.add("counit_pairs_to_unit",
            all(dot(h_unit, M[a]) == Q.counit[a] for a in qs))

    q_antipode = [sparse(row) for row in Q.antipode]
    h_antipode = [sparse(row) for row in H.antipode]
    rep.law("antipode_law", (
        (a, c) for a, c in product(qs, hs)
        if dot(q_antipode[a], cols[c]) != dot(h_antipode[c], M[a])))
    # e_a* is star row a, and (S e_c)* is star row c of H's coalgebra
    q_star = [sparse(row) for row in Q.star]
    sh_star = [H.coalgebra.star_row(c) for c in hs]
    rep.law("star_law", (
        (a, c) for a, c in product(qs, hs)
        if dot(q_star[a], cols[c]) != dot(sh_star[c], M[a]).conj()),
        note=PAIRING_STAR_NOTE)
    return rep

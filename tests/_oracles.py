"""Independent oracles and random instance generators for the test suite.

The production largest_subcoalgebra decides Delta x in V (x) V through
the annihilator rows of V on each leg of Delta x; the oracle here goes
through the middle leg of the double comultiplication instead (the
subcoalgebra generated by x is the span of (f (x) id (x) g) Delta^2 x), so
the two routes share no code path.  Both impose sigma(x) in V exactly,
conjugating the rows of a stabilizer marked conjugate linear.

The sparse echelon engine (KernelSolver, SpanBuilder, rref) is checked
against a dense Gauss-Jordan elimination written here, and the spans of
the closures below are kept by that elimination too.  The generator-only
operator_algebra_span and generated_subalgebra are checked against the
closures that multiply every new element by every member on both sides.
The sparse validate_action, validate_algebra and validate_pairing are
checked against the dense validators they replaced, which push unit
vectors through apply and mul_vec or pair them through the matrix.  The
sparse operators of linalg are checked against dense products, and
commutants in End(k^n) against a dense elimination of their constraint
rows.  The A-bimodule endomorphisms of a smash product, which production
solves for on the values F(1 x| h) read from the sparse tensors, are
checked against the commutant of A's left and right multiplication
operators in all of End(A x| H).  The sparse operators of galois and banica
(T_lam, the endomorphism of a functional, the conditional expectation E and
the Lambda operators) are checked against the dense column-by-column
matrices they replaced, and Subspace.residue against a dense subtraction
along the RREF basis.  The sparse algebra.conditional_expectation is
checked against the dense column-by-column body it replaced, and the
dense expectation_report, which it no longer needs in production, checks
its properties.  The CLI verdict, which reads the passed field of the
reports at the top level of a runner's output, is checked against a walk
of every node of the emitted document.  The sparse span layer of measuring
(the legs psi(e_j), their Kronecker powers and the star rows) is checked
against the dense evaluation it replaced, which builds psi on unit
vectors and applies the span matrices through kron_vec and mat_vec.  The
dense embeddings x -> x x| 1 and x -> 1 x| x of a smash product and the
dense inverse mat_inverse, which production no longer needs, live here
for the oracles and the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from hopfgal.actions import ModuleAlgebraAction, SmashProduct
from hopfgal.algebra import (
    POSITIVITY_TOL,
    StarAlgebra,
    analyze_state,
    is_unital_star_subalgebra,
)
from hopfgal.errors import InputError
from hopfgal.hopf import PAIRING_STAR_NOTE, HopfPairing, StarCoalgebra
from hopfgal.linalg import (
    KernelSolver,
    Subspace,
    Vec,
    Mat,
    dense_row,
    identity_matrix,
    kernel_of,
    mat_mul,
    sparse,
    unit_vec,
    vzero,
)
from hopfgal.report import Report
from hopfgal.scalars import Scalar

from builders import mat_algebra


def flatten_matrix(X: list) -> list:
    return [x for row in X for x in row]


# -- dense vectors -----------------------------------------------------------
#
# The vector methods of the package take and return sparse vectors, and a
# Subspace holds sparse echelon rows.  Most oracles and tests hold dense
# vectors; these write a method's value as the dense row it stands for,
# with zeros of order 1, and a Subspace's basis as the rows it emits.


def basis_rows(S: Subspace) -> list:
    """The RREF basis of S as dense rows, each at its own order."""
    return [dense_row(v, S.ambient_dim, order)
            for v, order in zip(S.vectors, S.orders)]


def dmul(A, x: Vec, y: Vec) -> Vec:
    """x y for dense x and y, through A.mul_vec."""
    return dense_row(A.mul_vec(sparse(x), sparse(y)), A.dim)


def dstar(A, x: Vec) -> Vec:
    """x* for a dense x, through A.star_vec."""
    return dense_row(A.star_vec(sparse(x)), A.dim)


def dantipode(H, x: Vec) -> Vec:
    """S(x) for a dense x, through H.antipode_vec."""
    return dense_row(H.antipode_vec(sparse(x)), H.dim)


def dapply(action: ModuleAlgebraAction, h: Vec, a: Vec) -> Vec:
    """h . a for dense h and a, through action.apply."""
    return dense_row(action.apply(sparse(h), sparse(a)),
                     action.alg.dim)


def dense_map(sigma, n: int):
    """A map of sparse vectors of k^n (a stabilizer) on dense vectors,
    marked conjugate linear with sigma."""
    def f(v):
        return dense_row(sigma(sparse(v)), n)
    f.conjugate_linear = getattr(sigma, "conjugate_linear", False)
    return f


def embed_A_vec(sp: SmashProduct, x: Vec) -> Vec:
    """x x| 1 as a dense vector of the smash product."""
    return dense_row(sp.a_leg(sparse(x)), sp.total.dim)


def embed_H_vec(sp: SmashProduct, x: Vec) -> Vec:
    """1 x| x as a dense vector of the smash product."""
    return dense_row(sp.h_leg(sparse(x)), sp.total.dim)


def dft_mat2_in_mat4():
    """Mat2 (x) 1 inside Mat4 conjugated by the DFT unitary (1/2)[i^(jk)]."""
    half = Scalar.rational(1, 2)
    U = [[half * Scalar.root_of_unity(4, j * k) for k in range(4)]
         for j in range(4)]
    U_star = [[U[k][j].conj() for k in range(4)] for j in range(4)]
    basis = []
    for p in range(2):
        for q in range(2):
            E = [[Scalar.from_int(int(r // 2 == p and c // 2 == q
                                      and r % 2 == c % 2))
                  for c in range(4)] for r in range(4)]
            basis.append(flatten_matrix(mat_mul(mat_mul(U, E), U_star)))
    return mat_algebra(4), Subspace.from_vectors(basis, 16)


def complex_pair_in_mat2():
    """span{1, h} in Mat2 for the Hermitian h = [[1, i], [-i, 0]].

    Its RREF basis {1, [[0, 1], [-1, i]]} has the Gram matrix
    [[1, -i/2], [i/2, 1]] under the normalized trace, which is Hermitian
    and not symmetric.
    """
    i = Scalar.root_of_unity(4, 1)
    M = mat_algebra(2)
    h = [Scalar.one(), i, -i, Scalar.zero()]
    return M, Subspace.from_vectors([list(M.unit), h], 4)


def rebased_hopf(H, P: list):
    """H on the basis f_i = sum_k P[i][k] e_k, for an invertible P."""
    from hopfgal.hopf import HopfStarAlgebra

    n = H.dim
    Q = mat_inverse(P)               # e_k = sum_i Q[k][i] f_i
    zero = Scalar.zero()

    def comb(coeffs: list, table: list) -> list:  # sum_k coeffs[k] table[k]
        return [sum((c * table[k][j] for k, c in enumerate(coeffs) if c),
                    zero) for j in range(n)]

    def to_f(v: list) -> list:       # e coordinates -> f coordinates
        return comb(v, Q)

    mult = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = vzero(n)
            for a in range(n):
                for b in range(n):
                    c = P[i][a] * P[j][b]
                    for k, m in H.mult[a][b].items():
                        prod[k] = prod[k] + c * m
            row.append({k: x for k, x in enumerate(to_f(prod)) if x})
        mult.append(row)
    star = [to_f(comb([x.conj() for x in P[i]], H.star)) for i in range(n)]
    comult = []
    for i in range(n):
        # d[b][c]: the coefficient of e_b (x) e_c in Delta f_i
        d = [vzero(n) for _ in range(n)]
        for a in range(n):
            for (b, c), v in H.comult[a].items():
                d[b][c] = d[b][c] + P[i][a] * v
        right = [to_f(row) for row in d]                  # e_b (x) f_q
        left = [to_f([right[b][q] for b in range(n)])     # f_p (x) f_q
                for q in range(n)]
        comult.append({(p, q): left[q][p] for p in range(n)
                       for q in range(n) if left[q][p]})
    counit = [sum((P[i][k] * H.counit[k] for k in range(n)), zero)
              for i in range(n)]
    antipode = [to_f(comb(P[i], H.antipode)) for i in range(n)]
    alg = StarAlgebra(n, mult, to_f(list(H.unit)), star, name="rebased")
    return HopfStarAlgebra(alg, comult, counit, antipode, name="rebased")


def middle_legs(C: StarCoalgebra, x) -> dict:
    """(i, k) -> the middle leg of Delta^2 x between e_i* and e_k*."""
    out = {}
    for (i, j, k), v in C.iterated_comult(sparse(x), 3).items():
        key = (i, k)
        if key not in out:
            out[key] = vzero(C.dim)
        out[key][j] = out[key][j] + v
    return out


def middle_leg_vectors(C: StarCoalgebra, x) -> list:
    """Spanning vectors of the subcoalgebra generated by x."""
    return [v for v in middle_legs(C, x).values() if any(v)]


# -- the dense span layer -------------------------------------------------------
#
# measuring evaluates its spans on sparse legs and a sparse Kronecker power;
# the oracle below is the dense evaluation it replaced: psi(e_j) as a dense
# vector, the legs as dense operators of Hom(A, B), the power by kron_vec
# and the matrices by mat_vec.


def mat_vec(A: Mat, x: Vec) -> Vec:
    """A applied to a coordinate column: (A x)_i = sum_j A[i][j] x[j]."""
    zero = Scalar.zero(x[0].order if x else 1)
    support = [(j, xj) for j, xj in enumerate(x) if xj]
    out = []
    for row in A:
        tot = zero
        for j, xj in support:
            r = row[j]
            if r:
                tot = tot + r * xj
        out.append(tot)
    return out


def kron_vec(a: Vec, b: Vec) -> Vec:
    out = []
    for x in a:
        if x:
            out.extend(x * y for y in b)
        else:
            out.extend(vzero(len(b)))
    return out


def _as_operator(v: Vec, dim_out: int, dim_in: int) -> Mat:
    """The leg v of Hom(A, B) as a dim_out x dim_in matrix, its entry
    (o, i) read at o dim_in + i."""
    return [[v[o * dim_in + i] for i in range(dim_in)]
            for o in range(dim_out)]


def dense_psi(carrier: list, x: Vec) -> Vec:
    """sum_j x_j carrier[j] for dense carrier rows."""
    out = vzero(len(carrier[0]))
    for j, xj in enumerate(x):
        if xj:
            for k, v in enumerate(carrier[j]):
                if v:
                    out[k] = out[k] + xj * v
    return out


@dataclass
class DenseSpanConstraint:
    """A span whose sides take a list of dense legs to a dense vector."""

    shape: tuple
    left: object
    right: object


def dense_span_from_matrices(l: int, r: int, left: Mat,
                             right: Mat) -> DenseSpanConstraint:
    def apply(mat, legs):
        vec = legs[0] if legs else [Scalar.one()]
        for more in legs[1:]:
            vec = kron_vec(vec, more)
        return mat_vec(mat, vec)

    return DenseSpanConstraint((l, r), lambda legs: apply(left, legs),
                     lambda legs: apply(right, legs))


def dense_multiplication_span(A: StarAlgebra,
                              B: StarAlgebra) -> DenseSpanConstraint:
    na, nb = A.dim, B.dim
    target = nb * na * na

    def left(legs):
        F, G = (_as_operator(v, nb, na) for v in legs)
        out = vzero(target)
        for a in range(na):
            col_f = [F[o][a] for o in range(nb)]
            for ap in range(na):
                col_g = [G[o][ap] for o in range(nb)]
                for o, val in enumerate(dmul(B, col_f, col_g)):
                    if val:
                        out[o * na * na + a * na + ap] = val
        return out

    def right(legs):
        (F,) = (_as_operator(v, nb, na) for v in legs)
        out = {}
        for a in range(na):
            for ap in range(na):
                for k, m in A.mult[a][ap].items():
                    for o in range(nb):
                        if F[o][k]:
                            t = o * na * na + a * na + ap
                            out[t] = out[t] + m * F[o][k] if t in out \
                                else m * F[o][k]
        return dense_row({t: v for t, v in out.items() if v}, target)

    return DenseSpanConstraint((2, 1), left, right)


def dense_unit_span(A: StarAlgebra,
                    B: StarAlgebra) -> DenseSpanConstraint:
    def right(legs):
        (F,) = (_as_operator(v, B.dim, A.dim) for v in legs)
        return mat_vec(F, list(A.unit))

    return DenseSpanConstraint((0, 1), lambda legs: list(B.unit), right)


def dense_fixing_span(A: StarAlgebra,
                      fixed: Subspace) -> DenseSpanConstraint:
    n = A.dim

    def left(legs):
        (F,) = (_as_operator(v, n, n) for v in legs)
        return [x for b in basis_rows(fixed) for x in mat_vec(F, b)]

    return DenseSpanConstraint((1, 0), left,
                     lambda legs: [x for b in basis_rows(fixed) for x in b])


def dense_iterated_comult(C: StarCoalgebra, x: Vec, legs: int) -> dict:
    """Delta^(legs) x by hand: the last leg is comultiplied legs - 1 times."""
    if legs == 0:
        tot = Scalar.zero()
        for i, xi in enumerate(x):
            if xi and C.counit[i]:
                tot = tot + xi * C.counit[i]
        return {(): tot} if tot else {}
    cur = {(i,): xi for i, xi in enumerate(x) if xi}
    for _ in range(legs - 1):
        nxt = {}
        for idx, v in cur.items():
            for jk, w in C.comult[idx[-1]].items():
                key = idx[:-1] + jk
                nxt[key] = nxt[key] + v * w if key in nxt else v * w
        cur = {k: v for k, v in nxt.items() if v}
    return cur


def dense_span_value(C: StarCoalgebra, carrier: list,
                     span: DenseSpanConstraint, x: Vec) -> dict:
    """left minus right of one span at x, legs psi(e_j) built densely."""
    out = {}
    for legs_n, side, sign in ((span.shape[0], span.left, 1),
                               (span.shape[1], span.right, -1)):
        for idx, v in dense_iterated_comult(C, x, legs_n).items():
            c = v if sign > 0 else -v
            value = side([dense_psi(carrier, unit_vec(C.dim, j))
                          for j in idx])
            for t, b in enumerate(value):
                if b:
                    out[t] = out[t] + c * b if t in out else c * b
    return {t: v for t, v in out.items() if v}


def oracle_constraint_subspace(C: StarCoalgebra, carrier: list,
                               spans: list) -> Subspace:
    n = C.dim
    entries = [((s, t), i, v) for s, span in enumerate(spans)
               for i in range(n)
               for t, v in dense_span_value(C, carrier, span,
                                            unit_vec(n, i)).items()]
    W = kernel_of(entries, n)
    return W.intersect(W.image_conjlinear(C.star_vec))


def oracle_star_compat_rows(C: StarCoalgebra, carrier: list,
                            A: StarAlgebra, B: StarAlgebra) -> list[dict]:
    """The rows of (c . a)* = c* . a*, from dense operators psi(e_h*)."""
    na, nb = A.dim, B.dim
    twisted = []
    for h in range(C.dim):
        op = _as_operator(dense_psi(carrier, dstar(C, unit_vec(C.dim, h))),
                          nb, na)
        cols = [dstar(B, mat_vec(op, dstar(A, unit_vec(na, i))))
                for i in range(na)]
        twisted.append([cols[i][o] for o in range(nb) for i in range(na)])
    rows = []
    for t in range(na * nb):
        row = {}
        for h in range(C.dim):
            diff = carrier[h][t] - twisted[h][t]
            if diff:
                row[h] = diff
        if row:
            rows.append(row)
    return rows


def oracle_largest_subcoalgebra(C: StarCoalgebra, W: Subspace,
                                stabilizers=(), log=None) -> Subspace:
    """Decreasing iteration with Delta^2-middle-leg membership; the dim of
    each iterate goes to log when given."""
    stabilizers = [dense_map(sigma, C.dim) for sigma in stabilizers]
    current = W
    while True:
        if log is not None:
            log.append(current.dim)
        if current.dim == 0:
            return current
        basis = basis_rows(current)
        solver = KernelSolver(len(basis))
        # the middle leg of x = sum c_j b_j at (i, k) is sum c_j of the
        # middle legs of the b_j there, and it must lie in current
        mids = [middle_legs(C, v) for v in basis]
        for key in sorted(set().union(*mids)):
            res = [_residue(current, m[key]) if key in m else None
                   for m in mids]
            for coord in range(C.dim):
                row = {j: r[coord] for j, r in enumerate(res)
                       if r is not None and r[coord]}
                if row:
                    solver.add_row(row)
        for sigma in stabilizers:
            # sigma(sum c_i b_i) = sum conj(c_i) sigma(b_i) when sigma is
            # conjugate linear, so its rows are conjugated
            conj = getattr(sigma, "conjugate_linear", False)
            res = [_residue(current, sigma(v)) for v in basis]
            for coord in range(C.dim):
                row = {i: res[i][coord].conj() if conj else res[i][coord]
                       for i in range(len(basis)) if res[i][coord]}
                if row:
                    solver.add_row(row)
        coeffs = solver.subspace()
        if coeffs.dim == len(basis):
            return current
        vectors = []
        for cvec in basis_rows(coeffs):
            out = vzero(C.dim)
            for c, b in zip(cvec, basis):
                if c:
                    out = [p + c * q for p, q in zip(out, b)]
            vectors.append(out)
        current = Subspace.from_vectors(vectors, C.dim)


def c_of_s4_within():
    """Documents of a measure job on C(S4) within W, and the rows of W that
    span its answer.

    W is the 16 coefficient functions g -> [g(j) = i] of the permutation
    representation of S4 on 4 points, plus the indicators of two pairs of
    group elements.
    """
    elements = list(itertools.permutations(range(4)))
    table = [[elements.index(tuple(p[q[x]] for x in range(4)))
              for q in elements] for p in elements]
    coeffs = [[int(g[j] == i) for g in elements]
              for i in range(4) for j in range(4)]
    noise = [[int(k in pair) for k in range(24)] for pair in ((1, 2), (3, 5))]
    return {
        "cg": {"kind": "hopf", "group_table": table, "dual": True},
        "w": {"kind": "subspace", "ambient_dim": 24,
              "basis": coeffs + noise},
        "measure": {"kind": "job", "op": "measure", "coalgebra": "cg",
                    "within": "w"},
    }, coeffs


def graded_by_conjugation(docs):
    """Add to the documents of fixtures/banica-z2.json a comodule beta2 of
    CZ2 on a copy mat2b of Mat2, graded by x -> u x u, with its jobs.

    u = [[1, 1], [0, -1]] has u^2 = 1, so beta(x) = x_0 (x) e + x_1 (x) g
    with x_0, x_1 = (x +- u x u) / 2 is a comodule algebra on a
    noncommutative algebra, but u is not unitary, so beta is not a *-map.
    C(Z2) acts on the copy by the same grading.
    """
    u = [[1, 1], [0, -1]]

    def ad_u(i):  # u E_ab u, E_ab at index 2a + b, flattened
        return [u[j // 2][i // 2] * u[i % 2][j % 2] for j in range(4)]

    def half(x):
        return x // 2 if x % 2 == 0 else [x, 2]
    parts = [[[half(int(i == j) + sign * ad_u(i)[j]) for j in range(4)]
              for i in range(4)] for sign in (1, -1)]
    docs["mat2b"] = dict(docs["mat2"], state=None)
    docs["beta2"] = {"kind": "comodule", "hopf": "cz2", "alg": "mat2b",
                     "coact": [[[p[i][j] for p in parts] for j in range(4)]
                               for i in range(4)]}
    docs["grade2"] = {"kind": "action", "hopf": "cofz2", "alg": "mat2b",
                      "act": parts}
    docs["banica2"] = {"kind": "job", "op": "qgal-banica",
                       "comodule": "beta2", "action": "adz",
                       "ambient_hopf": "cofz2", "ambient_action": "grade2"}
    docs["check2"] = {"kind": "job", "op": "validate", "target": "beta2"}


def stabilized_closure(C: StarCoalgebra, gens,
                       stabilizers=()) -> "DenseBasis":
    """Smallest stabilized subcoalgebra containing the generators."""
    stabilizers = [dense_map(sigma, C.dim) for sigma in stabilizers]
    builder = DenseSpan(C.dim)
    work = []
    for g in gens:
        if builder.insert(list(g)):
            work.append(list(g))
    while work:
        v = work.pop()
        new = middle_leg_vectors(C, v) + [sigma(v) for sigma in stabilizers]
        for w in new:
            if builder.insert(w):
                work.append(w)
    return builder.subspace()


# -- dense elimination and all-pairs closure ------------------------------------


def _dense_rref(mat: list, n: int) -> tuple[list, list[int]]:
    """Gauss-Jordan on dense rows: nonzero RREF rows and pivot columns."""
    mat = [list(r) for r in mat]
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y if y else x
                          for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], pivots


def _residue(V, v: list) -> list:
    """v minus its component in V (a Subspace or a DenseBasis) along the
    RREF basis (zero iff v in V)."""
    out = list(v)
    rows = V.rows if isinstance(V, DenseBasis) else basis_rows(V)
    for b, p in zip(rows, V.pivots):
        c = v[p]
        if c:
            out = [x - c * y if y else x for x, y in zip(out, b)]
    return out


class DenseBasis:
    """A canonical RREF basis held as dense rows.

    It equals a Subspace whose written rows (basis_rows) and pivots are
    its own, so an oracle compares with production without building a
    Subspace.
    """

    def __init__(self, n: int, rows: list, pivots: list):
        self.ambient_dim, self.rows, self.pivots = n, rows, pivots

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return not any(_residue(self, v))

    def __eq__(self, other) -> bool:
        if isinstance(other, Subspace):
            other = DenseBasis(other.ambient_dim, basis_rows(other),
                               other.pivots)
        if not isinstance(other, DenseBasis):
            return NotImplemented
        return ((self.ambient_dim, self.rows, self.pivots)
                == (other.ambient_dim, other.rows, other.pivots))


class DenseSpan:
    """Row space kept in dense RREF, re-eliminated on every new row."""

    def __init__(self, n: int):
        self.sub = DenseBasis(n, [], [])

    def insert(self, v) -> bool:
        if self.sub.contains(v):
            return False
        n = self.sub.ambient_dim
        self.sub = DenseBasis(n, *_dense_rref(self.sub.rows + [list(v)], n))
        return True

    def subspace(self) -> DenseBasis:
        return self.sub


def oracle_kernel(rows: list[dict], n: int) -> tuple[list, list[int]]:
    """Canonical RREF basis and pivots of {x : r.x = 0 for every row r}."""
    zero, one = Scalar.zero(), Scalar.one()
    reduced, pivots = _dense_rref(
        [[row.get(j, zero) for j in range(n)] for row in rows], n)
    vectors = []
    for f in range(n):
        if f in pivots:
            continue
        v = [zero] * n
        v[f] = one
        for r, p in zip(reduced, pivots):
            v[p] = -r[f]
        vectors.append(v)
    return _dense_rref(vectors, n)


def mat_inverse(A: list) -> list:
    """Inverse of a dense matrix by Gauss-Jordan on [A | I]; raises if
    singular.  Production inverts sparse operators (linalg.op_inverse)."""
    n = len(A)
    rows, pivots = _dense_rref(
        [list(row) + unit_vec(n, i) for i, row in enumerate(A)], 2 * n)
    if pivots != list(range(n)):
        raise InputError("matrix is singular")
    return [row[n:] for row in rows]


def oracle_gram_adjoint(X: list, G: list) -> list:
    """G^-1 X^dagger G for dense X and Gram matrix G."""
    n = len(X)
    xct = [[X[j][i].conj() for j in range(n)] for i in range(n)]
    return mat_mul(mat_inverse(G), mat_mul(xct, G))


def oracle_operator_algebra_span(gens: list, n: int) -> DenseBasis:
    """Closure multiplying each new element by every member, both sides."""
    builder = DenseSpan(n * n)
    members: list = []

    def push(X) -> bool:
        if builder.insert(flatten_matrix(X)):
            members.append(X)
            return True
        return False

    push(identity_matrix(n))
    fresh = [X for X in gens if push(X)]
    while fresh:
        batch, fresh = fresh, []
        for X in batch:
            for Y in list(members):
                for P in (mat_mul(X, Y), mat_mul(Y, X)):
                    if push(P):
                        fresh.append(P)
    return builder.subspace()


def oracle_generated_subalgebra(gens: list, B,
                                with_star: bool = True) -> DenseBasis:
    """Unital (*-)closure multiplying each new element by every member."""
    builder = DenseSpan(B.dim)
    members: list = []

    def push(v) -> bool:
        if builder.insert(v):
            members.append(v)
            return True
        return False

    push(B.unit)
    fresh = []
    for g in gens:
        for v in (g, dstar(B, g)) if with_star else (g,):
            if push(v):
                fresh.append(v)
    while fresh:
        batch, fresh = fresh, []
        for x in batch:
            sx = dstar(B, x) if with_star else x
            if push(sx):
                fresh.append(sx)
            for y in list(members):
                for p in (dmul(B, x, y), dmul(B, y, x)):
                    if push(p):
                        fresh.append(p)
    return builder.subspace()


# -- random exact instances over Q(i) ------------------------------------------


def _qi(rng) -> Scalar:
    re = rng.randint(-2, 2)
    im = rng.randint(-2, 2)
    return (Scalar.from_int(re, 4)
            + Scalar.root_of_unity(4) * Scalar.from_int(im, 4))


def random_invertible(rng, n):
    while True:
        P = [[_qi(rng) for _ in range(n)] for _ in range(n)]
        rows, pivots = _dense_rref(
            [row + unit_vec(n, i, 4) for i, row in enumerate(P)], 2 * n)
        if pivots[:n] == list(range(n)):
            return P, [row[n:] for row in rows]


def _grouplike_coalgebra(n: int) -> StarCoalgebra:
    one = Scalar.one(4)
    comult = [{(i, i): one} for i in range(n)]
    counit = [one] * n
    star = identity_matrix(n, 4)
    return StarCoalgebra(n, comult, counit, star)


def _matrix_coalgebra(n: int) -> StarCoalgebra:
    one = Scalar.one(4)
    dim = n * n
    comult = []
    for i in range(n):
        for j in range(n):
            plane = {}
            for k in range(n):
                plane[(i * n + k, k * n + j)] = one
            comult.append(plane)
    counit = [one if i % (n + 1) == 0 else Scalar.zero(4)
              for i in range(dim)]
    star = [unit_vec(dim, (i % n) * n + i // n, 4) for i in range(dim)]
    return StarCoalgebra(dim, comult, counit, star)


def random_coalgebra(rng) -> StarCoalgebra:
    """A dim <= 4 exact coalgebra over Q(i) in a random basis."""
    kind = rng.choice(["group2", "group3", "group4", "matrix2", "mixed"])
    if kind == "matrix2":
        base = _matrix_coalgebra(2)
    elif kind == "mixed":
        # one group-like block plus a 2x2-ish corner: group-likes g, h and
        # a skew primitive p with Delta p = p (x) g + h (x) p
        one = Scalar.one(4)
        comult = [
            {(0, 0): one},
            {(1, 1): one},
            {(2, 0): one, (1, 2): one},
        ]
        counit = [one, one, Scalar.zero(4)]
        star = identity_matrix(3, 4)
        base = StarCoalgebra(3, comult, counit, star)
    else:
        base = _grouplike_coalgebra(int(kind[-1]))
    n = base.dim
    P, Pinv = random_invertible(rng, n)

    comult = []
    for i in range(n):
        x = [Pinv[r][i] for r in range(n)]
        plane = {}
        for (j, k), v in base.comult_vec(sparse(x)).items():
            for a in range(n):
                if P[a][j]:
                    for b in range(n):
                        if P[b][k]:
                            key = (a, b)
                            cur = plane.get(key, Scalar.zero(4))
                            plane[key] = cur + v * P[a][j] * P[b][k]
            # drop zeros lazily
        comult.append({k: v for k, v in plane.items() if v})
    counit = []
    for i in range(n):
        x = [Pinv[r][i] for r in range(n)]
        counit.append(base.counit_of(sparse(x)))

    def star_fn(y):
        inner = dstar(base, mat_vec(Pinv, y))
        return mat_vec(P, inner)

    star = [star_fn(unit_vec(n, i, 4)) for i in range(n)]
    return StarCoalgebra(n, comult, counit, star)


def random_subspace(rng, C: StarCoalgebra) -> Subspace:
    n = C.dim
    k = rng.randint(0, n)
    vecs = [[_qi(rng) for _ in range(n)] for _ in range(k)]
    if rng.random() < 0.4:
        vecs.append(unit_vec(n, rng.randrange(n), 4))
    return Subspace.from_vectors(vecs, n)


# -- dense axiom validators ---------------------------------------------------
#
# The action, algebra and pairing validators as they were before they moved
# to the sparse structure constants: every basis element is a dense unit
# vector pushed through ModuleAlgebraAction.apply and StarAlgebra.mul_vec, or
# paired through the pairing matrix.


def oracle_validate_action(action: ModuleAlgebraAction) -> Report:
    """Module, measuring, unit and star compatibility axioms, exactly."""
    rep = Report(f"action {action.name}".strip())
    H, A = action.hopf, action.alg
    nh, na = H.dim, A.dim

    witness = None
    for g in range(nh):
        for h in range(nh):
            prod = vzero(nh)
            for k, v in H.mult[g][h].items():
                prod[k] = prod[k] + v
            for a in range(na):
                lhs = dapply(action, prod, unit_vec(na, a))
                inner = dapply(action, unit_vec(nh, h), unit_vec(na, a))
                rhs = dapply(action, unit_vec(nh, g), inner)
                if lhs != rhs:
                    witness = (g, h, a)
                    break
            if witness:
                break
        if witness:
            break
    rep.add("module_axiom", witness is None, witness)

    witness = None
    for a in range(na):
        if dapply(action, H.unit, unit_vec(na, a)) != unit_vec(na, a):
            witness = a
            break
    rep.add("unit_acts_trivially", witness is None, witness)

    witness = None
    for h in range(nh):
        for a in range(na):
            for b in range(na):
                prod = vzero(na)
                for k, v in A.mult[a][b].items():
                    prod[k] = prod[k] + v
                lhs = dapply(action, unit_vec(nh, h), prod)
                rhs = vzero(na)
                for (h1, h2), v in H.comult[h].items():
                    left = dapply(action, unit_vec(nh, h1), unit_vec(na, a))
                    right = dapply(action, unit_vec(nh, h2), unit_vec(na, b))
                    rhs = [x + v * y if y else x
                           for x, y in zip(rhs, dmul(A, left, right))]
                if lhs != rhs:
                    witness = (h, a, b)
                    break
            if witness:
                break
        if witness:
            break
    rep.add("measuring", witness is None, witness)

    witness = None
    for h in range(nh):
        img = dapply(action, unit_vec(nh, h), A.unit)
        eps = H.counit[h]
        target = [eps * x for x in A.unit]
        if img != target:
            witness = h
            break
    rep.add("unit_preserved", witness is None, witness)

    witness = None
    for h in range(nh):
        sh_star = dstar(H, dantipode(H, unit_vec(nh, h)))
        for a in range(na):
            lhs = dstar(A, dapply(action, unit_vec(nh, h), unit_vec(na, a)))
            rhs = dapply(action, sh_star, dstar(A, unit_vec(na, a)))
            if lhs != rhs:
                witness = (h, a)
                break
        if witness:
            break
    rep.add("star_compatibility", witness is None, witness)
    return rep


def _dense_pair(P: HopfPairing, q: Vec, h: Vec) -> Scalar:
    tot = Scalar.zero()
    for i, qi in enumerate(q):
        if qi:
            row = P.matrix[i]
            for j, hj in enumerate(h):
                if hj and row[j]:
                    tot = tot + qi * hj * row[j]
    return tot


def oracle_validate_pairing(P: HopfPairing) -> Report:
    """The pairing laws, each side paired from dense unit vectors."""
    rep = Report("hopf pairing")
    Q, H, n_q, n_h = P.Q, P.H, P.Q.dim, P.H.dim

    witness = None
    for a in range(n_q):
        for b in range(n_q):
            for c in range(n_h):
                prod = vzero(n_q)
                for k, v in Q.mult[a][b].items():
                    prod[k] = prod[k] + v
                lhs = _dense_pair(P, prod, unit_vec(n_h, c))
                rhs = Scalar.zero()
                for (c1, c2), v in H.comult[c].items():
                    rhs = rhs + v * P.matrix[a][c1] * P.matrix[b][c2]
                if lhs != rhs:
                    witness = (a, b, c)
                    break
            if witness:
                break
        if witness:
            break
    rep.add("multiplicative_left", witness is None, witness)

    witness = None
    for a in range(n_q):
        for c in range(n_h):
            for d in range(n_h):
                prod = vzero(n_h)
                for k, v in H.mult[c][d].items():
                    prod[k] = prod[k] + v
                lhs = _dense_pair(P, unit_vec(n_q, a), prod)
                rhs = Scalar.zero()
                for (a1, a2), v in Q.comult[a].items():
                    rhs = rhs + v * P.matrix[a1][c] * P.matrix[a2][d]
                if lhs != rhs:
                    witness = (a, c, d)
                    break
            if witness:
                break
        if witness:
            break
    rep.add("multiplicative_right", witness is None, witness)

    ok = all(_dense_pair(P, Q.unit, unit_vec(n_h, c))
             == H.counit[c] for c in range(n_h))
    rep.add("unit_pairs_to_counit", ok)
    ok = all(_dense_pair(P, unit_vec(n_q, a), H.unit)
             == Q.counit[a] for a in range(n_q))
    rep.add("counit_pairs_to_unit", ok)

    witness = None
    for a in range(n_q):
        for c in range(n_h):
            lhs = _dense_pair(P, dantipode(Q, unit_vec(n_q, a)),
                              unit_vec(n_h, c))
            rhs = _dense_pair(P, unit_vec(n_q, a),
                              dantipode(H, unit_vec(n_h, c)))
            if lhs != rhs:
                witness = (a, c)
                break
        if witness:
            break
    rep.add("antipode_law", witness is None, witness)

    witness = None
    for a in range(n_q):
        for c in range(n_h):
            lhs = _dense_pair(P, dstar(Q, unit_vec(n_q, a)),
                              unit_vec(n_h, c))
            rhs = _dense_pair(
                P, unit_vec(n_q, a),
                dstar(H, dantipode(H, unit_vec(n_h, c)))).conj()
            if lhs != rhs:
                witness = (a, c)
                break
        if witness:
            break
    rep.add("star_law", witness is None, witness, note=PAIRING_STAR_NOTE)
    return rep


def oracle_validate_algebra(A: StarAlgebra) -> Report:
    """Axiom-by-axiom check with a witness basis tuple on first failure."""
    rep = Report(f"algebra {A.name}".strip())
    n = A.dim

    witness = None
    for i in range(n):
        for j in range(n):
            ij = A.mult[i][j]
            for k in range(n):
                left = _dense_compose(A, ij, k, right=True)
                right = _dense_compose(A, A.mult[j][k], i, right=False)
                if left != right:
                    witness = (i, j, k)
                    break
            if witness:
                break
        if witness:
            break
    rep.add("associativity", witness is None, witness)

    witness = None
    for j in range(n):
        ej = unit_vec(n, j)
        if dmul(A, A.unit, ej) != ej or dmul(A, ej, A.unit) != ej:
            witness = j
            break
    rep.add("unit", witness is None, witness)

    witness = None
    for i in range(n):
        twice = dstar(A, dstar(A, unit_vec(n, i)))
        if twice != unit_vec(n, i):
            witness = i
            break
    rep.add("star_involutive", witness is None, witness)

    witness = None
    for i in range(n):
        for j in range(n):
            lhs = dstar(A, [_dense_get(A.mult[i][j], k, n) for k in range(n)])
            rhs = dmul(A, dstar(A, unit_vec(n, j)),
                       dstar(A, unit_vec(n, i)))
            if lhs != rhs:
                witness = (i, j)
                break
        if witness:
            break
    rep.add("star_antimultiplicative", witness is None, witness)

    if A.state is not None:
        st = analyze_state(A)
        rep.add("state_normalized",
                A.apply_state(sparse(A.unit)) == Scalar.one())
        rep.add("state_hermitian", st.hermitian)
        rep.add("state_tracial", st.tracial)
        rep.add("state_faithful_exact", st.faithful)
        rep.add("state_positive_numerical", bool(st.positive),
                note=f"float verdict at tolerance {POSITIVITY_TOL}")
    return rep


def _dense_get(sparse: dict, k: int, n: int) -> Scalar:
    return sparse.get(k, Scalar.zero())


def _dense_compose(A: StarAlgebra, sparse: dict, idx: int, right: bool) -> Vec:
    # right=True: (sparse) * e_idx ; right=False: e_idx * (sparse)
    out = vzero(A.dim)
    for k, v in sparse.items():
        target = A.mult[k][idx] if right else A.mult[idx][k]
        for m, w in target.items():
            out[m] = out[m] + v * w
    return out


def cyclic_diagonal_action(n: int, exponents: list) -> ModuleAlgebraAction:
    """C[Z_n] acting on Mat_k by Ad diag(zeta_n^e), over Q(zeta_n).

    g . E_ab = zeta_n^(g (e_a - e_b)) E_ab on the matrix units.
    """
    from hopfgal.hopf import group_algebra

    k = len(exponents)
    H = group_algebra([[(g + h) % n for h in range(n)] for g in range(n)],
                      name=f"CZ{n}")
    act = [[{a * k + b: Scalar.root_of_unity(n, g * (exponents[a]
                                                      - exponents[b]))}
            for a in range(k) for b in range(k)] for g in range(n)]
    return ModuleAlgebraAction(H, mat_algebra(k), act,
                               name=f"Ad diag on Mat{k} by Z{n}")


def report_summary(rep: Report) -> tuple:
    """Everything a Report states: its title and each check in order."""
    return rep.title, [(c.name, c.passed, c.witness, c.note)
                       for c in rep.checks]


def oracle_matrix_commutant(gens: list, n: int) -> DenseBasis:
    """{X : X A = A X for every dense A}, flattened, by dense elimination."""
    zero = Scalar.zero()
    rows = []
    for A in gens:
        for i in range(n):
            for j in range(n):
                # (X A - A X)[i][j] = sum_k X[i][k] A[k][j] - A[i][k] X[k][j]
                row = {}
                for k in range(n):
                    row[i * n + k] = row.get(i * n + k, zero) + A[k][j]
                    row[k * n + j] = row.get(k * n + j, zero) - A[i][k]
                if any(row.values()):
                    rows.append(row)
    return DenseBasis(n * n, *oracle_kernel(rows, n * n))


def oracle_bimodule_endos(sp: SmashProduct) -> DenseBasis:
    """A-bimodule endomorphisms of A x| H as a commutant in End(total)."""
    total, na, nt = sp.total, sp.dim_A, sp.total.dim
    emb = [embed_A_vec(sp, unit_vec(na, a)) for a in range(na)]
    gens = [_mult_matrix(total, v, left=True) for v in emb]
    gens += [_mult_matrix(total, v, left=False) for v in emb]
    return oracle_matrix_commutant(gens, nt)


def _mult_matrix(A: StarAlgebra, x: Vec, left: bool) -> list:
    """Dense matrix of y -> x y (left) or of y -> y x, column by column."""
    n = A.dim
    out = [[Scalar.zero()] * n for _ in range(n)]
    for i, xi in enumerate(x):
        if xi:
            for j in range(n):
                line = A.mult[i][j] if left else A.mult[j][i]
                for k, m in line.items():
                    out[k][j] = out[k][j] + xi * m
    return out


# -- dense operators of the Galois and Banica layers ---------------------------
#
# The maps that galois and banica build as sparse operators, as the dense
# matrices they were before: each column is the image of a basis vector,
# accumulated into a dense vector and transposed into rows at the end.


def oracle_dual_endo(sp: SmashProduct, lam: Vec) -> list:
    """T_lam(a x| h) = a x| h_1 lam(h_2) for a functional lam on H."""
    H = sp.action.hopf
    na, nh = sp.dim_A, sp.dim_H
    nt = sp.total.dim
    cols = []
    for a in range(na):
        for h in range(nh):
            img = vzero(nt)
            for (h1, h2), v in H.comult[h].items():
                if lam[h2]:
                    idx = a * nh + h1
                    img[idx] = img[idx] + v * lam[h2]
            cols.append(img)
    return [[cols[j][t] for j in range(nt)] for t in range(nt)]


def oracle_endo_from_functional(sp: SmashProduct, psi_rows: list) -> list:
    """The A-bimodule endomorphism a x| h -> (a x| h_1) psi(h_2)."""
    total = sp.total
    H = sp.action.hopf
    na, nh, nt = sp.dim_A, sp.dim_H, total.dim
    cols = []
    for a in range(na):
        for h in range(nh):
            img = vzero(nt)
            for (h1, h2), v in H.comult[h].items():
                base = embed_A_vec(sp, unit_vec(na, a))
                left = dmul(total, base, embed_H_vec(sp, unit_vec(nh, h1)))
                term = dmul(total, left, psi_rows[h2])
                img = [x + v * y if y else x for x, y in zip(img, term)]
            cols.append(img)
    return [[cols[j][t] for j in range(nt)] for t in range(nt)]


def oracle_expectation(B, sp: SmashProduct, H, table: list) -> list:
    """E(b (x) a x| h) = b0 (x) a x| h2 tau(h1 S(b1))."""
    nb, nh, nt = B.alg.dim, H.dim, sp.total.dim
    na = sp.dim_A
    dim = nb * nt
    cols = []
    for b in range(nb):
        for a in range(na):
            for h in range(nh):
                img = vzero(dim)
                for (b0, b1), v in B.coact[b].items():
                    for (h1, h2), w in H.comult[h].items():
                        coeff = table[b1][h1]
                        if coeff:
                            dst = b0 * nt + (a * nh + h2)
                            img[dst] = img[dst] + v * w * coeff
                cols.append(img)
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


def oracle_lambda_operator(B, phi: Vec) -> list:
    """Lambda(phi) b = b_0 phi(b_1) on the comodule algebra B."""
    nb = B.alg.dim
    cols = []
    for b in range(nb):
        img = vzero(nb)
        for (b0, b1), v in B.coact[b].items():
            if phi[b1]:
                img[b0] = img[b0] + v * phi[b1]
        cols.append(img)
    return [[cols[j][i] for j in range(nb)] for i in range(nb)]


def report_passed(doc) -> bool:
    """False when any object anywhere in doc has "passed": false."""
    if isinstance(doc, dict):
        if "passed" in doc and isinstance(doc["passed"], bool):
            if not doc["passed"]:
                return False
        return all(report_passed(v) for v in doc.values())
    if isinstance(doc, list):
        return all(report_passed(v) for v in doc)
    return True


# -- conditional expectation --------------------------------------------------


def vsub(a: Vec, b: Vec) -> Vec:
    return [x - y for x, y in zip(a, b)]


def oracle_conditional_expectation(M: StarAlgebra, N: Subspace) -> Mat:
    """Dense matrix of the tau-preserving conditional expectation onto N,
    built column by column through mul_vec, apply_state and mat_vec.

    gram[i][j] = <b_i, b_j>, and the coefficients of E(x) solve
    gram^T c = (<x, b_i>)_i.
    """
    if M.state is None:
        raise InputError("conditional expectation needs a state")
    if not is_unital_star_subalgebra(N, M):
        raise InputError("not a subalgebra")
    basis = basis_rows(N)
    k = len(basis)
    stars = [dstar(M, b) for b in basis]
    gram = []
    for i in range(k):
        row = []
        for j in range(k):
            row.append(M.apply_state(sparse(dmul(M, stars[j], basis[i]))))
        gram.append(row)
    try:
        gram_inv = mat_inverse([[gram[j][i] for j in range(k)]
                                for i in range(k)])
    except InputError as e:
        raise InputError("degenerate form") from e
    # E(x) = sum_j c_j b_j with sum_j <b_j, b_i> c_j = <x, b_i>
    cols = []
    for x_idx in range(M.dim):
        x = unit_vec(M.dim, x_idx)
        rhs = [M.apply_state(sparse(dmul(M, stars[i], x)))
               for i in range(k)]
        coeffs = mat_vec(gram_inv, rhs)
        col = vzero(M.dim)
        for c, b in zip(coeffs, basis):
            if c:
                col = [u + c * w for u, w in zip(col, b)]
        cols.append(col)
    return [[cols[j][i] for j in range(M.dim)] for i in range(M.dim)]


def expectation_report(M: StarAlgebra, N: Subspace, E: Mat) -> Report:
    """Idempotence, bimodularity, trace and star preservation, exactly."""
    rep = Report("conditional expectation")
    n = M.dim
    rep.add("idempotent", mat_mul(E, E) == E)
    basis = basis_rows(N)
    ok = True
    for b in basis:
        if any(vsub(mat_vec(E, b), b)):
            ok = False
    rep.add("fixes_subalgebra", ok)
    ok = True
    for a in basis:
        for b in basis:
            for x_idx in range(n):
                x = unit_vec(n, x_idx)
                lhs = mat_vec(E, dmul(M, a, dmul(M, x, b)))
                rhs = dmul(M, a, dmul(M, mat_vec(E, x), b))
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    rep.add("bimodular", ok)
    ok = all(
        M.apply_state(sparse(mat_vec(E, unit_vec(n, i))))
        == M.apply_state({i: Scalar.one()})
        for i in range(n)
    )
    rep.add("state_preserving", ok)
    ok = all(
        mat_vec(E, dstar(M, unit_vec(n, i)))
        == dstar(M, mat_vec(E, unit_vec(n, i)))
        for i in range(n)
    )
    rep.add("star_preserving", ok)
    rep.add("unital", mat_vec(E, M.unit) == M.unit)
    return rep

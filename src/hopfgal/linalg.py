"""Exact linear algebra over the cyclotomic scalars.

A vector is a sparse dict index -> Scalar (a missing key is zero), an
operator on k^n is a dict row -> sparse row (a missing row or entry is
zero), and a Subspace is its sparse echelon rows.  Dense lists of Scalar
remain only where a table is stored or emitted densely (units, states,
star and antipode tables, pairings); dense_row is the one place a sparse
vector is written as a dense row.

All row elimination runs in one sparse echelon store: `rows` maps a pivot
p to the tail {k: c} (all k < p, no pivot among them) of the normalized
row x_p + sum_k c x_k.  A new row is reduced against the tails of the
pivots it touches, normalized at its largest remaining column and
eliminated from the tails that hold that column; only nonzero entries are
ever visited.  KernelSolver keeps constraint rows there and reads the
nullspace off the free columns.  SpanBuilder keeps vectors there with the
columns reversed (j -> n-1-j), so the largest stored column is the leading
one and the rows read back are the canonical RREF of the span; a Subspace
holds exactly these rows, and is_nonsingular, Subspace membership and
residues run on them.  preimages keeps tagged columns in the same store,
and op_inverse and projection run on it.

A table or a functional is evaluated on a vector through sparse_apply (a
rank-3 tensor such as mult or act on two sparse vectors), sparse_comb
(sparse rows on one) or dot (a functional).  The vector methods of the
other modules are built on these, so the Scalar order of every entry they
return is decided here.  Any other keyed sum of terms, such as a
structure tensor built from products of table entries, is collect, the
trace of an operator is op_trace, and a tensor product of two sparse
vectors, flattened as i n + j, is kron: how terms are summed, and when a
zero is dropped, is decided in this module only.

Outside this module, kernels and closures have one way in each.
kernel_of states "all x with L(x) = 0": the caller hands it the nonzero
entries of L as (row key, column, value) triples, commuting_kernel
"all x with sum_c x_c ops[c] commuting with these", and fixed_space "all
x with T_k x = chi_k x for every k": the invariants and coinvariants of
actions and coactions, the Haar integral and the Lambda-invariant states
of banica.  normalized scales such an x to 1 at the unit.  SpanBuilder.close
states "the smallest span that holds these elements and is closed under
these maps": the operator algebras of jones, the generated subalgebras
and the generating sets of algebra all grow their spans through it.

The sparse operator form, a dict row -> sparse row, is the one operator
form of the package: every operator of jones, galois and banica (lambda(x),
e_N, T_lam, the bimodule endomorphisms, E, the Lambda operators, the Gram
forms) and every span matrix of measuring is built with op_from_entries
and combined with op_mul, op_vec, op_transpose and op_inverse.
The operator helpers (op_mul, op_vec, op_adjoint, matrix_commutant,
operator_algebra_span) visit nonzero entries only, and an operator enters
a span of End(k^n) (op_span) as its nonzeros at the flat columns i n + j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

from .errors import InputError
from .scalars import Scalar, axpy

Vec = list
Mat = list


# -- vector helpers -------------------------------------------------------


def vzero(n: int, order: int = 1) -> Vec:
    z = Scalar.zero(order)
    return [z] * n


def unit_vec(n: int, i: int, order: int = 1) -> Vec:
    v = vzero(n, order)
    v[i] = Scalar.one(order)
    return v


def conjugate_linear(fn):
    """Mark a map (or a method) of vectors as f(c x) = conj(c) f(x)."""
    fn.conjugate_linear = True
    return fn


# -- sparse vectors ---------------------------------------------------------
#
# A sparse vector is a dict index -> Scalar; a missing key counts as zero.
# The structure constants are stored this way (mult[i][j], act[h][a] and
# comult[i]), so these helpers evaluate the axioms on them directly.


def sparse(v: Vec) -> dict:
    """The nonzero entries of a dense vector."""
    return {k: x for k, x in enumerate(v) if x}


def nonzero(x: dict) -> dict:
    """The nonzero entries of a sparse vector."""
    return {k: v for k, v in x.items() if v}


def dense_row(x: dict, n: int, order: int = 1) -> Vec:
    """x as a dense row of length n with zeros of the given order: the one
    place a sparse vector becomes dense."""
    out = [Scalar.zero(order)] * n
    for k, v in x.items():
        out[k] = v
    return out


def sparse_conj(x: dict) -> dict:
    return {k: v.conj() for k, v in x.items()}


def sparse_add(out: dict, x: dict, c: Scalar | None = None) -> dict:
    """out += c x in place (c = 1 when None); returns out."""
    for k, v in x.items():
        if c is None:
            out[k] = out[k] + v if k in out else v
        else:
            out[k] = axpy(out[k], c, v) if k in out else c * v
    return out


def sparse_comb(rows, x: dict) -> dict:
    """sum_i x_i rows[i] for sparse rows."""
    out: dict = {}
    for i, xi in x.items():
        sparse_add(out, rows[i], xi)
    return out


def sparse_apply(tensor, x: dict, y: dict) -> dict:
    """sum_{i,j} x_i y_j tensor[i][j] for a rank-3 tensor of sparse rows.

    With tensor = mult this is the product xy, with tensor = act it is the
    action x . y.
    """
    out: dict = {}
    for i, xi in x.items():
        plane = tensor[i]
        for j, yj in y.items():
            sparse_add(out, plane[j], xi * yj)
    return out


def dot(x: dict, v) -> Scalar:
    """sum_k x_k v_k over the keys of x where v_k != 0, for v dense or
    sparse.

    A zero x_k is not skipped: its term still lifts the order of the sum.
    With v a functional this evaluates it at x.
    """
    at = v.get if isinstance(v, dict) else v.__getitem__
    tot = Scalar.zero()
    for k, xk in x.items():
        vk = at(k)
        if vk:
            tot = axpy(tot, xk, vk)
    return tot


def kron(x: dict, y: dict, n: int) -> dict:
    """x (x) y for sparse x and y, y in k^n: {i n + j: x_i y_j}."""
    return {i * n + j: a * b for i, a in x.items() for j, b in y.items()}


def collect(terms) -> dict:
    """sum value e_key over (key, value) pairs, as a sparse vector.

    Keys are any hashables (indices or index tuples).  A key whose terms
    cancel is dropped; the first term of a key is kept as it is, not added
    to a zero.
    """
    out: dict = {}
    for k, v in terms:
        out[k] = out[k] + v if k in out else v
    return nonzero(out)


def sparse_ne(a: dict, b: dict) -> bool:
    zero = Scalar.zero()
    return any(a.get(k, zero) != b.get(k, zero) for k in set(a) | set(b))


# -- sparse operators -------------------------------------------------------
#
# An operator is a dict row -> sparse row; a missing row or entry is zero.
# Every operator built here stores no zero entry and no empty row, so two
# operators are equal exactly when their dicts are.


def op_from_entries(entries) -> dict:
    """The operator whose (row, column) entry is the sum of its triples."""
    out: dict = {}
    for i, j, v in entries:
        row = out.setdefault(i, {})
        row[j] = row[j] + v if j in row else v
    pruned = {i: nonzero(row) for i, row in out.items()}
    return {i: row for i, row in pruned.items() if row}


def op_trace(A: dict) -> Scalar:
    """sum_i A[i][i], from a zero of order 1."""
    return sum((row[i] for i, row in A.items() if i in row), Scalar.zero())


def op_sparse(A: Mat) -> dict:
    """The operator of a dense matrix (or of a list of vectors as rows)."""
    return op_from_entries((i, j, a) for i, row in enumerate(A)
                           for j, a in enumerate(row))


def op_mul(A: dict, B: dict) -> dict:
    """The product A B."""
    out = {}
    for i, row in A.items():
        acc: dict = {}
        for p, a in row.items():
            if p in B:
                sparse_add(acc, B[p], a)
        acc = nonzero(acc)
        if acc:
            out[i] = acc
    return out


def op_vec(A: dict, x: dict) -> dict:
    """A x for a sparse vector x."""
    out = {}
    for i, row in A.items():
        tot = None
        for j, a in row.items():
            if j in x:
                tot = a * x[j] if tot is None else tot + a * x[j]
        if tot:
            out[i] = tot
    return out


def op_transpose(A: dict) -> dict:
    return op_from_entries((j, i, a) for i, row in A.items()
                           for j, a in row.items())


def op_adjoint(A: dict) -> dict:
    """The conjugate transpose A^dagger."""
    return op_from_entries((j, i, a.conj()) for i, row in A.items()
                           for j, a in row.items())


def op_dense(A: dict, n: int) -> Mat:
    return [dense_row(A.get(i, {}), n) for i in range(n)]


def op_flat(A: dict, n: int) -> dict:
    """The nonzero entries of A at the flat columns i n + j of End(k^n)."""
    return {i * n + j: a for i, row in A.items() for j, a in row.items()}


def op_unflat(v: dict, n: int) -> dict:
    """The operator at the flat columns of a sparse vector of End(k^n)."""
    return op_from_entries((k // n, k % n, x) for k, x in v.items())


# -- matrix helpers -------------------------------------------------------


def identity_matrix(n: int, order: int = 1) -> Mat:
    return [unit_vec(n, i, order) for i in range(n)]


def mat_mul(A: Mat, B: Mat) -> Mat:
    m, k, n = len(A), len(B), len(B[0]) if B else 0
    order = 1
    zero = Scalar.zero(order)
    out = [[zero] * n for _ in range(m)]
    for i in range(m):
        Ai = A[i]
        Oi = out[i]
        for p in range(k):
            a = Ai[p]
            if a:
                Bp = B[p]
                for j in range(n):
                    b = Bp[j]
                    if b:
                        Oi[j] = Oi[j] + a * b
    return out


def transpose(A: Mat) -> Mat:
    if not A:
        return []
    return [list(col) for col in zip(*A)]


# -- the echelon store ----------------------------------------------------


def _reduce(rows: dict, r: dict) -> dict:
    """r minus the combination of stored rows that clears its pivots.

    r is a sparse row without zero entries and is consumed.  No tail holds
    a pivot column, so one pass over the pivots of r leaves none behind.
    The coefficient is negated once per nonempty tail, and each entry is
    one fused x + c y.
    """
    for p in [j for j in r if j in rows]:
        c = r.pop(p)
        if rows[p]:
            c = -c
            for k, v in rows[p].items():
                r[k] = axpy(r[k], c, v) if k in r else c * v
    return {j: c for j, c in r.items() if c}


def _eliminate(rows: dict, r: dict):
    """Add the sparse row r to the store.

    Returns (new pivot, inverse of the entry normalized there), or None
    when r lies in the span of the stored rows.
    """
    r = _reduce(rows, r)
    if not r:
        return None
    q = max(r)
    inv = r.pop(q).inverse()
    tail = {k: v * inv for k, v in r.items()}
    for t in [t for t in rows.values() if q in t]:
        c = -t.pop(q)
        for k, v in tail.items():
            if k in t:
                x = axpy(t[k], c, v)
                if x:
                    t[k] = x
                else:
                    del t[k]
            else:
                t[k] = c * v
    rows[q] = tail
    return q, inv


def _reversed(v, n: int) -> dict:
    """The nonzero entries of v (dense, or sparse) keyed by column n-1-j.

    Raises when v has an entry outside the n columns: a dense v of another
    length, or a sparse key outside range(n), zero or not.
    """
    if isinstance(v, dict):
        if v and (min(v) < 0 or max(v) >= n):
            raise InputError("ambient dimension mismatch")
        items = v.items()
    elif len(v) != n:
        raise InputError("ambient dimension mismatch")
    else:
        items = enumerate(v)
    last = n - 1
    return {last - j: x for j, x in items if x}


def rref(rows: list[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form; returns nonzero rows and pivot columns.

    Pivot entries are 1 and every other entry of a pivot column is 0, so
    the output is the canonical form of the row space.
    """
    rows = list(rows)
    if not rows:
        return [], []
    n = len(rows[0])
    sub = span_of(rows, n)
    return ([dense_row(v, n, order) for v, order in zip(sub.vectors,
                                                         sub.orders)],
            sub.pivots)


# -- subspaces --------------------------------------------------------------


@dataclass
class Subspace:
    """A subspace of coordinate space, held as its canonical RREF rows.

    _rows is SpanBuilder's store in basis order: the row with pivot p is
    keyed by n-1-p and holds its tail {n-1-j: x} over the columns j > p,
    none a pivot.  _leads holds the row's pivot entry under the same key, a
    one of the order at which the row's zeros are written (to_json, rref).
    The RREF basis of a subspace is unique, so equality compares rows.
    """

    ambient_dim: int
    _rows: dict
    _leads: dict

    @staticmethod
    def from_vectors(vectors, ambient_dim: int) -> "Subspace":
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient_dim:
                raise InputError(
                    f"vector length {len(v)} in ambient of dim {ambient_dim}"
                )
        return span_of(vectors, ambient_dim)

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        keys = range(ambient_dim - 1, -1, -1)
        return Subspace(ambient_dim, {p: {} for p in keys},
                        {p: Scalar.one() for p in keys})

    @property
    def dim(self) -> int:
        return len(self._rows)

    @cached_property
    def pivots(self) -> list[int]:
        return [self.ambient_dim - 1 - p for p in self._rows]

    @property
    def orders(self) -> list[int]:
        """The order of each row, read from its lead: a row of vectors read
        from a workspace is of the workspace order, since every scalar is
        lifted to it as it is read."""
        return [self._leads[p].order for p in self._rows]

    @cached_property
    def vectors(self) -> list[dict]:
        """The basis as sparse vectors, keys increasing: the pivot one, then
        the tail.  Shared, so read only."""
        last = self.ambient_dim - 1
        return [{last - p: self._leads[p],
                 **{last - k: tail[k] for k in sorted(tail, reverse=True)}}
                for p, tail in self._rows.items()]

    def contains(self, v) -> bool:
        """v (dense, or sparse) lies in the subspace."""
        return not self.residue(v)

    def residue(self, v) -> dict:
        """v - sum_i v[p_i] b_i for v dense, or sparse, as a sparse vector.

        It lives on the non-pivot columns f, where it is a_f . v for the
        annihilator row a_f, so it is empty exactly when v lies in the
        subspace.
        """
        last = self.ambient_dim - 1
        return {last - k: x for k, x in
                _reduce(self._rows, _reversed(v, self.ambient_dim)).items()}

    def coordinates(self, v) -> Vec:
        """Coefficients of v (dense, or sparse) on the basis; raises if v
        is outside.

        An RREF basis vector is 1 at its own pivot and 0 at every other
        pivot, so the coefficient on b_i is the entry of v at p_i.
        """
        if not self.contains(v):
            raise InputError("vector not in subspace")
        if isinstance(v, dict):
            zero = Scalar.zero()
            return [v.get(p, zero) for p in self.pivots]
        return [v[p] for p in self.pivots]

    def contains_subspace(self, other: "Subspace") -> bool:
        """Every basis vector of other lies in the subspace, read from the
        sparse echelon rows of other."""
        self._check_ambient(other)
        one = Scalar.one()
        return not any(_reduce(self._rows, {p: one, **tail})
                       for p, tail in other._rows.items())

    def __eq__(self, other) -> bool:
        # equal RREF bases have the same pivots and nonzero entries
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self._rows == other._rows)

    def add(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return span_of(self.vectors + other.vectors, self.ambient_dim)

    def annihilator_rows(self) -> list[dict]:
        """Sparse rows r with r.x = 0 exactly for x in the subspace.

        The row of a free column c is e_c - sum b[c] e_p over the basis
        vectors b and their pivots p, read off the stored tails.
        """
        one = Scalar.one()
        last = self.ambient_dim - 1
        pivots = set(self.pivots)
        rows = {c: {c: one} for c in range(self.ambient_dim)
                if c not in pivots}
        for q, tail in self._rows.items():
            for k, x in tail.items():
                rows[last - k][last - q] = -x
        return list(rows.values())

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        solver = KernelSolver(self.ambient_dim)
        for row in self.annihilator_rows():
            solver.add_row(row)
        for row in other.annihilator_rows():
            solver.add_row(row)
        return solver.subspace()

    def image_conjlinear(self, fn) -> "Subspace":
        # The image of a subspace under a conjugate-linear bijection is the
        # span of the images of any basis.
        return span_of([fn(v) for v in self.vectors], self.ambient_dim)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise InputError("ambient dimension mismatch")

    def to_json(self):
        n = self.ambient_dim
        return {
            "ambient_dim": n,
            "basis": [[x.to_json() for x in dense_row(v, n, order)]
                      for v, order in zip(self.vectors, self.orders)],
        }


# -- incremental solvers -----------------------------------------------------


class KernelSolver:
    """Incrementally computed nullspace {x : r.x = 0 for all added rows r}.

    The constraint rows live in the sparse echelon store of this module:
    `rows` maps a pivot p to the tail {k: c} (all k < p, no pivot among
    them) of the normalized row x_p + sum_k c x_k.

    The kernel is read off the free columns: the vector of a free column f
    is e_f - sum_p tail_p[f] e_p.  Every tail entry lies left of its pivot,
    so the leading entry of that vector is the 1 at f and it vanishes at
    every other free column: the vectors already form the canonical RREF
    basis of the kernel.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: dict[int, dict] = {}

    @property
    def dim(self) -> int:
        return self.n - len(self.rows)

    def add_row(self, row: dict) -> bool:
        """Impose one constraint; returns True if the kernel shrank."""
        added = _eliminate(self.rows, nonzero(row))
        return added is not None

    def vectors(self) -> dict[int, dict]:
        """The kernel basis as sparse vectors, keyed by free column."""
        one = Scalar.one()
        out = {f: {f: one} for f in range(self.n) if f not in self.rows}
        for p, tail in self.rows.items():
            for k, c in tail.items():
                out[k][p] = -c
        return out

    def subspace(self) -> Subspace:
        """The kernel, its rows of order 1."""
        last, one = self.n - 1, Scalar.one()
        vectors = self.vectors()
        return Subspace(self.n,
                        {last - f: {last - k: x for k, x in v.items()
                                    if k != f}
                         for f, v in vectors.items()},
                        {last - f: one for f in vectors})


class SpanBuilder:
    """Incrementally built row space with fast membership testing.

    The rows live in KernelSolver's store with the columns reversed
    (j -> n-1-j), so the pivot of each stored row is its leading column
    and the rows read back are already the canonical RREF of the span.
    The zeros and the pivot one of a row read back take the cyclotomic
    order of the entry the row was normalized at, so a row whose entries
    share one order reads back in that order.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: dict[int, dict] = {}
        self.orders: dict[int, int] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return not _reduce(self.rows, _reversed(v, self.n))

    def insert(self, v) -> bool:
        """Add v (dense, or sparse) to the span; True if the dimension grew."""
        added = _eliminate(self.rows, _reversed(v, self.n))
        if added is None:
            return False
        q, inv = added
        self.orders[q] = inv.order
        return True

    def close(self, fresh: list, ops, flat=None) -> list:
        """Close the span under the linear maps ops; returns what it kept.

        fresh holds elements already in the span whose images are still
        due; it is consumed.  The last one is popped and each op is
        applied to it in order.  An image that grows the span (inserted as
        flat(image), or as itself when flat is None) is kept and pushed
        back.  The kept images come back in the order they were kept.
        """
        kept = []
        while fresh:
            x = fresh.pop()
            for op in ops:
                y = op(x)
                if self.insert(y if flat is None else flat(y)):
                    kept.append(y)
                    fresh.append(y)
        return kept

    def subspace(self) -> Subspace:
        keys = sorted(self.rows, reverse=True)
        return Subspace(self.n, {p: dict(self.rows[p]) for p in keys},
                        {p: Scalar.one(self.orders[p]) for p in keys})


# -- linear systems ----------------------------------------------------------


def preimages(columns: list[dict], targets) -> list[dict] | None:
    """For each target b, the x with sum_j x_j columns[j] = b that is zero
    off the pivot columns; None when some b lies outside their span.

    The pivot columns are those outside the span of the columns before
    them, and x is unique on them.  One elimination serves every target:
    column j enters the echelon store with a tag e_j at key -1 - j, below
    every coordinate key, so a pivot always lands on a coordinate and a
    stored row is (A y, y) for some y on the pivot columns.  A column that
    reduces to its tags alone is not a pivot column and is not stored.
    Reducing b leaves (b - A x, -x), whose coordinate part is empty exactly
    when b = A x.
    """
    one = Scalar.one()
    rows: dict = {}
    for j, col in enumerate(columns):
        r = _reduce(rows, {**nonzero(col), -1 - j: one})
        if max(r) >= 0:
            _eliminate(rows, r)
    out = []
    for b in targets:
        r = _reduce(rows, nonzero(b))
        if r and max(r) >= 0:
            return None
        out.append({-1 - k: -x for k, x in r.items()})
    return out


def op_inverse(A: dict, n: int) -> dict | None:
    """A^-1 for an operator on k^n, or None when A is singular: column i
    is the preimage of e_i, and one preimages elimination serves all n."""
    columns, one = op_transpose(A), Scalar.one()
    cols = preimages([columns.get(j, {}) for j in range(n)],
                     ({i: one} for i in range(n)))
    return None if cols is None else op_from_entries(
        (k, i, x) for i, col in enumerate(cols) for k, x in col.items())


def projection(B: dict, F: dict, k: int) -> dict | None:
    """B^T (F B^T)^-1 F for k rows b_i of B and f_i of F, or None when
    F B^T is singular: the projection onto span{b_i} along ker F."""
    B_t = op_transpose(B)
    inverse = op_inverse(op_mul(F, B_t), k)
    return None if inverse is None else op_mul(B_t, op_mul(inverse, F))


def kernel_of(entries, n: int) -> Subspace:
    """The nullspace {x in k^n : sum_col L[key][col] x_col = 0 for every key}.

    entries yields (row key, column, value) triples of L; triples at the
    same (key, column) add up.  Row keys are any mutually sortable labels,
    and the rows are imposed in sorted key order, so the result, Scalar
    orders included, does not depend on the order of the entries.
    """
    rows = op_from_entries(entries)
    solver = KernelSolver(n)
    for key in sorted(rows):
        solver.add_row(rows.pop(key))
    return solver.subspace()


def fixed_space(ops, values, n: int) -> Subspace:
    """{x in k^n : T_k x = chi_k x for every k}, for sparse operators T_k
    = ops[k] and scalars chi_k = values[k], through kernel_of.

    Row (k, i) is row i of T_k minus chi_k at column i; a zero chi_k adds
    no term.  Invariants, coinvariants, integrals and invariant states are
    each this space for some family of operators and character.
    """
    entries = [((k, i), j, v) for k, T in enumerate(ops)
               for i, row in T.items() for j, v in row.items()]
    entries += [((k, i), i, -chi) for k, chi in enumerate(values) if chi
                for i in range(n)]
    return kernel_of(entries, n)


def normalized(t: dict, u, n: int) -> Vec | None:
    """t / (t . u) as a dense row of length n, or None when t . u = 0."""
    val = dot(nonzero(t), u)
    if not val:
        return None
    c = val.inverse()
    return dense_row({k: c * x for k, x in t.items()}, n)


# -- operator algebra helpers -----------------------------------------------


def span_of(vectors, n: int) -> Subspace:
    """The span of dense or sparse vectors of k^n."""
    builder = SpanBuilder(n)
    for v in vectors:
        builder.insert(v)
    return builder.subspace()


def is_nonsingular(rows, n: int) -> bool:
    """The n dense or sparse rows of an n x n matrix are independent."""
    return span_of(rows, n).dim == n


def op_span(ops, n: int) -> Subspace:
    """The span of operators on k^n, flattened inside End(k^n)."""
    return span_of((op_flat(X, n) for X in ops), n * n)


def matrix_commutant(gens: list[dict], n: int,
                     known_dim: int | None = None) -> Subspace:
    """{X in End(k^n) : X A = A X for every generator A}, flattened as
    op_span flattens (entry (i, j) at i n + j).

    The rows (X A - A X)[i][j] are built one at a time, in (generator, i, j)
    order, from row i and column j of A.  known_dim is for a caller that
    has checked exactly that a subspace of that dimension commutes with
    every generator: elimination stops as soon as the kernel falls to
    known_dim, because the kernel then contains the commutant, which
    contains the checked subspace, and all three are equal (rank sandwich).
    """

    def rows():
        for A in gens:
            columns = op_transpose(A)
            for i in range(n):
                row_i = A.get(i, {})
                for j in range(n):
                    # sum_k X[i][k] A[k][j] - A[i][k] X[k][j]
                    row = {i * n + k: a
                           for k, a in columns.get(j, {}).items()}
                    for k, a in row_i.items():
                        c = k * n + j
                        row[c] = row[c] - a if c in row else -a
                    if any(row.values()):
                        yield row

    solver = KernelSolver(n * n)
    for row in rows():
        solver.add_row(row)
        if known_dim is not None and solver.dim <= known_dim:
            break
    return solver.subspace()


def commuting_kernel(ops: list[dict], fixed: list[dict]) -> Subspace:
    """The x with X = sum_c x_c ops[c] commuting with every F in fixed.

    The rows are the entries of X F - F X keyed (index of F, row, column),
    summed by kernel_of from the raw product terms: an entry whose terms
    cancel still lifts the order of its row, as op_mul would not.
    """
    def entries():
        for f, F in enumerate(fixed):
            for c, X in enumerate(ops):
                for t, row in X.items():
                    for p, a in row.items():
                        for s, y in F.get(p, {}).items():
                            yield (f, t, s), c, a * y
                for t, row in F.items():
                    for p, a in row.items():
                        for s, y in X.get(p, {}).items():
                            yield (f, t, s), c, -(a * y)
    return kernel_of(entries(), len(ops))


def operator_algebra_span(gens: list[dict], n: int) -> Subspace:
    """Span of the unital algebra of operators generated by gens.

    Every word in the generators is g.w for a generator g and a shorter
    word w, so closing the span under left multiplication by the
    generators alone reaches the whole algebra.
    """
    builder = SpanBuilder(n * n)
    flat = partial(op_flat, n=n)
    fresh = [X for X in [{i: {i: Scalar.one()} for i in range(n)}, *gens]
             if builder.insert(flat(X))]
    builder.close(fresh, [partial(op_mul, g) for g in gens], flat)
    return builder.subspace()

"""Exact solvers and subspace calculus."""

import ast
import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from hopfgal import linalg
from hopfgal.errors import InputError
from hopfgal.linalg import (
    KernelSolver,
    SpanBuilder,
    Subspace,
    collect,
    commuting_kernel,
    dense_row,
    dot,
    fixed_space,
    identity_matrix,
    kernel_of,
    mat_mul,
    matrix_commutant,
    normalized,
    op_adjoint,
    op_dense,
    op_inverse,
    op_mul,
    op_sparse,
    op_trace,
    op_vec,
    op_transpose,
    operator_algebra_span,
    preimages,
    projection,
    rref,
    span_of,
    sparse,
    transpose,
)
from hopfgal.scalars import Scalar, _context

from _oracles import (
    _dense_rref,
    _residue,
    basis_rows,
    flatten_matrix,
    mat_inverse,
    mat_vec,
    oracle_kernel,
    oracle_operator_algebra_span,
)
from builders import dual_number_action, sweedler4


def s(v):
    return Scalar.from_int(v)


def sm(rows):
    return [[s(x) for x in row] for row in rows]


def sv(row):
    return [s(x) for x in row]


def _solve(A, b):
    """preimages of one right-hand side b under the columns of A, dense."""
    cols = [sparse([row[j] for row in A]) for j in range(len(A[0]))]
    sol = preimages(cols, [sparse(b)])
    return None if sol is None else dense_row(sol[0], len(cols))


def test_solve_identity():
    A = identity_matrix(3)
    b = sv([4, 5, 6])
    assert _solve(A, b) == b


def test_solve_zero_matrix_full_space():
    # every x solves 0 x = 0; the solution is 0 off the (absent) pivots
    A = sm([[0, 0], [0, 0]])
    assert _solve(A, sv([0, 0])) == sv([0, 0])
    assert _solve(A, sv([0, 1])) is None


def test_solve_affine_line():
    # [[1,1],[1,1]] x = (1,1): solutions x0 + x1 = 1; column 1 is free
    A = sm([[1, 1], [1, 1]])
    assert _solve(A, sv([1, 1])) == sv([1, 0])
    assert _solve(A, sv([1, 2])) is None


def test_subspace_ops():
    e1 = Subspace.from_vectors([sv([1, 0])], 2)
    e2 = Subspace.from_vectors([sv([0, 1])], 2)
    v = Subspace.from_vectors([sv([1, 1]), sv([1, 0])], 2)
    assert v.intersect(v) == v
    assert e1.intersect(e2).dim == 0
    plus = Subspace.from_vectors([sv([1, 1])], 2)
    minus = Subspace.from_vectors([sv([1, -1])], 2)
    assert plus.add(minus) == Subspace.full(2)
    assert plus.add(minus).dim == 2


def test_subspace_membership_and_coordinates():
    w = Subspace.from_vectors([sv([1, 2, 0]), sv([0, 0, 1])], 3)
    assert w.contains(sv([2, 4, 7]))
    assert not w.contains(sv([1, 0, 0]))
    coords = w.coordinates(sv([3, 6, -1]))
    assert coords == [s(3), s(-1)]
    with pytest.raises(InputError):
        w.coordinates(sv([1, 0, 0]))


def test_subspace_canonical_equality():
    a = Subspace.from_vectors([sv([2, 2]), sv([0, 3])], 2)
    b = Subspace.from_vectors([sv([5, 0]), sv([1, 7])], 2)
    assert a == b


def test_ambient_mismatch():
    a = Subspace.from_vectors([sv([1, 0])], 2)
    b = Subspace.from_vectors([sv([1, 0, 0])], 3)
    with pytest.raises(InputError):
        a.intersect(b)


def test_rref_canonical():
    rows, pivots = rref(sm([[0, 2, 4], [1, 1, 1]]))
    assert pivots == [0, 1]
    assert rows == sm([[1, 0, -1], [0, 1, 2]])


def test_kernel_solver_matches_matrix_kernel():
    rng = random.Random(7)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = sm([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        ker = kernel_of(((i, j, x) for i, row in enumerate(A)
                         for j, x in enumerate(row)), n)
        for v in basis_rows(ker):
            assert all(not x for x in mat_vec(A, v))
        rows, pivots = rref(A)
        assert ker.dim == n - len(pivots)


def test_mat_inverse():
    A = sm([[2, 1], [1, 1]])
    Ai = mat_inverse(A)
    assert mat_mul(A, Ai) == identity_matrix(2)
    with pytest.raises(InputError):
        mat_inverse(sm([[1, 1], [1, 1]]))


def test_matrix_commutant_of_full_matrix_algebra_is_scalars():
    e12 = sm([[0, 1], [0, 0]])
    e21 = sm([[0, 0], [1, 0]])
    comm = matrix_commutant([op_sparse(e12), op_sparse(e21)], 2)
    assert comm.dim == 1
    assert comm.contains(flatten_matrix(identity_matrix(2)))


def test_operator_algebra_span_generates_mat2():
    e12 = sm([[0, 1], [0, 0]])
    span = operator_algebra_span(
        [op_sparse(e12), op_sparse(sm([[0, 0], [1, 0]]))], 2)
    assert span.dim == 4


def test_span_builder_membership():
    b = SpanBuilder(3)
    assert b.insert(sv([1, 1, 0]))
    assert b.insert(sv([0, 1, 1]))
    assert not b.insert(sv([1, 2, 1]))
    assert b.contains(sv([2, 3, 1]))
    assert not b.contains(sv([0, 0, 1]))


def test_kernel_solver_incremental_shrink():
    ks = KernelSolver(3)
    assert ks.dim == 3
    assert ks.add_row({0: s(1), 1: s(-1)})
    assert ks.dim == 2
    assert not ks.add_row({0: s(2), 1: s(-2)})
    assert ks.add_row({2: s(1)})
    sub = ks.subspace()
    assert sub.dim == 1
    assert sub.contains(sv([1, 1, 0]))


def test_subspace_dimension_laws_random_qi():
    # dim U + dim V = dim(U+V) + dim(U cap V) on random Q(i) subspaces
    from hopfgal.scalars import Scalar as S4

    rng = random.Random(33)

    def qi():
        return (S4.from_int(rng.randint(-2, 2), 4)
                + S4.root_of_unity(4) * S4.from_int(rng.randint(-2, 2), 4))

    for _ in range(25):
        n = rng.randint(1, 5)
        U = Subspace.from_vectors(
            [[qi() for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        V = Subspace.from_vectors(
            [[qi() for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        total = U.add(V)
        meet = U.intersect(V)
        assert U.dim + V.dim == total.dim + meet.dim
        assert total.contains_subspace(U) and total.contains_subspace(V)
        assert U.contains_subspace(meet) and V.contains_subspace(meet)
        # annihilator rows really cut out the subspace
        from hopfgal.linalg import KernelSolver

        ks = KernelSolver(n)
        for row in U.annihilator_rows():
            ks.add_row(row)
        assert ks.subspace() == U


def _random_scalar(rng, order):
    # small integer coordinates in the power basis, zero included
    phi = _context(order).phi
    return Scalar(order, [rng.randint(-2, 2) for _ in range(phi)])


def _random_subspaces(rng, n, order):
    """Nested and unrelated subspaces of k^n: spans from SpanBuilder and
    kernels from KernelSolver, of a prefix and of all of random vectors."""
    def vector():
        return [_random_scalar(rng, rng.choice([1, order]))
                if rng.random() < 0.5 else Scalar.zero() for _ in range(n)]
    vecs = [vector() for _ in range(rng.randint(1, n))]
    rows = [sparse(vector()) for _ in range(rng.randint(1, n))]
    out = []
    for k in (rng.randint(0, len(vecs)), len(vecs)):
        builder = SpanBuilder(n)
        for v in vecs[:k]:
            builder.insert(v)
        out.append(builder.subspace())
    for k in (rng.randint(0, len(rows)), len(rows)):
        solver = KernelSolver(n)
        for row in rows[:k]:
            solver.add_row(row)
        out.append(solver.subspace())
    return out


@pytest.mark.parametrize("order", [1, 4])
def test_contains_subspace_matches_per_vector_contains(order):
    rng = random.Random(900 + order)
    verdicts = set()
    for _ in range(40):
        n = rng.randint(1, 6)
        subspaces = _random_subspaces(rng, n, order)
        for X in subspaces:
            for Y in subspaces:
                verdict = X.contains_subspace(Y)
                assert verdict == all(X.contains(v) for v in Y.vectors)
                verdicts.add(verdict)
    assert verdicts == {True, False}
    with pytest.raises(InputError):
        Subspace.full(2).contains_subspace(Subspace.full(3))


@pytest.mark.parametrize("order", [1, 4, 5])
def test_kernel_solver_matches_dense_elimination(order):
    # random sparse systems over Q, Q(i) and Q(zeta_5), with zero entries
    # and redundant rows mixed in
    rng = random.Random(100 + order)
    probe_rng = random.Random(300 + order)
    for _ in range(40):
        n = rng.randint(1, 9)
        rows = []
        for _ in range(rng.randint(0, n + 2)):
            cols = rng.sample(range(n), rng.randint(1, min(3, n)))
            rows.append({c: _random_scalar(rng, order) for c in cols})
        if len(rows) >= 2 and rng.random() < 0.5:
            a, b = rng.sample(rows, 2)
            c = _random_scalar(rng, order)
            rows.append({j: a.get(j, Scalar.zero()) + c * b.get(j, Scalar.zero())
                         for j in set(a) | set(b)})
        ks = KernelSolver(n)
        shrank = sum(ks.add_row(r) for r in rows)
        basis, pivots = oracle_kernel(rows, n)
        sub = ks.subspace()
        assert ks.dim == sub.dim == len(basis) == n - shrank
        assert sub.pivots == pivots
        assert basis_rows(sub) == basis

        # the same rows as dense vectors: their row space
        dense = [[r.get(j, Scalar.zero()) for j in range(n)] for r in rows]
        span_rows, span_pivots = _dense_rref(dense, n)
        assert rref(dense) == (span_rows, span_pivots)
        builder = SpanBuilder(n)
        for i, v in enumerate(dense):
            grew = len(_dense_rref(dense[:i + 1], n)[1]) > \
                len(_dense_rref(dense[:i], n)[1])
            assert builder.insert(v) == grew
        assert builder.dim == len(span_pivots)
        built = builder.subspace()
        assert (basis_rows(built), built.pivots) == (span_rows, span_pivots)
        noise = [[_random_scalar(probe_rng, order) for _ in range(n)]
                 for _ in range(3)]
        for v in dense + noise + basis:
            inside = len(_dense_rref(span_rows + [v], n)[1]) == builder.dim
            assert builder.contains(v) == built.contains(v) == inside


@pytest.mark.parametrize("order", [1, 4, 5])
def test_subspace_residue_matches_dense_residue(order):
    # random subspaces over Q, Q(i) and Q(zeta_5) from the sparse span
    # (store in elimination order) and from the kernel solver, probed with
    # members, random vectors and sparse vectors
    rng = random.Random(500 + order)
    for _ in range(40):
        n = rng.randint(1, 8)
        vectors = [[_random_scalar(rng, order) if rng.random() < 0.6
                    else Scalar.zero() for _ in range(n)]
                   for _ in range(rng.randint(0, n))]
        rows = [sparse(v) for v in vectors]
        solver = KernelSolver(n)
        for row in rows:
            solver.add_row(row)
        for sub in (span_of(rows, n), solver.subspace()):
            probes = [[_random_scalar(rng, order) for _ in range(n)]
                      for _ in range(3)] + vectors + basis_rows(sub)
            for v in probes:
                want = _residue(sub, v)
                assert dense_row(sub.residue(v), n) == want
                assert dense_row(sub.residue(sparse(v)), n) == want
                assert all(want[p] == 0 for p in sub.pivots)
                assert sub.contains(v) == (not any(want))


@pytest.mark.parametrize("order", [1, 4])
def test_kernel_of_matches_oracle_kernel(order):
    # random entry lists over Q and Q(i) mixing orders 1 and 4: several
    # entries at one position, pairs that cancel to zero, a key whose row
    # cancels away entirely, and the same entries shuffled
    rng = random.Random(700 + order)
    for _ in range(40):
        n = rng.randint(1, 8)
        entries = []
        for _ in range(rng.randint(0, n + 2)):
            key = (rng.randint(0, 3), rng.randint(0, 3))
            for _ in range(rng.randint(1, 4)):
                entries.append((key, rng.randrange(n),
                                _random_scalar(rng, rng.choice([1, order]))))
        for key, col, _ in rng.sample(entries, len(entries) // 3):
            w = _random_scalar(rng, order)
            entries += [(key, col, w), (key, col, -w)]
        w = _random_scalar(rng, order)
        empty = (rng.randint(0, 4), 9)
        entries += [(empty, 0, w), (empty, 0, -w)]

        rows: dict = {}
        for key, col, v in entries:
            row = rows.setdefault(key, {})
            row[col] = row.get(col, Scalar.zero()) + v
        basis, pivots = oracle_kernel([rows[k] for k in sorted(rows)], n)
        sub = kernel_of(entries, n)
        assert sub.pivots == pivots
        assert basis_rows(sub) == basis

        # the rows are imposed in sorted key order, Scalar orders included
        ks = KernelSolver(n)
        for key in sorted(rows):
            ks.add_row(rows[key])
        assert sub.to_json() == ks.subspace().to_json()
        rng.shuffle(entries)
        assert kernel_of(iter(entries), n).to_json() == sub.to_json()


def test_kernel_of_imposes_rows_in_sorted_key_order():
    # two equal rows, one written in Q(i), the other listed first: the row
    # of the smaller key is imposed first and its Scalar orders are kept
    one, one_i = Scalar.one(), Scalar.one(4)
    entries = [((1,), 0, one), ((1,), 1, one),
               ((0,), 0, one_i), ((0,), 1, one_i)]
    sub = kernel_of(entries, 2)
    assert basis_rows(sub) == [[one, -one]]
    assert [x.order for x in basis_rows(sub)[0]] == [1, 4]


@pytest.mark.parametrize("order", [1, 4])
def test_fixed_space_is_the_kernel_of_t_minus_chi(order):
    # random sparse operators and characters, zero characters among them:
    # row (k, i) is row i of T_k minus chi_k at column i, and every basis
    # vector x has T_k x = chi_k x
    rng = random.Random(900 + order)
    for _ in range(30):
        n = rng.randint(1, 6)
        ops = [op_sparse([[_random_scalar(rng, rng.choice([1, order]))
                           if rng.random() < 0.4 else Scalar.zero()
                           for _ in range(n)] for _ in range(n)])
               for _ in range(rng.randint(1, 3))]
        chis = [_random_scalar(rng, order) if rng.random() < 0.7
                else Scalar.zero(order) for _ in ops]
        sub = fixed_space(ops, chis, n)
        rows = {(k, i): {j: -chi if j == i else Scalar.zero()
                         for j in range(n)}
                for k, chi in enumerate(chis) for i in range(n)}
        for (k, i), row in rows.items():
            for j, v in ops[k].get(i, {}).items():
                row[j] = row[j] + v
        basis, pivots = oracle_kernel([rows[key] for key in sorted(rows)], n)
        assert sub.pivots == pivots
        assert basis_rows(sub) == basis
        for x in sub.vectors:
            for T, chi in zip(ops, chis):
                assert dense_row(op_vec(T, x), n) \
                    == [chi * v for v in dense_row(x, n)]
        entries = [((k, i), j, v) for k, T in enumerate(ops)
                   for i, row in T.items() for j, v in row.items()]
        entries += [((k, i), i, -chi) for k, chi in enumerate(chis) if chi
                    for i in range(n)]
        assert sub.to_json() == kernel_of(entries, n).to_json()


def test_fixed_space_skips_a_zero_character():
    # a zero chi_k adds no term, so its order lifts no row
    T = {0: {1: Scalar.one()}}
    sub = fixed_space([T], [Scalar.zero(4)], 2)
    assert sub.to_json() == fixed_space([T], [Scalar.zero()], 2).to_json()
    assert _written_orders(sub) == [[1, 1]]
    # the swap of two coordinates fixes e_0 + e_1 at chi = 1, and negates
    # e_0 - e_1
    swap = {0: {1: Scalar.one()}, 1: {0: Scalar.one()}}
    assert basis_rows(fixed_space([swap], [s(1)], 2)) == [sv([1, 1])]
    assert basis_rows(fixed_space([swap], [s(-1)], 2)) == [sv([1, -1])]


def test_normalized_scales_to_one_at_the_unit():
    one, i = Scalar.one(), Scalar.root_of_unity(4)
    z1, z4 = Scalar.zero(), Scalar.zero(4)
    # t . u = 3 over Q
    assert normalized({0: s(2), 2: one}, sv([1, 5, 1]), 3) \
        == [Scalar.rational(2, 3), 0, Scalar.rational(1, 3)]
    # t . u = 2i
    assert normalized({0: s(2)}, [i, one], 2) == [-i, 0]
    # a zero entry of t does not change the scale
    assert normalized({0: one, 1: z4}, sv([1, 1]), 3) == [1, 0, 0]
    # t . u = 0, also when its terms cancel
    assert normalized({0: one, 1: one}, sv([1, -1]), 2) is None
    assert normalized({1: one}, [one, z1], 2) is None


def _modules():
    """(file name, syntax tree) of every package module."""
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _modules_outside_linalg():
    """(file name, syntax tree) of every package module but linalg."""
    return [(name, tree) for name, tree in _modules() if name != "linalg.py"]


def _calls(tree, name):
    """The calls under tree of a function or method named name."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == name]


def test_kernels_are_stated_through_kernel_of():
    # KernelSolver is the engine under kernel_of; no module outside linalg
    # drives it
    offenders = [f"{name}:{node.lineno}"
                 for name, tree in _modules_outside_linalg()
                 for fn in ("KernelSolver", "add_row")
                 for node in _calls(tree, fn)]
    assert offenders == []


# The functions outside linalg that state a kernel with kernel_of.  A
# fixed space T_k x = chi_k x is stated with fixed_space and a commutant of
# operators with commuting_kernel instead, so this list may only shrink.
KERNEL_OF_CALLERS = {
    ("algebra.py", "relative_commutant"),
    ("algebra.py", "unique_trace"),
    ("banica.py", "_lift_to_invariants"),
    ("galois.py", "_endo_values"),
    ("galois.py", "universal_morphism"),
    ("measuring.py", "constraint_subspace"),
    ("measuring.py", "largest_subcoalgebra"),
    ("measuring.py", "universal_measuring_within"),
}


def _callers(tree, name):
    """The innermost function around each call of name under tree (None
    at module level)."""
    calls = {id(node) for node in _calls(tree, name)}

    def visit(node, fn):
        if isinstance(node, ast.FunctionDef):
            fn = node.name
        if id(node) in calls:
            yield fn
        for child in ast.iter_child_nodes(node):
            yield from visit(child, fn)
    return set(visit(tree, None))


def test_kernel_of_callers_only_shrink():
    callers = {(name, fn) for name, tree in _modules_outside_linalg()
               for fn in _callers(tree, "kernel_of")}
    assert callers == KERNEL_OF_CALLERS


def test_closures_are_stated_through_close():
    # a worklist that grows a span is SpanBuilder.close; outside linalg no
    # function with a while loop inserts into a span, not even through a
    # helper defined inside it
    offenders = [f"{name}:{fn.name}"
                 for name, tree in _modules_outside_linalg()
                 for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 and _calls(fn, "insert")
                 and any(isinstance(node, ast.While)
                         for node in ast.walk(fn))]
    assert offenders == []


def test_vectors_are_made_dense_in_linalg_only():
    # a sparse vector becomes a dense row through linalg.dense_row alone;
    # no other module keeps a converter named dense
    offenders = [f"{name}:{node.lineno}"
                 for name, tree in _modules_outside_linalg()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and any(alias.name == "dense" for alias in node.names)]
    offenders += [f"{name}:{node.lineno}"
                  for name, tree in _modules_outside_linalg()
                  for node in _calls(tree, "dense")]
    assert offenders == []


def test_no_module_reflects_on_objects():
    # every object is read through the fields it declares: no module of
    # the package calls vars or hasattr
    offenders = [f"{name}:{node.lineno}" for name, tree in _modules()
                 for fn in ("vars", "hasattr") for node in _calls(tree, fn)]
    assert offenders == []


def test_scalars_are_lifted_as_they_are_read():
    # a workspace scalar is lifted to the workspace order by its reader;
    # outside scalars, serialize.scalar_from alone calls lift
    callers = {(name, fn) for name, tree in _modules()
               if name != "scalars.py" for fn in _callers(tree, "lift")}
    assert callers == {("serialize.py", "scalar_from")}


def _compares_a_call(node, name) -> bool:
    return isinstance(node, ast.Compare) and any(
        isinstance(x, ast.Call) and getattr(x.func, "id", None) == name
        for x in (node.left, *node.comparators))


def test_hopf_laws_are_stated_in_hopf():
    # each law of a comultiplication or coaction is one failure generator
    # of hopf: outside it no module multiplies or maps tensor legs,
    # convolves functionals or compares a coaction operator
    outside = [(name, tree) for name, tree in _modules() if name != "hopf.py"]
    offenders = [f"{name}:{node.lineno}" for name, tree in outside
                 for fn in ("tensor_product", "tensor_map", "convolution")
                 for node in _calls(tree, fn)]
    offenders += [f"{name}:{node.lineno}" for name, tree in outside
                  for node in ast.walk(tree)
                  if _compares_a_call(node, "coaction_operator")]
    assert offenders == []


def _writes_a_table_entry(fn) -> bool:
    """fn assigns to an entry t[i][j][k] of a rank-3 table."""
    return any(isinstance(target, ast.Subscript)
               and isinstance(target.value, ast.Subscript)
               and isinstance(target.value.value, ast.Subscript)
               for node in ast.walk(fn) if isinstance(node, ast.Assign)
               for target in node.targets)


def test_the_dual_algebra_of_a_coalgebra_is_built_once():
    # the multiplication of C* is the transposed Delta table: one function
    # writes it, and dual_hopf takes C* from that function
    writers = {(name, fn.name) for name, tree in _modules()
               for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and _writes_a_table_entry(fn)
               and any(getattr(node, "attr", None) == "comult"
                       for node in ast.walk(fn))}
    assert writers == {("hopf.py", "dual_algebra")}
    hopf_tree = dict(_modules())["hopf.py"]
    assert "dual_hopf" in _callers(hopf_tree, "dual_algebra")


def test_lights_test_has_one_home():
    # associator_failures on middles is Light's test, and light_generators
    # alone runs it: algebras, coalgebras (on C*) and the dual route of
    # largest_subcoalgebra share its premise and its bound
    callers = {(name, fn.name) for name, tree in _modules()
               for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in _calls(fn, "associator_failures")
               if len(node.args) + len(node.keywords) > 1}
    assert callers == {("algebra.py", "light_generators")}


def test_no_module_imports_inside_a_function():
    # a module's dependencies all show at its top; an import cycle is
    # broken by moving the work, not by importing late
    offenders = {f"{name}:{node.lineno}" for name, tree in _modules()
                 for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)
                 if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert offenders == set()


def test_the_package_is_what_the_cli_imports():
    # every module of the package serves a CLI job; example builders and
    # the fixture writer live under tests/
    src = Path(linalg.__file__).parent
    shown = ("import sys, hopfgal.cli; print(*sorted(m for m in sys.modules"
             " if m.startswith('hopfgal.')))")
    loaded = subprocess.run(
        [sys.executable, "-c", shown], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src.parent)},
    ).stdout.split()
    assert loaded == sorted(f"hopfgal.{path.stem}" for path in src.glob("*.py")
                            if path.stem != "__init__")


def _trees():
    """(file name, syntax tree) of every module of the package and of the
    tests."""
    paths = [*Path(linalg.__file__).parent.glob("*.py"),
             *Path(__file__).parent.glob("*.py")]
    for path in sorted(paths):
        yield path.name, ast.parse(path.read_text())


def test_no_module_reads_a_subspace_basis():
    # a Subspace is its sparse echelon rows: its basis is read as
    # vectors, and written densely by to_json alone
    assert not hasattr(Subspace.full(2), "basis")
    offenders = [f"{name}:{node.lineno}" for name, tree in _trees()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "basis"]
    assert offenders == []


def test_no_module_unwraps_an_algebra():
    # a HopfStarAlgebra is its StarAlgebra, not a wrapper around one, so no
    # module reads an algebra attribute or asks whether there is one
    offenders = [f"{name}:{node.lineno}" for name, tree in _trees()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "algebra"]
    offenders += [f"{name}:{node.lineno}" for name, tree in _trees()
                  for node in _calls(tree, "hasattr")
                  if any(isinstance(arg, ast.Constant)
                         and arg.value == "algebra" for arg in node.args)]
    assert offenders == []


def test_sparse_vectors_of_another_ambient_are_refused():
    # a sparse key outside range(ambient_dim), zero or not, is refused like
    # a dense vector of another length, by contains, residue and
    # coordinates alike
    full, one = Subspace.full(2), Scalar.one()
    for v in ({5: one}, {-1: one}, {2: Scalar.zero()}, [one] * 3):
        for method in (full.contains, full.residue, full.coordinates):
            with pytest.raises(InputError, match="ambient dimension mismatch"):
                method(v)
    assert full.contains({1: one}) and full.coordinates({0: one}) == [one, 0]


def _reads_target(expr, target) -> bool:
    """expr is the target itself, or target's container .get(its key, ...).

    Targets are compared by ast.unparse: ast.dump tells a Load from a
    Store.
    """
    text = ast.unparse
    if text(expr) == text(target):
        return True
    return (isinstance(target, ast.Subscript) and isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "get" and expr.args
            and text(expr.func.value) == text(target.value)
            and text(expr.args[0]) == text(target.slice))


def _accumulators(tree):
    """Hand-written sums.

    These are name += <term> (a list display or comprehension is
    concatenation and passes), t = t + <term> for a name or a keyed entry
    t, also as t = t.get(k, ...) + <term> and as either branch of a
    conditional expression, and sum(<generator>, <start>).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            if not isinstance(node.value, (ast.List, ast.ListComp)):
                yield node
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            value = node.value
            branches = ([value.body, value.orelse]
                        if isinstance(value, ast.IfExp) else [value])
            if any(isinstance(b, ast.BinOp) and isinstance(b.op, ast.Add)
                   and _reads_target(b.left, node.targets[0])
                   for b in branches):
                yield node
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "sum"
              and len(node.args) == 2
              and isinstance(node.args[0], ast.GeneratorExp)):
            yield node


def test_dot_products_are_stated_through_dot():
    # evaluating a table or a functional on a vector, and summing keyed
    # terms, is linalg's decision (dot, sparse_apply, sparse_comb,
    # collect, op_trace); Scalar arithmetic is scalars'
    offenders = [f"{name}:{node.lineno}"
                 for name, tree in _modules_outside_linalg()
                 if name != "scalars.py"
                 for node in _accumulators(tree)]
    assert offenders == []


def _unread_imports(path):
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.parent.name}/{path.name}:{node.lineno}:{name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (name := (alias.asname or alias.name).split(".")[0])
            not in read]


def test_every_import_is_read():
    # no linter runs on this tree; an import left behind by a refactor
    # shows here
    paths = [*Path(linalg.__file__).parent.glob("*.py"),
             *Path(__file__).parent.glob("*.py")]
    assert [x for path in sorted(paths) for x in _unread_imports(path)] == []


def _pin(v):
    """Each entry of v (or v itself) as (value, cyclotomic order)."""
    return [(x, x.order) for x in v] if isinstance(v, list) else (v, v.order)


def _pins(x: dict) -> dict:
    """Each entry of a sparse vector as (value, cyclotomic order)."""
    return {k: _pin(v) for k, v in x.items()}


def test_vector_methods_keep_scalar_orders():
    # certificates show Scalar orders, so the vector methods must give what
    # the hand-written loops gave: an entry whose order-4 terms cancel is
    # kept as an order-4 zero, an entry no term reaches is missing (an
    # order-1 zero when written), and a zero entry of an argument is
    # skipped like a missing one
    one, i = Scalar.one(4), Scalar.root_of_unity(4)
    z1, z4 = Scalar.zero(), Scalar.zero(4)
    H = sweedler4()   # basis 1, g, x, gx

    # (g + x)(g + x) = 1 + gx - gx
    gx = {0: z4, 1: one, 2: one, 3: z4}
    out = H.mul_vec(gx, gx)
    assert _pins(out) == {0: (1, 4), 3: (0, 4)}
    assert _pin(dense_row(out, 4)) == [(1, 4), (0, 1), (0, 1), (0, 4)]

    # g* = g - x as a table, so (g + i x)* = g - x + (-i)(i x)
    B = sweedler4()
    B.star[1] = [z4, one, -one, z4]
    out = B.star_vec({0: z4, 1: one, 2: i, 3: z4})
    assert _pins(out) == {1: (1, 4), 2: (0, 4)}
    assert _pin(dense_row(out, 4)) == [(0, 1), (1, 4), (0, 4), (0, 1)]

    # the coalgebra involution is S(.)*, read from the antipode table at
    # each call: S(g) = g + gx gives (g + x)^dagger = g - i gx + i gx
    C = H.coalgebra
    assert _pins(C.star_vec(gx)) == {1: (1, 4), 3: (i, 4)}
    H.antipode[1] = [z4, one, z4, one]
    out = C.star_vec(gx)
    assert _pins(out) == {1: (1, 4), 3: (0, 4)}
    assert _pin(dense_row(out, 4)) == [(0, 1), (1, 4), (0, 1), (0, 4)]
    assert _pins(C.star_row(1)) == {1: (1, 4), 3: (-i, 4)}

    # (1 + g) . y = y - y
    act = dual_number_action()
    out = act.apply({0: one, 1: one, 2: z4, 3: z4}, {0: z4, 1: one})
    assert _pins(out) == {1: (0, 4)}
    assert _pin(dense_row(out, 2)) == [(0, 1), (0, 4)]

    # counit(1 - g + x): the x term meets a zero counit and is skipped;
    # a zero entry of the argument is skipped too
    assert _pin(C.counit_of({0: one, 1: -one, 2: one, 3: z4})) == (0, 4)
    assert _pin(C.counit_of({0: z4, 1: z4, 2: one, 3: one})) == (0, 1)
    H.state = list(H.counit)
    assert _pin(H.apply_state({0: one, 1: -one, 2: 5 * one})) == (0, 4)
    assert _pin(H.apply_state({0: z4, 2: one})) == (0, 1)
    assert _pins(C.comult_vec({0: z4, 1: one})) == {(1, 1): (1, 4)}
    assert _pins(H.antipode_vec({0: z4, 1: one})) == {1: (1, 4), 3: (1, 4)}

    # a zero x_k is not skipped when v_k is not zero: it lifts the order,
    # with v dense or sparse
    assert _pin(dot({0: z4}, [Scalar.one()])) == (0, 4)
    assert _pin(dot({0: z4}, {0: Scalar.one()})) == (0, 4)
    assert _pin(dot({0: one, 1: i}, [z1, i])) == (-1, 4)
    assert _pin(dot({0: one, 1: i}, {1: i})) == (-1, 4)
    assert _pin(dot({}, [one])) == (0, 1)


def _written_orders(sub: Subspace) -> list:
    return [[x["order"] for x in row] for row in sub.to_json()["basis"]]


def test_rows_are_written_at_the_order_of_their_pivot():
    # Scalar.__eq__ compares across orders, so every order is read off
    one, one4, i = Scalar.one(), Scalar.one(4), Scalar.root_of_unity(4)
    two, two4, three = Scalar.from_int(2), 2 * one4, Scalar.from_int(3)
    # a span row is normalized at its leading entry and takes its order:
    # order 1, order 4, and an order-1 lead with an order-4 tail
    sub = span_of([{0: two, 1: Scalar.from_int(4)}, {2: two4, 3: i},
                   {4: three, 5: i}], 6)
    assert sub.pivots == [0, 2, 4] and sub.orders == [1, 4, 1]
    assert _written_orders(sub) == [[1] * 6, [4] * 6, [1] * 5 + [4]]
    assert [[x.order for x in v.values()] for v in sub.vectors] \
        == [[1, 1], [4, 4], [1, 4]]
    rows, pivots = rref([dense_row(v, 6) for v in sub.vectors])
    assert pivots == [0, 2, 4]
    assert [[x.order for x in row] for row in rows] == _written_orders(sub)

    # an order-4 lead with an order-1 tail: the tail is lifted by 1/lead
    mixed = span_of([[Scalar.zero(), two4, Scalar.zero(), three]], 4)
    assert _written_orders(mixed) == [[4, 4, 4, 4]]
    assert basis_rows(mixed) == [[0, 1, 0, Scalar.rational(3, 2)]]

    # a kernel row is of order 1 whatever its tail
    ker = kernel_of([(0, 0, one4), (0, 1, one4)], 3)
    assert _written_orders(ker) == [[1, 4, 1], [1, 1, 1]]
    assert basis_rows(ker) == [[one, -one, 0], [0, 0, one]]
    assert ker.orders == [1, 1]

    # rref of a lifted matrix: every row normalized at an order-4 entry
    z4 = Scalar.zero(4)
    rows, pivots = rref([[two4, 4 * one4, z4], [z4, z4, i],
                         [two4, 4 * one4, i]])
    assert pivots == [0, 2]
    assert rows == [[1, 2, 0], [0, 0, 1]]
    assert [[x.order for x in row] for row in rows] == [[4] * 3, [4] * 3]
    assert mat_inverse([[two4, z4], [z4, i]]) == [
        [Scalar.rational(1, 2), 0], [0, -i]]
    assert [x.order for row in mat_inverse([[two4, z4], [z4, i]])
            for x in row] == [4] * 4

    # the full space and a parsed, lifted subspace keep their order
    assert _written_orders(Subspace.full(2)) == [[1, 1], [1, 1]]
    assert _written_orders(Subspace.from_vectors([[one4, one4]], 2)) \
        == [[4, 4]]


def test_collect_and_op_trace_keep_scalar_orders():
    # the structure tensors summed through collect are emitted, so it must
    # give what the hand-written sums gave: a key whose order-4 terms
    # cancel is dropped, a first term is kept as it is, and a sum takes
    # the lcm of its terms' orders
    one, i = Scalar.one(4), Scalar.root_of_unity(4)
    z1 = Scalar.zero()
    got = collect([((0, 1), i), (2, one), ((0, 1), -i), (3, Scalar.one()),
                   (3, i), (4, z1), (5, 2 * one)])
    assert list(got) == [2, 3, 5]
    assert {k: _pin(v) for k, v in got.items()} \
        == {2: (1, 4), 3: (Scalar.one() + i, 4), 5: (2, 4)}
    assert _pin(collect([(0, Scalar.one())])[0]) == (1, 1)
    assert collect([]) == {}

    # the diagonal only, from a zero of order 1
    X = {0: {0: i, 1: 7 * one}, 1: {0: one}, 2: {2: -i + one}}
    assert _pin(op_trace(X)) == (one, 4)
    assert _pin(op_trace({0: {0: i}, 1: {1: -i}})) == (0, 4)
    assert _pin(op_trace({0: {1: one}})) == (0, 1)


def test_span_builder_close_keeps_images_last_in_first_out():
    # A: e0 -> e2, e1 -> e3, e3 -> e0; B: e0 -> e4.  From [e0, e1], e1 is
    # popped first and each element meets A before B; A e3 = e0 is in the
    # span already and is not kept
    one = Scalar.one()
    A = {2: {0: one}, 3: {1: one}, 0: {3: one}}
    B = {4: {0: one}}
    builder = SpanBuilder(5)
    fresh = [{0: one}, {1: one}]
    for v in fresh:
        builder.insert(v)
    kept = builder.close(fresh, [partial(op_vec, A), partial(op_vec, B)])
    assert kept == [{3: one}, {2: one}, {4: one}]
    assert fresh == [] and builder.dim == 5
    assert builder.close([{2: one}], [partial(op_vec, A)]) == []


def _dense_solve(A, b, n):
    """The solution of A x = b that is 0 on the free columns, by dense
    Gauss-Jordan on [A | b]; None when b is outside the column space."""
    rows, pivots = _dense_rref([list(r) + [x] for r, x in zip(A, b)], n + 1)
    if n in pivots:
        return None
    x = [Scalar.zero()] * n
    for row, p in zip(rows, pivots):
        x[p] = row[n]
    return x


@pytest.mark.parametrize("order", [1, 4, 5])
def test_particular_solutions_match_one_solve_per_vector(order):
    # one elimination of the columns of A (preimages) against a dense
    # solve per b_t, nonzero Scalar orders included; entries mix order 1
    # and the field's order
    rng = random.Random(500 + order)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = [[_random_scalar(rng, rng.choice([1, order]))
              if rng.random() < 0.5 else Scalar.zero() for _ in range(n)]
             for _ in range(m)]
        cols = [sparse([row[j] for row in A]) for j in range(n)]
        rhs = [mat_vec(A, [_random_scalar(rng, order) if rng.random() < 0.6
                           else Scalar.zero() for _ in range(n)])
               for _ in range(rng.randint(0, 4))]
        sols = [dense_row(x, n) for x in preimages(cols, map(sparse, rhs))]
        assert sols == [_dense_solve(A, b, n) for b in rhs]
        assert [[x.to_json() for x in v if x] for v in sols] == [
            [x.to_json() for x in _dense_solve(A, b, n) if x] for b in rhs]
        outside = [_random_scalar(rng, order) for _ in range(m)]
        if _dense_solve(A, outside, n) is None:
            assert preimages(cols, map(sparse, rhs + [outside])) is None


def _random_sparse_matrix(rng, n, order):
    A = [[Scalar.zero() for _ in range(n)] for _ in range(n)]
    for _ in range(rng.randint(1, n)):
        A[rng.randrange(n)][rng.randrange(n)] = _random_scalar(rng, order)
    return A


@pytest.mark.parametrize("order", [1, 4])
def test_operator_algebra_span_matches_all_pairs_closure(order):
    rng = random.Random(200 + order)
    for _ in range(12):
        n = rng.randint(2, 4)
        gens = [_random_sparse_matrix(rng, n, order)
                for _ in range(rng.randint(1, 3))]
        assert (operator_algebra_span(list(map(op_sparse, gens)), n)
                == oracle_operator_algebra_span(gens, n))


def _random_op(rng, n, order):
    """A sparse operator with explicit empty rows and random support."""
    A = {i: {} for i in range(n) if rng.random() < 0.3}
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        x = _random_scalar(rng, rng.choice([1, order]))
        if x:
            A.setdefault(i, {})[j] = x
    return A


def _canonical(A):
    return all(row and all(row.values()) for row in A.values())


@pytest.mark.parametrize("order", [1, 4, 5])
def test_sparse_operators_match_dense_products(order):
    # over Q, Q(i) and Q(zeta_5): inputs with empty rows, outputs with no
    # zero entry and no empty row
    rng = random.Random(700 + order)
    for _ in range(60):
        n = rng.randint(1, 5)
        A, B = _random_op(rng, n, order), _random_op(rng, n, order)
        dA, dB = op_dense(A, n), op_dense(B, n)
        AB = op_mul(A, B)
        assert _canonical(AB) and op_dense(AB, n) == mat_mul(dA, dB)
        x = {j: _random_scalar(rng, order) for j in range(n)
             if rng.random() < 0.5}
        Ax = op_vec(A, x)
        assert all(Ax.values())
        assert [Ax.get(i, Scalar.zero()) for i in range(n)] \
            == mat_vec(dA, [x.get(j, Scalar.zero()) for j in range(n)])
        adj = op_adjoint(A)
        assert _canonical(adj) and op_dense(adj, n) \
            == [[dA[j][i].conj() for j in range(n)] for i in range(n)]


def test_sparse_products_that_cancel_store_nothing():
    # (1 1) times (1, -1)^T and a nilpotent square both cancel to zero
    one = Scalar.one(4)
    A = {0: {0: one, 1: one}, 1: {}}
    B = {0: {0: one}, 1: {0: -one}}
    assert op_mul(A, B) == {}
    assert op_vec(A, {0: one, 1: -one}) == {}
    N = {0: {1: Scalar.root_of_unity(4)}}
    assert op_mul(N, N) == {}
    assert op_mul({0: {0: one}, 1: {1: one}}, {}) == {}


def _random_matrix(rng, m, n, order):
    """m x n dense entries mixing order 1 and order, a third of them 0."""
    return [[_random_scalar(rng, rng.choice([1, order]))
             if rng.random() < 0.7 else Scalar.zero() for _ in range(n)]
            for _ in range(m)]


@pytest.mark.parametrize("order", [1, 4, 5])
def test_op_inverse_matches_the_dense_inverse(order):
    # one preimages elimination against Gauss-Jordan on [A | I], for
    # random matrices with n = 1 among them; singular input gives None
    rng = random.Random(900 + order)
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 5)
        A = _random_matrix(rng, n, n, order)
        inverse = op_inverse(op_sparse(A), n)
        singular = len(_dense_rref(A, n)[1]) < n
        seen.add((n == 1, singular))
        if singular:
            assert inverse is None
        else:
            assert _canonical(inverse)
            assert op_dense(inverse, n) == mat_inverse(A)
    assert {(False, False), (False, True), (True, False)} <= seen
    one = Scalar.one()
    assert op_inverse({}, 1) is None
    assert op_inverse({0: {0: one, 1: one}, 1: {0: one, 1: one}}, 2) is None


@pytest.mark.parametrize("order", [1, 4])
def test_projection_fixes_span_b_and_keeps_f(order):
    # P = B^T (F B^T)^-1 F: P^2 = P, its range is span B and F P = F;
    # a singular F B^T gives None
    rng = random.Random(950 + order)
    kept = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        B, F = _random_matrix(rng, k, n, order), _random_matrix(rng, k, n,
                                                                 order)
        P = projection(op_sparse(B), op_sparse(F), k)
        if len(_dense_rref(mat_mul(F, transpose(B)), k)[1]) < k:
            assert P is None
            continue
        kept += 1
        assert op_mul(P, P) == P
        assert span_of(op_transpose(P).values(), n) == span_of(B, n)
        assert op_mul(op_sparse(F), P) == op_sparse(F)
    assert kept >= 10
    one = Scalar.one()
    assert projection({0: {0: one}}, {0: {1: one}}, 1) is None


def _oracle_commuting_kernel(ops, fixed):
    """The kernel of the rows of X F - F X formed with op_mul, dense."""
    rows: dict = {}
    for f, F in enumerate(fixed):
        for c, X in enumerate(ops):
            for sign, XF in ((1, op_mul(X, F)), (-1, op_mul(F, X))):
                for t, row in XF.items():
                    for s, x in row.items():
                        r = rows.setdefault((f, t, s), {})
                        r[c] = r.get(c, Scalar.zero()) + sign * x
    return oracle_kernel([rows[key] for key in sorted(rows)], len(ops))


@pytest.mark.parametrize("order", [1, 4])
def test_commuting_kernel_matches_the_commutators(order):
    rng = random.Random(970 + order)
    for _ in range(30):
        n = rng.randint(1, 4)
        ops = [_random_op(rng, n, order) for _ in range(rng.randint(1, 5))]
        fixed = [_random_op(rng, n, order) for _ in range(rng.randint(0, 2))]
        K = commuting_kernel(ops, fixed)
        basis, pivots = _oracle_commuting_kernel(ops, fixed)
        assert K.pivots == pivots and basis_rows(K) == basis


def test_commuting_kernel_rows_keep_the_order_of_cancelled_terms():
    # (X0 F)[1][0] = i - i cancels, so the row (F, 1, 0) holds -2 from
    # F X0 alone, at order 4: the kernel vector's tail keeps it, where the
    # rows of op_mul would have left an order-1 -2
    one, i = Scalar.one(), Scalar.root_of_unity(4)
    X0 = {0: {0: 2 * one}, 1: {0: i, 1: -i}}
    X1 = {0: {0: one}}
    F = {0: {0: one}, 1: {0: one}}
    (v,) = commuting_kernel([X0, X1], [F]).vectors
    assert _pins(v) == {0: (1, 1), 1: (-2, 4)}
    (w,), _ = _oracle_commuting_kernel([X0, X1], [F])
    assert w == [1, -2]


def test_inverses_and_commutators_are_stated_in_linalg():
    # outside linalg no module eliminates through rref, inverts a dense
    # matrix or writes the terms of a commutator by hand
    banned = {"mat_inverse", "_product_terms"}
    offenders = [f"{name}:{node.lineno}"
                 for name, tree in _modules_outside_linalg()
                 for node in _calls(tree, "rref")]
    offenders += [f"{name}:{node.lineno}"
                  for name, tree in _modules_outside_linalg()
                  for node in ast.walk(tree)
                  if {getattr(node, key, None) for key in
                      ("id", "attr", "name")} & banned]
    assert offenders == []

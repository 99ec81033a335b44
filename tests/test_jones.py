"""GNS, Jones projection, basic construction, index, Markov, bimodule endos."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hopfgal.algebra import StarAlgebra, tensor_algebra
from hopfgal.errors import InputError
from hopfgal.fixtures import (
    c_of_z2,
    mat_algebra,
    subalgebra_embedding_left,
)
from hopfgal.hopf import group_algebra, haar_state
from hopfgal import actions, algebra, banica, galois, hopf, jones
from hopfgal.jones import (
    GnsSpace,
    basic_construction,
    bimodule_endos,
    bimodule_endos_report,
    gns,
    index,
    jmj_is_commutant,
    jones_projection,
    markov_check,
    m1_span,
    orthogonal_projection,
)
from hopfgal.linalg import (
    KernelSolver,
    Subspace,
    identity_matrix,
    matrix_commutant,
    op_dense,
    op_inverse,
    op_mul,
    op_span,
    op_sparse,
    op_unflat,
    operator_algebra_span,
    sparse,
    unit_vec,
    vzero,
)
from hopfgal.report import Report
from hopfgal.scalars import Scalar, _context

from _oracles import (
    _dense_rref,
    _mult_matrix,
    basis_rows,
    complex_pair_in_mat2,
    dft_mat2_in_mat4,
    dmul,
    kron_vec,
    mat_vec,
    oracle_gram_adjoint,
    oracle_matrix_commutant,
    oracle_operator_algebra_span,
)


def mat4():
    return tensor_algebra(mat_algebra(2), mat_algebra(2), name="Mat4")


def mat2_in_mat4():
    M = mat4()
    N = Subspace.from_vectors(
        subalgebra_embedding_left(mat_algebra(2), mat_algebra(2)), 16
    )
    return M, N


def test_gns_trivial_algebra():
    space = gns(mat_algebra(1))
    assert space.dim == 1
    assert space.report.ok


def test_gns_mat2():
    space = gns(mat_algebra(2))
    assert space.report.ok, space.report.failed()
    assert space.report["jmj_equals_commutant"].passed


def test_gns_function_algebra():
    F = c_of_z2()
    from hopfgal.hopf import haar
    from hopfgal.algebra import StarAlgebra

    tau = haar(c_of_z2())
    F2 = StarAlgebra(F.dim, F.mult, F.unit, F.star, state=tau)
    space = gns(F2)
    assert space.report.ok
    # lam is diagonal for a function algebra
    lam0 = op_dense(space.lam_basis(0), 2)
    assert all(not lam0[i][j] for i in range(2) for j in range(2) if i != j)


def test_gns_rejects_degenerate():
    A = mat_algebra(2)
    A.state = vzero(4)
    A.state[0] = Scalar.one()
    A.state[3] = Scalar.from_int(-1)
    # tau = diag(1, -1) trace form is tracial? it is not tracial; and its
    # Gram is nondegenerate, so force failure through traciality
    with pytest.raises(InputError):
        gns(A)


def test_jones_projection_full_subalgebra_is_identity():
    M = mat_algebra(2)
    space = gns(M)
    e, rep = jones_projection(space, Subspace.full(4))
    assert op_dense(e, 4) == identity_matrix(4)
    assert rep.ok, rep.failed()


def test_jones_projection_scalars_is_rank_one():
    M = mat_algebra(2)
    space = gns(M)
    N = Subspace.from_vectors([M.unit], 4)
    e, rep = jones_projection(space, N)
    assert rep.ok, rep.failed()
    e = op_dense(e, 4)
    rank = Subspace.from_vectors(
        [mat_vec(e, unit_vec(4, i)) for i in range(4)], 4
    ).dim
    assert rank == 1


def test_jones_projection_with_a_non_symmetric_gram_matrix():
    # the basis of N has a Hermitian, non-symmetric Gram matrix, so E must
    # solve the transposed Gram system for e lam(x) e = lam(E(x)) e to hold
    M, N = complex_pair_in_mat2()
    _, rep = jones_projection(gns(M), N)
    assert rep.ok, rep.failed()


def test_jones_projection_mat2_in_mat4():
    M, N = mat2_in_mat4()
    space = gns(M)
    e, rep = jones_projection(space, N)
    assert rep.ok, rep.failed()
    e = op_dense(e, 16)
    rank = Subspace.from_vectors(
        [mat_vec(e, unit_vec(16, i)) for i in range(16)], 16
    ).dim
    assert rank == 4


def test_basic_construction_scalars_in_mat2():
    M = mat_algebra(2)
    space = gns(M)
    N = Subspace.from_vectors([M.unit], 4)
    bc = basic_construction(space, N)
    assert bc.m1.dim == 16  # all of End(L^2)
    assert bc.index == Fraction(4)
    assert markov_check(bc).ok


def test_basic_construction_full_is_trivial():
    M = mat_algebra(2)
    space = gns(M)
    bc = basic_construction(space, Subspace.full(4))
    assert bc.m1.dim == 4
    assert bc.index == Fraction(1)
    assert markov_check(bc).ok


def test_basic_construction_mat2_in_mat4():
    M, N = mat2_in_mat4()
    space = gns(M)
    bc = basic_construction(space, N)
    assert bc.index == Fraction(4)
    assert bc.m1.dim == 64
    assert bc.report.ok, bc.report.failed()
    assert markov_check(bc).ok
    # Markov identity spelled out: tau_1(e_N lam(x)) = tau(x)/4
    for i in range(16):
        lhs = bc.trace1(op_mul(bc.e_N, space.lam_basis(i)))
        rhs = M.apply_state(sparse(unit_vec(16, i))) / Scalar.from_int(4)
        assert lhs == rhs


def test_index_values_and_multiplicativity():
    # chain Mat2 in Mat2(x)Mat2 in Mat2(x)Mat2(x)Mat2
    M8 = tensor_algebra(tensor_algebra(mat_algebra(2), mat_algebra(2)),
                        mat_algebra(2), name="Mat8")
    space8 = gns(M8, certify=False)
    # Mat4 (x) 1 inside Mat8
    mid = Subspace.from_vectors(
        subalgebra_embedding_left(
            tensor_algebra(mat_algebra(2), mat_algebra(2)), mat_algebra(2)
        ),
        64,
    )
    # Mat2 (x) 1 (x) 1 inside Mat8
    inner_vecs = []
    for v in subalgebra_embedding_left(mat_algebra(2), mat_algebra(2)):
        w = vzero(64)
        for i, x in enumerate(v):
            if x:
                w[i * 4 + 0] = x
                w[i * 4 + 3] = x
        inner_vecs.append(w)
    small = Subspace.from_vectors(inner_vecs, 64)

    assert index(space8, Subspace.full(64)) == Fraction(1)
    assert index(space8, mid) == Fraction(4)
    assert index(space8, small) == Fraction(16)

    M4, N4 = mat2_in_mat4()
    assert index(gns(M4), N4) == Fraction(4)
    # multiplicativity: [M8 : Mat2] = [M8 : Mat4][Mat4 : Mat2]
    assert Fraction(16) == Fraction(4) * Fraction(4)


def test_index_rejects_nonfactor():
    M = mat_algebra(2)
    space = gns(M)
    diag = Subspace.from_vectors([unit_vec(4, 0), unit_vec(4, 3)], 4)
    with pytest.raises(InputError, match="not a factor"):
        index(space, diag)


def test_m1_factor_iff_n_factor():
    # property (5) analogue: N = diagonal in Mat2 gives a nonfactor M_1
    M = mat_algebra(2)
    space = gns(M)
    diag = Subspace.from_vectors([unit_vec(4, 0), unit_vec(4, 3)], 4)
    with pytest.raises(InputError, match="not a factor"):
        basic_construction(space, diag)


def test_bimodule_endos_dims():
    M = mat_algebra(2)
    space = gns(M)
    scalars = Subspace.from_vectors([M.unit], 4)
    assert bimodule_endos(M, Subspace.full(4), Subspace.full(4)).dim == 1
    assert bimodule_endos(M, scalars, scalars).dim == 16
    rep = bimodule_endos_report(basic_construction(space, scalars))
    assert rep.ok, rep.failed()


def test_bimodule_endos_mat2_in_mat4():
    M, N = mat2_in_mat4()
    space = gns(M)
    endos = bimodule_endos(M, N, N)
    assert endos.dim == 16
    rep = bimodule_endos_report(basic_construction(space, N))
    assert rep.ok, rep.failed()


def test_tensor_relation_dimension():
    # dim(M (x)_N M) equals dim of the spanned M_1 on the Mat2-in-Mat4 pair
    M, N = mat2_in_mat4()
    space = gns(M)
    e, _ = jones_projection(space, N)
    spanned = m1_span(space, e)
    # relations x n (x) y - x (x) n y
    from hopfgal.linalg import SpanBuilder

    rel = SpanBuilder(256)
    for i in range(16):
        for j in range(16):
            for b in basis_rows(N):
                xn = dmul(M, unit_vec(16, i), b)
                ny = dmul(M, b, unit_vec(16, j))
                v1 = kron_vec(xn, unit_vec(16, j))
                v2 = kron_vec(unit_vec(16, i), ny)
                rel.insert([a - c for a, c in zip(v1, v2)])
    assert 256 - rel.dim == spanned.dim == 64


def test_m1_center_matches_subalgebra_center():
    # the basic-construction algebra has the same center size as N: for the
    # diagonal in Mat2 both are two-dimensional, for factors both trivial
    M = mat_algebra(2)
    space = gns(M)
    diag = Subspace.from_vectors([unit_vec(4, 0), unit_vec(4, 3)], 4)
    e, _ = jones_projection(space, diag)
    span = m1_span(space, e)
    mats = [op_unflat(v, 4) for v in span.vectors]
    center = matrix_commutant(mats, 4).intersect(span)
    assert center.dim == 2
    scalars = Subspace.from_vectors([M.unit], 4)
    e1, _ = jones_projection(space, scalars)
    span1 = m1_span(space, e1)
    mats1 = [op_unflat(v, 4) for v in span1.vectors]
    center1 = matrix_commutant(mats1, 4).intersect(span1)
    assert center1.dim == 1


def test_index_rejects_degenerate_xi():
    M = mat_algebra(2)
    space = gns(M)
    scalars = Subspace.from_vectors([M.unit], 4)
    with pytest.raises(InputError, match="xi degenerate"):
        index(space, scalars, xi={})


def test_full_certificates_above_dim_32():
    # C[Z33] with its Haar trace: every commutation row has two entries, so
    # the full commutant identities are cheap even above dim 32
    n = 33
    M = haar_state(group_algebra([[(i + j) % n for j in range(n)]
                                  for i in range(n)]))
    space = gns(M)
    check = space.report["jmj_equals_commutant"]
    assert check.passed and check.note is None
    _, rep = jones_projection(space, Subspace.full(n))
    assert rep["double_commutant_identity"].passed
    assert rep.ok, rep.failed()


@pytest.mark.parametrize("order", [1, 4, 5])
def test_gram_adjoint_matches_dense_oracle(order):
    # random invertible Gram matrices and operators with empty rows
    rng = random.Random(800 + order)
    phi = _context(order).phi

    def scalar():
        return Scalar(order, [rng.randint(-2, 2) for _ in range(phi)])

    for _ in range(10):
        n = rng.randint(1, 4)
        while True:
            G = [[scalar() for _ in range(n)] for _ in range(n)]
            if len(_dense_rref(G, n)[1]) == n:
                break
        X = [[scalar() if rng.random() < 0.4 else Scalar.zero()
              for _ in range(n)] for _ in range(n)]
        # the adjoint reads only the Gram matrix, not the base algebra
        gram = op_sparse(G)
        space = GnsSpace(mat_algebra(1), gram, op_inverse(gram, n),
                         Report("random gram"))
        assert op_dense(space.adjoint(op_sparse(X)), n) \
            == oracle_gram_adjoint(X, G)


@pytest.mark.parametrize("case", ["dft-mat2-in-mat4", "c-in-mat3"])
def test_m1_generators_span_matches_all_pairs_closure(case):
    if case == "c-in-mat3":
        M = mat_algebra(3)
        N = Subspace.from_vectors([M.unit], 9)
    else:
        M, N = dft_mat2_in_mat4()
    space = gns(M, certify=False)
    n = space.dim
    gens = [space.lam_basis(i) for i in range(n)]
    gens.append(orthogonal_projection(space.gram, N))
    span = operator_algebra_span(gens, n)
    assert span.dim == {"c-in-mat3": 81, "dft-mat2-in-mat4": 64}[case]
    assert span == oracle_operator_algebra_span(
        [op_dense(g, n) for g in gens], n)


def _routes_case(case):
    if case == "c-in-mat3":
        M = mat_algebra(3)
        return M, Subspace.from_vectors([M.unit], 9)
    if case == "cz3":  # not a factor
        M = haar_state(group_algebra([[0, 1, 2], [1, 2, 0], [2, 0, 1]]))
        return M, Subspace.full(3)
    return dft_mat2_in_mat4()


@pytest.mark.parametrize("case", ["dft-mat2-in-mat4", "c-in-mat3", "cz3"])
def test_commutant_routes_match_dense_oracle(case):
    M, N = _routes_case(case)
    space = gns(M, certify=False)
    n = space.dim
    lams = [space.lam_basis(i) for i in range(n)]
    dense_lams = [op_dense(lam, n) for lam in lams]
    lam_n = [_mult_matrix(M, b, left=True) for b in basis_rows(N)]
    rho_n = [_mult_matrix(M, b, left=False) for b in basis_rows(N)]
    e = op_dense(space.projection(N), n)
    # {lam(M), e_N}' as the right multiplications that commute with e_N
    rho_k = [M.right_mult_op(b) for b in space.e_commutant(N).vectors]
    assert op_span(rho_k, n) == oracle_matrix_commutant(dense_lams + [e], n)
    # N' and the bimodule maps from generating sets of N
    assert space.n_commutant(N)[0] == oracle_matrix_commutant(lam_n, n)
    assert bimodule_endos(M, N, N) \
        == oracle_matrix_commutant(lam_n + rho_n, n)
    # the rows of lam(M)' stop at dim span{J lam J}, and that is all of it
    jmj = op_span(map(space.jmat, lams), n)
    stopped = matrix_commutant(lams, n, known_dim=jmj.dim)
    assert stopped == jmj == oracle_matrix_commutant(dense_lams, n)


def test_rank_sandwich_imposes_fewer_rows(monkeypatch):
    M, _ = dft_mat2_in_mat4()
    space = gns(M, certify=False)
    lams = [space.lam_basis(i) for i in range(16)]
    rows = []
    add_row = KernelSolver.add_row

    def counted(self, row):
        rows.append(row)
        return add_row(self, row)

    monkeypatch.setattr(KernelSolver, "add_row", counted)
    full = matrix_commutant(lams, 16)
    imposed = len(rows)
    stopped = matrix_commutant(lams, 16, known_dim=16)
    assert stopped == full and full.dim == 16
    assert len(rows) - imposed < imposed


def test_jmj_check_rejects_conjugates_outside_the_commutant():
    # J swaps e_1 and e_2.  The conjugates J X J of these three operators
    # span exactly the kernel at which the rows of their commutant reach
    # dim 3, but they do not commute with the third operator, so only the
    # exact commutation check tells the span from the commutant
    one = Scalar.one()
    base = StarAlgebra(3, [[{} for _ in range(3)] for _ in range(3)],
                       unit_vec(3, 0),
                       [unit_vec(3, 0), unit_vec(3, 2), unit_vec(3, 1)])
    ident = op_sparse(identity_matrix(3))
    space = GnsSpace(base, ident, ident, Report("three operators"))
    ops = [{i: {i: one} for i in range(3)}, {0: {1: one}},
           {0: {2: -one}, 1: {1: one, 2: one}}]
    jmj = op_span(map(space.jmat, ops), 3)
    assert matrix_commutant(ops, 3, known_dim=jmj.dim) == jmj
    assert matrix_commutant(ops, 3).dim < jmj.dim
    assert not jmj_is_commutant(space, ops)
    mat2 = gns(mat_algebra(2), certify=False)
    assert jmj_is_commutant(mat2, [mat2.lam_basis(i) for i in range(4)])


def _calls_to(module, names) -> list:
    """Line numbers of the calls in module's source to any of names."""
    tree = ast.parse(Path(module.__file__).read_text())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in names]


def test_jones_pipeline_has_no_dense_products():
    # every operator of the pipeline is sparse: no dense product and no
    # dense flattening of an n x n matrix
    assert _calls_to(jones, ("mat_mul", "flatten_matrix")) == []


@pytest.mark.parametrize("module", [galois, banica],
                         ids=["galois", "banica"])
def test_galois_and_banica_operators_are_sparse(module):
    # every endomorphism, E and Lambda operator is a sparse operator: no
    # dense product, flattening, identity matrix, dense-to-sparse round
    # trip or dense action operator
    dense_calls = ("mat_mul", "flatten_matrix", "unflatten_matrix",
                   "identity_matrix", "op_sparse", "operator")
    assert _calls_to(module, dense_calls) == []


@pytest.mark.parametrize("module", [hopf, algebra, actions, galois, banica],
                         ids=["hopf", "algebra", "actions", "galois",
                              "banica"])
def test_certificate_layers_apply_no_dense_matrix(module):
    # maps are applied through their sparse rows: no dense vector-matrix
    # product, no dense solve and no dense expectation check
    dense_calls = ("vec_mat", "mat_vec", "particular_solutions",
                   "solve_linear", "expectation_report")
    assert _calls_to(module, dense_calls) == []

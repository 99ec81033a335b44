"""Product coactions, fixed-point algebras, Lambda, T_q, Galois groups."""

import os

import pytest

from hopfgal.actions import (
    ModuleAlgebraAction,
    smash_product,
)
from hopfgal.algebra import reify, validate_algebra
from hopfgal.banica import (
    ComoduleAlgebra,
    _tau_s_table,
    lambda_action,
    product_coaction,
    qgal_banica,
    t_q_extraction,
    validate_comodule,
)
from hopfgal.errors import InputError
from hopfgal.fixtures import (
    S3_TABLE,
    S3_TRANSPOSITION,
    Z2_TABLE,
    ad_z_action,
    c_of_s3,
    c_of_z2,
    cs3,
    cz2,
    grading_action_mat2,
    mat_algebra,
    trivial_action,
)
from hopfgal.galois import canonical_qgal
from hopfgal.hopf import (
    dual_hopf,
    group_algebra,
    haar,
    hopf_equal,
    validate_hopf,
    variants,
)
from hopfgal.linalg import (
    Subspace,
    op_dense,
    op_span,
    op_transpose,
    preimages,
    sparse,
    unit_vec,
    vzero,
)
from hopfgal.scalars import Scalar
from hopfgal.serialize import Workspace

from _oracles import (
    basis_rows,
    dapply,
    oracle_expectation,
    oracle_kernel,
    oracle_lambda_operator,
)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def z2_fixture():
    """H = CZ2, B = CZ2 with beta = Delta, A = Mat2 by Ad(Z)."""
    H = cz2()
    B = ComoduleAlgebra(
        H, group_algebra(Z2_TABLE, name="CZ2"),
        [{(i, i): Scalar.one()} for i in range(2)],
        name="CZ2 over itself",
    )
    hcop = variants(H)[1]
    base = ad_z_action()
    act = ModuleAlgebraAction(hcop, base.alg, base.act)
    sp = smash_product(act)
    return H, B, sp


def trivial_b_fixture():
    """B = C: the product coaction collapses to the canonical one."""
    H = cz2()
    B = ComoduleAlgebra(
        H, mat_algebra(1, name="C"),
        [{(0, 0): Scalar.one()}],
        name="trivial",
    )
    hcop = variants(H)[1]
    base = ad_z_action()
    act = ModuleAlgebraAction(hcop, base.alg, base.act)
    return H, B, smash_product(act)


def s3_fixture():
    """H = C(Z2), B = C(S3) with the (01)-translation coaction, A = Mat2."""
    H = c_of_z2()
    t = S3_TRANSPOSITION
    # beta(delta_x) = sum_s (s . delta_x) (x) delta_s with s acting by left
    # translation: s . delta_x = delta_{s x}
    coact = []
    for x in range(6):
        plane = {
            (x, 0): Scalar.one(),
            (S3_TABLE[t][x], 1): Scalar.one(),
        }
        coact.append(plane)
    B = ComoduleAlgebra(H, c_of_s3(), coact, name="C(S3)")
    hcop = variants(H)[1]
    base = grading_action_mat2()
    act = ModuleAlgebraAction(hcop, base.alg, base.act)
    return H, B, smash_product(act)


def test_comodules_validate():
    for make in (z2_fixture, trivial_b_fixture, s3_fixture):
        H, B, sp = make()
        rep = validate_comodule(B)
        assert rep.ok, (make.__name__, rep.failed())


def test_product_coaction_z2():
    H, B, sp = z2_fixture()
    data = product_coaction(B, sp)
    assert data.report.ok, data.report.failed()
    # invariants have dim = dim A * dim H: the depth-two reading forces
    # C = A x| H^cop through a (x) h -> h (x) a x| h
    assert data.invariants.dim == 8


def test_product_coaction_requires_kac():
    # a non-involutive antipode is impossible for our group fixtures, so
    # fake one by breaking the antipode matrix
    H, B, sp = z2_fixture()
    B.hopf.antipode[1][1] = Scalar.zero()
    B.hopf.antipode[1][0] = Scalar.one()
    with pytest.raises(InputError, match="antipode not involutive"):
        product_coaction(B, sp)


def test_product_coaction_trivial_b():
    H, B, sp = trivial_b_fixture()
    data = product_coaction(B, sp)
    assert data.report.ok
    # C = A x| e = A: dimension of A
    assert data.invariants.dim == 4
    for a in range(4):
        v = data.a_leg({a: Scalar.one()})
        assert data.invariants.contains(v)


def test_product_coaction_grouplike_formula():
    H, B, sp = z2_fixture()
    data = product_coaction(B, sp)
    # on group-likes: b (x) a x| k -> b (x) a x| k (x) k b
    for b in range(2):
        for k in range(2):
            src = data.idx(b, 0 * 2 + k)
            cell = data.coaction[src]
            expected_h = Z2_TABLE[k][b]
            assert set(cell) == {(src, expected_h)}


def test_expectation_values_trivial_b():
    H, B, sp = trivial_b_fixture()
    data = product_coaction(B, sp)
    cols = op_transpose(data.expectation)
    # tau = (1, 0) on CZ2: E(a x| e) = a x| e, E(a x| g) = 0
    for a in range(4):
        assert cols[a * 2 + 0] == {a * 2 + 0: Scalar.one()}
        assert a * 2 + 1 not in cols


_ORACLE_FIXTURES = {
    "z2": z2_fixture,
    "s3": s3_fixture,
    "trivial-b": trivial_b_fixture,
}


@pytest.mark.parametrize("case", sorted(_ORACLE_FIXTURES))
def test_expectation_and_lambda_match_dense_oracles(case):
    H, B, sp = _ORACLE_FIXTURES[case]()
    data = product_coaction(B, sp)
    table = _tau_s_table(H, haar(H))
    assert op_dense(data.expectation, data.total.dim) \
        == oracle_expectation(B, sp, H, table)
    ops, rep = lambda_action(B)
    assert rep.ok
    assert [op_dense(X, B.alg.dim) for X in ops] \
        == [oracle_lambda_operator(B, row) for row in table]


def _banica_z2_data():
    """The fixed-point data of the shipped banica-z2 job."""
    ws = Workspace.load(os.path.join(FIXTURES, "banica-z2.json"))
    job = ws.get("banica", ("job",))
    act = ws.get(job["action"], ("action",))
    return product_coaction(ws.get(job["comodule"], ("comodule",)),
                            smash_product(act))


def _s3_data():
    H, B, sp = s3_fixture()
    return product_coaction(B, sp)


@pytest.mark.parametrize("make", [_banica_z2_data, _s3_data],
                         ids=["banica-z2", "s3"])
def test_phi_preimages_match_oracle_kernel(make):
    # Phi(a (x) x) = x0 (x) a x| x1 at column a nb + x, built densely here;
    # the preimage of each basis vector z of C lies on the pivot columns of
    # Phi (those outside the span of the columns before them), and there
    # (x, -1) spans the kernel of [Phi_pivots | z]
    data = make()
    sp, B, n = data.smash, data.comodule, data.total.dim
    cols = []
    for a in range(sp.dim_A):
        for x in range(B.alg.dim):
            col = vzero(n)
            for (b0, b1), v in B.coact[x].items():
                col[data.idx(b0, sp.idx(a, b1))] += v
            cols.append(col)

    def kernel(js, extra=None):
        rows = [{k: cols[j][i] for k, j in enumerate(js) if cols[j][i]}
                for i in range(n)]
        if extra is not None:
            for i, z in enumerate(extra):
                if z:
                    rows[i][len(js)] = z
        return oracle_kernel(rows, len(js) + (extra is not None))[0]

    pivots = [j for j in range(len(cols))
              if len(kernel(range(j + 1))) == len(kernel(range(j)))]
    assert len(pivots) == data.invariants.dim
    sources = preimages([sparse(c) for c in cols],
                        data.invariants.vectors)
    assert len(sources) == data.invariants.dim
    for z, x in zip(basis_rows(data.invariants), sources):
        line = kernel(pivots, z)
        assert len(line) == 1 and line[0][-1]
        scale = -line[0][-1].inverse()
        expected = {j: line[0][k] * scale for k, j in enumerate(pivots)}
        assert set(x) <= set(pivots)
        assert all(x.get(j, Scalar.zero()) == expected[j] for j in pivots)


def test_s3_fixed_point_data():
    H, B, sp = s3_fixture()
    data = product_coaction(B, sp)
    assert data.report.ok, data.report.failed()
    # C has dimension dim B * dim A * dim H / dim H^2 ... computed exactly:
    # the coaction invariants of a free-ish translation fixture
    assert data.invariants.dim == 24


def test_lambda_action_z2():
    H, B, sp = z2_fixture()
    mats, rep = lambda_action(B)
    image = op_span(mats, B.alg.dim)
    assert rep.ok, rep.failed()
    # projections onto the group-like components: diagonal algebra, dim 2
    assert image.dim == 2
    assert mats[0] == {0: {0: Scalar.one()}}


def test_lambda_action_s3():
    H, B, sp = s3_fixture()
    mats, rep = lambda_action(B)
    image = op_span(mats, B.alg.dim)
    assert rep.ok
    # span{L_e, L_t} has dimension 2
    assert image.dim == 2


def test_qgal_banica_z2_matches_depth_two():
    H, B, sp = z2_fixture()
    data = product_coaction(B, sp)
    q_ambient = dual_hopf(H, name="C(Z2)")
    # C(Z2) acts on B = CZ2 by the grading (dual) action
    act = []
    for s in range(2):
        plane = []
        for b in range(2):
            plane.append({b: Scalar.one()} if b == s else {})
        act.append(plane)
    q_on_b = ModuleAlgebraAction(q_ambient, B.alg, act)
    result = qgal_banica(data, q_ambient, q_on_b)
    assert result.report.ok, result.report.failed()
    assert result.subspace.dim == 2
    assert hopf_equal(result.hopf, dual_hopf(cz2()))
    assert validate_hopf(result.hopf).ok

    # Remark-style comparison with the depth-two certificate: C is
    # identified with A x| H^cop via iota(a x| h) = h (x) a x| h, and the
    # lifted action matches the canonical dual action through iota.
    cert = canonical_qgal(sp)
    assert hopf_equal(result.hopf, cert.qgal)
    C = data.invariants
    iota_cols = []
    for a in range(4):
        for h in range(2):
            v = vzero(16)
            v[data.idx(h, a * 2 + h)] = Scalar.one()
            iota_cols.append(v)
    iota_image = Subspace.from_vectors(iota_cols, 16)
    assert iota_image == C
    for q in range(2):
        for a in range(4):
            for h in range(2):
                src = C.coordinates(iota_cols[a * 2 + h])
                lifted = dapply(result.lifted_action, unit_vec(2, q), src)
                dual_img = dapply(cert.dual_act, unit_vec(2, q),
                                  unit_vec(8, a * 2 + h))
                pushed = vzero(C.dim)
                for t, x in enumerate(dual_img):
                    if x:
                        pushed = [
                            p + x * c
                            for p, c in zip(pushed,
                                            C.coordinates(iota_cols[t]))
                        ]
                assert lifted == pushed


def test_qgal_banica_s3_centralizer():
    H, B, sp = s3_fixture()
    data = product_coaction(B, sp)
    q_ambient = cs3()
    # CS3 acts on C(S3) by left translation: g . delta_x = delta_{g x}
    act = []
    for g in range(6):
        plane = []
        for x in range(6):
            plane.append({S3_TABLE[g][x]: Scalar.one()})
        act.append(plane)
    q_on_b = ModuleAlgebraAction(q_ambient, B.alg, act)
    result = qgal_banica(data, q_ambient, q_on_b)
    assert result.report.ok, result.report.failed()
    # the group algebra of the centralizer of (01): span{e, (01)}
    assert result.subspace.dim == 2
    assert result.subspace.contains(unit_vec(6, 0))
    assert result.subspace.contains(unit_vec(6, S3_TRANSPOSITION))


def test_qgal_banica_trivial_lambda_gives_whole_ambient():
    # B = C: Lambda is scalar, everything commutes
    H, B, sp = trivial_b_fixture()
    data = product_coaction(B, sp)
    q_ambient = cz2()
    q_on_b = trivial_action(q_ambient, B.alg)
    result = qgal_banica(data, q_ambient, q_on_b)
    assert result.report.ok
    assert result.subspace.dim == q_ambient.dim


def test_t_q_extraction_z2():
    H, B, sp = z2_fixture()
    data = product_coaction(B, sp)
    q_ambient = dual_hopf(H, name="C(Z2)")
    act = []
    for s in range(2):
        plane = []
        for b in range(2):
            plane.append({b: Scalar.one()} if b == s else {})
        act.append(plane)
    q_on_b = ModuleAlgebraAction(q_ambient, B.alg, act)
    result = qgal_banica(data, q_ambient, q_on_b)
    t_mats, rep = t_q_extraction(data, result.hopf, result.lifted_action)
    assert rep.ok, rep.failed()
    assert len(t_mats) == 2
    # E(b (x) 1 x| h) = [h = b] b (x) 1 x| b and delta_q projects the b-leg,
    # so T_q(b (x) h) = [h = b][q = b] e_b
    for qi in range(2):
        for b in range(2):
            for h in range(2):
                col = [t_mats[qi][o][b * 2 + h] for o in range(2)]
                for o in range(2):
                    expected = (Scalar.one()
                                if (o == b and h == b and qi == b)
                                else Scalar.zero())
                    assert col[o] == expected


def test_t_q_extraction_trivial_b_reduces_to_pairing():
    H, B, sp = trivial_b_fixture()
    data = product_coaction(B, sp)
    # Q = C(Z2) acting on the reified C = A through the canonical dual
    # action under the identification C = A x| e
    q_ambient = dual_hopf(H, name="C(Z2)")
    c_alg, inclusion = reify(data.total, data.invariants, name="C")
    assert validate_algebra(c_alg).ok
    # any action fixing A pointwise on C = A is the counit action
    act = trivial_action(q_ambient, c_alg)
    t_mats, rep = t_q_extraction(data, q_ambient, act)
    assert rep.ok
    # the scalars collapse to pairing data against the counit:
    # T_q(1 (x) h) = counit(q) [h = e] 1_B
    for qi in range(2):
        eps = q_ambient.counit[qi]
        for h in range(2):
            val = t_mats[qi][0][0 * 2 + h]
            expected = eps if h == 0 else Scalar.zero()
            assert val == expected


def test_product_coaction_rejects_non_kac_hopf():
    # the involutive-antipode requirement is checked before anything else
    from hopfgal.fixtures import dual_number_action, sweedler4

    H = sweedler4()
    B = ComoduleAlgebra(
        H, mat_algebra(1, name="C"),
        [{(0, 0): Scalar.one(4)}],
        name="trivial",
    )
    sp = smash_product(dual_number_action())
    with pytest.raises(InputError, match="antipode not involutive"):
        product_coaction(B, sp)


def k4_fixture():
    """H = CK4, B = CK4 with beta = Delta, A = Mat2 with the Pauli action."""
    from hopfgal.fixtures import K4_TABLE, ck4, pauli_action

    H = ck4()
    B = ComoduleAlgebra(
        H, group_algebra(K4_TABLE),
        [{(i, i): Scalar.one()} for i in range(4)],
        name="CK4 over itself",
    )
    hcop = variants(H)[1]
    base = pauli_action()
    act = ModuleAlgebraAction(hcop, base.alg, base.act)
    return H, B, smash_product(act)


def test_qgal_banica_k4_matches_depth_two():
    H, B, sp = k4_fixture()
    data = product_coaction(B, sp)
    assert data.report.ok, data.report.failed()
    assert data.invariants.dim == 16  # C = A x| H^cop through the legs map

    q_ambient = dual_hopf(H, name="C(K4)")
    act = []
    for s in range(4):
        plane = []
        for b in range(4):
            plane.append({b: Scalar.one()} if b == s else {})
        act.append(plane)
    q_on_b = ModuleAlgebraAction(q_ambient, B.alg, act)
    result = qgal_banica(data, q_ambient, q_on_b)
    assert result.report.ok, result.report.failed()
    assert result.subspace.dim == 4

    cert = canonical_qgal(sp)
    assert hopf_equal(result.hopf, cert.qgal)
    # iota(a x| h) = h (x) a x| h intertwines the lifted and dual actions
    C = data.invariants
    iota = []
    for a in range(4):
        for h in range(4):
            v = vzero(64)
            v[data.idx(h, a * 4 + h)] = Scalar.one()
            iota.append(v)
    assert Subspace.from_vectors(iota, 64) == C
    for q in range(4):
        for src in range(16):
            lifted = dapply(result.lifted_action, unit_vec(4, q),
                            C.coordinates(iota[src]))
            dual_img = dapply(cert.dual_act, unit_vec(4, q),
                              unit_vec(16, src))
            pushed = vzero(C.dim)
            for t, x in enumerate(dual_img):
                if x:
                    pushed = [p + x * c for p, c in
                              zip(pushed, C.coordinates(iota[t]))]
            assert lifted == pushed

"""Actions, invariants, smash products, dual actions, outerness."""

import pytest
from _oracles import (
    cyclic_diagonal_action,
    dapply,
    dmul,
    dstar,
    embed_A_vec,
    embed_H_vec,
    oracle_validate_action,
    report_summary,
)

from hopfgal.actions import (
    dual_action,
    innerify_check,
    invariants,
    is_minimal,
    is_outer,
    smash_product,
    validate_action,
)
from hopfgal.algebra import relative_commutant, validate_algebra
from hopfgal.errors import InputError
from hopfgal.fixtures import (
    Z2_TABLE,
    ad_z_action,
    cs3,
    cz2,
    grading_action_mat2,
    mat_algebra,
    pauli_action,
    translation_action,
    trivial_action,
)
from hopfgal.hopf import canonical_pairing, dual_hopf, validate_hopf
from hopfgal.linalg import Subspace, unit_vec, vzero
from hopfgal.scalars import Scalar


ACTION_FIXTURES = [
    pauli_action,
    ad_z_action,
    lambda: translation_action(Z2_TABLE),
    grading_action_mat2,
]


@pytest.mark.parametrize("make", ACTION_FIXTURES)
def test_actions_validate(make):
    rep = validate_action(make())
    assert rep.ok, rep.failed()


def test_translation_action_values():
    act = translation_action(Z2_TABLE)
    # g . delta_h = delta_{gh}
    img = dapply(act, unit_vec(2, 1), unit_vec(2, 0))
    assert img == unit_vec(2, 1)


def test_perturbed_action_fails_measuring():
    act = pauli_action()
    act.act[1][1] = {}  # zero out one entry of the X-conjugation
    rep = validate_action(act)
    assert not rep.ok
    assert any(not c.passed and c.witness is not None for c in rep.checks)


def _dual_action_on_smash():
    sp = smash_product(ad_z_action())
    H = sp.action.hopf
    return dual_action(sp, canonical_pairing(dual_hopf(H), H))


@pytest.mark.parametrize("make", ACTION_FIXTURES + [_dual_action_on_smash])
def test_validate_action_matches_dense_oracle(make):
    act = make()
    assert report_summary(validate_action(act)) \
        == report_summary(oracle_validate_action(act))


# Over Q, Q(i) and Q(zeta_5); Mat2 matrix units E00, E01, E10, E11 are
# 0..3 and group element 0 is the identity.
FIELD_ACTIONS = {
    1: pauli_action,
    4: lambda: cyclic_diagonal_action(4, [0, 1]),
    5: lambda: cyclic_diagonal_action(5, [0, 1]),
}
# (h, a) whose action image gets its first entry scaled by 1 + zeta_N
ACTION_PERTURBATIONS = {
    "module_axiom": (1, 1),
    "unit_acts_trivially": (0, 1),
    "measuring": (1, 1),
    "unit_preserved": (1, 0),
    "star_compatibility": (1, 1),
}


@pytest.mark.parametrize("order", sorted(FIELD_ACTIONS))
@pytest.mark.parametrize("axiom", sorted(ACTION_PERTURBATIONS))
def test_perturbed_action_report_matches_dense_oracle(axiom, order):
    act = FIELD_ACTIONS[order]()
    h, a = ACTION_PERTURBATIONS[axiom]
    image = dict(act.act[h][a])
    key = next(iter(image))
    image[key] = image[key] * (Scalar.one() + Scalar.root_of_unity(order))
    act.act[h][a] = image
    rep = validate_action(act)
    assert not rep[axiom].passed and rep[axiom].witness is not None
    assert report_summary(rep) == report_summary(oracle_validate_action(act))


def test_trivial_action_invariants_everything():
    A = mat_algebra(2)
    act = trivial_action(cz2(), A)
    assert validate_action(act).ok
    assert invariants(act).dim == A.dim


def test_pauli_invariants_are_scalars():
    act = pauli_action()
    inv = invariants(act)
    assert inv.dim == 1
    assert inv.contains(act.alg.unit)


def test_ad_z_invariants_are_diagonal():
    act = ad_z_action()
    inv = invariants(act)
    assert inv.dim == 2
    assert inv == Subspace.from_vectors([unit_vec(4, 0), unit_vec(4, 3)], 4)


def test_smash_with_trivial_algebra_is_hopf_algebra_itself():
    # A = C: the smash product multiplication table equals the Hopf one.
    one_dim = mat_algebra(1, name="C")
    H = cz2()
    act = trivial_action(H, one_dim)
    sp = smash_product(act)
    assert sp.total.dim == 2
    for i in range(2):
        for j in range(2):
            assert sp.total.mult[i][j] == H.mult[i][j]


def test_smash_translation_is_mat2():
    act = translation_action(Z2_TABLE)
    sp = smash_product(act)
    assert validate_algebra(sp.total).ok
    # center is trivial, so this 4-dim algebra is Mat2
    cen = relative_commutant(Subspace.full(4), sp.total)
    assert cen.dim == 1
    # explicit isomorphism delta_i x| g^j -> E_{i, i+j}
    M = mat_algebra(2)
    iso = {}
    for i in range(2):
        for j in range(2):
            iso[sp.idx(i, j)] = (i, (i + j) % 2)
    for p in range(4):
        for q in range(4):
            prod = sp.total.mult[p][q]
            a, b = iso[p], iso[q]
            target = M.mult[a[0] * 2 + a[1]][b[0] * 2 + b[1]]
            mapped = {iso[k][0] * 2 + iso[k][1]: v for k, v in prod.items()}
            assert mapped == target


def test_smash_pauli_validates():
    sp = smash_product(pauli_action())
    assert sp.total.dim == 16
    assert validate_algebra(sp.total).ok


def test_smash_rejects_invalid_action():
    act = pauli_action()
    act.act[1][1] = {}
    with pytest.raises(InputError, match="not a"):
        smash_product(act)


def test_embeddings_are_star_morphisms_and_bijection():
    sp = smash_product(pauli_action())
    A, H, total = sp.action.alg, sp.action.hopf, sp.total
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = embed_A_vec(sp, dmul(A, unit_vec(4, i), unit_vec(4, j)))
            rhs = dmul(total, embed_A_vec(sp, unit_vec(4, i)),
                       embed_A_vec(sp, unit_vec(4, j)))
            assert lhs == rhs
        assert embed_A_vec(sp, dstar(A, unit_vec(4, i))) \
            == dstar(total, embed_A_vec(sp, unit_vec(4, i)))
    for i in range(H.dim):
        for j in range(H.dim):
            hv = vzero(H.dim)
            for k, v in H.mult[i][j].items():
                hv[k] = hv[k] + v
            lhs = embed_H_vec(sp, hv)
            rhs = dmul(total, embed_H_vec(sp, unit_vec(4, i)),
                       embed_H_vec(sp, unit_vec(4, j)))
            assert lhs == rhs
        assert embed_H_vec(sp, dstar(H, unit_vec(4, i))) \
            == dstar(total, embed_H_vec(sp, unit_vec(4, i)))
    # a (x) h -> (a x| 1)(1 x| h) is a bijection
    vecs = []
    for a in range(4):
        for h in range(4):
            vecs.append(dmul(total, embed_A_vec(sp, unit_vec(4, a)),
                             embed_H_vec(sp, unit_vec(4, h))))
    assert Subspace.from_vectors(vecs, 16).dim == 16


@pytest.mark.parametrize("make", ACTION_FIXTURES)
def test_innerify(make):
    sp = smash_product(make())
    rep = innerify_check(sp)
    assert rep.ok, rep.failed()


def test_innerify_negative_control():
    # Replacing V^{-1} by V breaks the convolution inverse once S != id;
    # on CZ2 the antipode is the identity and V is its own inverse, so the
    # control runs on CZ3.
    from hopfgal.fixtures import Z3_TABLE

    sp = smash_product(translation_action(Z3_TABLE))
    H = sp.action.hopf
    total = sp.total
    g = 1
    bad = vzero(total.dim)
    for (h1, h2), v in H.comult[g].items():
        term = dmul(total, embed_H_vec(sp, unit_vec(3, h1)),
                    embed_H_vec(sp, unit_vec(3, h2)))
        bad = [x + v * y if y else x for x, y in zip(bad, term)]
    target = [H.counit[g] * u for u in total.unit]
    assert bad != target
    # while the honest pairing V, V^{-1} passes
    assert innerify_check(sp).ok


def test_dual_action_pauli():
    sp = smash_product(pauli_action())
    H = sp.action.hopf
    pairing = canonical_pairing(dual_hopf(H), H)
    dact = dual_action(sp, pairing)
    assert validate_action(dact).ok
    inv = invariants(dact)
    assert inv == sp.subspace_A()
    assert inv.dim == 4


def test_dual_action_unit_acts_as_identity():
    sp = smash_product(ad_z_action())
    H = sp.action.hopf
    pairing = canonical_pairing(dual_hopf(H), H)
    dact = dual_action(sp, pairing)
    one_hat = dual_hopf(H).unit
    for i in range(sp.total.dim):
        assert dapply(dact, one_hat, unit_vec(8, i)) == unit_vec(8, i)


def test_outerness():
    # Def-1.1 outerness is unattainable for A x| H with A a factor and
    # dim H > 1: A x| H decomposes as A (x) (A' cap A x| H), so the
    # commutant has dimension dim H.  The exact solver must agree.
    outer, wit = is_outer(smash_product(pauli_action()))
    assert not outer and wit.dim == 4
    # the conjugation implementers u_g* x| g span the commutant
    sp = smash_product(pauli_action())
    assert wit.contains(sp.total.unit)
    outer, wit = is_outer(smash_product(ad_z_action()))
    assert not outer and wit.dim == 2
    outer, wit = is_outer(smash_product(translation_action(Z2_TABLE)))
    assert not outer
    assert wit.dim == 2  # the image of C(Z2) sits in the commutant
    wit_alg = wit
    spt = smash_product(translation_action(Z2_TABLE))
    img = spt.subspace_A()
    # commutant contains the commutative algebra's own image
    assert wit_alg.contains_subspace(img)


def test_outer_only_for_trivial_hopf():
    one_dim = mat_algebra(1, name="C")
    sp = smash_product(trivial_action(cz2(), mat_algebra(2)))
    assert not is_outer(sp)[0]
    sp_trivial = smash_product(
        trivial_action(
            __import__("hopfgal.hopf", fromlist=["group_algebra"])
            .group_algebra([[0]]),
            mat_algebra(2),
        )
    )
    assert is_outer(sp_trivial)[0]


def test_minimality():
    # Pauli invariants are the scalars, whose commutant is all of Mat2.
    minimal, wit = is_minimal(pauli_action())
    assert not minimal and wit.dim == 4
    minimal, wit = is_minimal(ad_z_action())
    assert not minimal
    assert wit.dim == 2  # diagonal subalgebra
    # the trivial action on a factor is minimal: invariants are everything
    minimal, wit = is_minimal(trivial_action(cz2(), mat_algebra(2)))
    assert minimal and wit.dim == 1


def test_pauli_chain():
    # invariants C . 1 in Mat2 in Mat2 x| CK4: the running depth-2 fixture.
    act = pauli_action()
    sp = smash_product(act)
    assert invariants(act).dim == 1
    assert sp.total.dim == 16


def test_innerify_trivial_algebra_collapses_to_antipode_axiom():
    # A = C: V(h_1) V^{-1}(h_2) = counit(h) 1 is literally the antipode law
    one_dim = mat_algebra(1, name="C")
    for make in (cz2, lambda: __import__("hopfgal.fixtures",
                                         fromlist=["cs3"]).cs3()):
        H = make()
        sp = smash_product(trivial_action(H, one_dim))
        rep = innerify_check(sp)
        assert rep.ok, rep.failed()


@pytest.mark.parametrize("cell", [(4, 5), (5, 4)])
def test_convolution_inverses_are_checked_in_both_orders(cell):
    # 4 and 5 are inverse 3-cycles of S3.  With the product 4 * 5 broken,
    # S * id fails at 5 and id * S at 4 alone; with 5 * 4 broken, the other
    # way round.  On the trivial action on C, V * V^{-1} is the first and
    # V^{-1} * V the second order.  Both orders are read, so the witness is
    # 4 every time.
    H = cs3()
    i, j = cell
    H.mult[i][j][0] = H.mult[i][j][0] + Scalar.one()
    assert validate_hopf(H)["antipode_axiom"].witness == 4
    sp = smash_product(trivial_action(H, mat_algebra(1, name="C")),
                       validate=False)
    assert innerify_check(sp)["convolution_inverse"].witness == 4


def test_sweedler_action_on_dual_numbers():
    from hopfgal.fixtures import dual_number_action

    act = dual_number_action()
    rep = validate_action(act)
    assert rep.ok, rep.failed()
    sp = smash_product(act)
    assert sp.total.dim == 8
    inner = innerify_check(sp)
    assert inner.ok, inner.failed()
    # invariants: y is differentiated away, only the scalars survive
    assert invariants(act).dim == 1

"""Hopf *-algebra fixtures, duals, variants, Haar integrals, pairings."""

import gc
import weakref

import pytest

from hopfgal.actions import smash_product
from hopfgal.algebra import StarAlgebra
from hopfgal.errors import InputError
from hopfgal.galois import canonical_qgal
from hopfgal.hopf import (
    HopfPairing,
    canonical_pairing,
    dual_hopf,
    group_algebra,
    haar,
    hopf_equal,
    validate_hopf,
    validate_pairing,
    variants,
)
from hopfgal.linalg import dense_row, identity_matrix, sparse, unit_vec, vzero
from hopfgal.scalars import Scalar

from _oracles import (
    cyclic_diagonal_action,
    dantipode,
    dmul,
    dstar,
    mat_vec,
    oracle_validate_pairing,
    rebased_hopf,
    report_summary,
)
from builders import (
    S3_TABLE,
    ad_z_action,
    c_of_k4,
    c_of_s3,
    c_of_z2,
    ck4,
    cs3,
    cz2,
    grading_action_mat2,
    pauli_action,
    sweedler4,
)


GROUP_FIXTURES = [cz2, ck4, cs3, c_of_z2, c_of_s3]


@pytest.mark.parametrize("make", GROUP_FIXTURES)
def test_group_type_fixtures_pass(make):
    H = make()
    rep = validate_hopf(H)
    assert rep.ok, rep.failed()
    assert H.is_kac()


def test_cs3_is_cocommutative_noncommutative():
    H = cs3()
    assert not H.is_commutative()
    assert all(
        H.comult[i] == {(k, j): v for (j, k), v in H.comult[i].items()}
        for i in range(H.dim)
    )


def test_dual_of_cs3_is_commutative_noncocommutative():
    D = dual_hopf(cs3())
    assert validate_hopf(D).ok
    assert D.is_commutative()
    cocommutative = all(
        D.comult[i] == {(k, j): v for (j, k), v in D.comult[i].items()}
        for i in range(D.dim)
    )
    assert not cocommutative


def test_dual_of_group_algebra_is_function_algebra():
    assert hopf_equal(dual_hopf(cz2()), c_of_z2())
    assert hopf_equal(dual_hopf(cs3()), c_of_s3())


def test_double_dual_is_identity_on_fixtures():
    for make in GROUP_FIXTURES:
        H = make()
        assert hopf_equal(dual_hopf(dual_hopf(H)), H)


def test_dual_of_a_complex_basis_of_cz3():
    # on the basis (e, g + i g^2, g^2) of C[Z3] the coalgebra involution
    # x -> S(x)* is not a symmetric matrix, so the dual's involution must
    # read it transposed for the pairing's star law to hold
    one, zero, i = Scalar.one(), Scalar.zero(), Scalar.root_of_unity(4, 1)
    H = rebased_hopf(group_algebra([[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
                     [[one, zero, zero], [zero, one, i], [zero, zero, one]])
    circ = [H.coalgebra.star_row(j) for j in range(3)]
    assert circ[1].get(2) != circ[2].get(1)
    assert validate_hopf(H).ok
    D = dual_hopf(H)
    assert validate_hopf(D).ok, validate_hopf(D).failed()
    assert validate_pairing(canonical_pairing(D, H)).ok
    assert hopf_equal(dual_hopf(D), H)


def test_broken_antipode_fails_with_witness():
    H = cs3()
    bad = group_algebra(S3_TABLE)
    bad.antipode = identity_matrix(6)
    rep = validate_hopf(bad)
    chk = rep["antipode_axiom"]
    assert not chk.passed
    # witness is a non-involutive element: any transposition or 3-cycle
    assert chk.witness in (1, 2, 3, 4, 5)
    assert validate_hopf(H).ok


def test_coalgebra_involution_follows_the_antipode():
    # x -> S(x)* is read from the current tables, so replacing the antipode
    # (as broken_hopf_workspace does) or editing it in place moves it too,
    # also for a view taken before the table was replaced
    bad = group_algebra(S3_TABLE)
    early = bad.coalgebra
    bad.antipode = identity_matrix(6)
    for view in (early, bad.coalgebra):
        assert [dense_row(view.star_row(i), 6) for i in range(6)] \
            == [dstar(bad, r) for r in bad.antipode]
    # S(g) = g + h is not group-like, so x -> S(x)* stops reversing Delta
    two = [a + b for a, b in zip(unit_vec(6, 1), unit_vec(6, 2))]
    bad.antipode[1] = two
    for view in (early, bad.coalgebra):
        assert dstar(view, unit_vec(6, 1)) == dstar(bad, two)
    assert not validate_hopf(bad)["coalg:star_reverses_comultiplication"] \
        .passed


def test_a_hopf_star_algebra_is_its_star_algebra():
    # H is a StarAlgebra holding Delta, epsilon and S; its coalgebra is a
    # view built on each access, never stored on H
    H = cs3()
    assert isinstance(H, StarAlgebra) and "algebra" not in dir(H)
    assert H.coalgebra is not H.coalgebra
    assert H.coalgebra.comult is H.comult


def test_a_hopf_star_algebra_is_freed_without_the_cycle_collector():
    # a view stored on H would point back at H; with the collector off,
    # H must still go as soon as its last reference does
    enabled = gc.isenabled()
    gc.disable()
    try:
        H = group_algebra(S3_TABLE)
        assert H.coalgebra.star_row(1)
        ref = weakref.ref(H)
        del H
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_single_entry_perturbations_fail():
    for make in GROUP_FIXTURES:
        H = make()
        H.mult[0][0][H.dim - 1] = (
            H.mult[0][0].get(H.dim - 1, Scalar.zero()) + Scalar.one()
        )
        assert not validate_hopf(H).ok
        H2 = make()
        key = next(iter(H2.comult[0]))
        H2.comult[0][key] = H2.comult[0][key] + Scalar.one()
        assert not validate_hopf(H2).ok
        H3 = make()
        H3.antipode[0][H3.dim - 1] = (
            H3.antipode[0][H3.dim - 1] + Scalar.one()
        )
        assert not validate_hopf(H3).ok


def test_variants():
    for make in (cz2, cs3):
        H = make()
        h_op, h_cop, h_opcop = variants(H)
        assert validate_hopf(h_op).ok
        assert validate_hopf(h_cop).ok
        assert validate_hopf(h_opcop).ok
    # abelian group algebra: cop variant has identical tensors
    assert hopf_equal(variants(cz2())[1], cz2())
    # double cop flip restores the original exactly
    H = cs3()
    assert hopf_equal(variants(variants(H)[1])[1], H)


def test_op_of_cs3_isomorphic_via_inversion():
    H = cs3()
    h_op = variants(H)[0]
    # P: g -> g^{-1} is an algebra isomorphism H^op -> H
    P = H.antipode  # inversion permutation for a group algebra
    for i in range(6):
        for j in range(6):
            prod_op = vzero(6)
            for k, v in h_op.mult[i][j].items():
                prod_op[k] = prod_op[k] + v
            lhs = mat_vec([[P[a][b] for a in range(6)] for b in range(6)],
                          prod_op)
            rhs = dmul(H, dantipode(H, unit_vec(6, i)),
                       dantipode(H, unit_vec(6, j)))
            assert lhs == rhs


def test_haar_group_algebra():
    tau = haar(cs3())
    assert tau[0] == Scalar.one()
    assert all(not tau[i] for i in range(1, 6))
    tau2 = haar(cz2())
    assert tau2 == [Scalar.one(), Scalar.zero()]


def test_haar_function_algebra_uniform():
    tau = haar(c_of_s3())
    assert all(t == Scalar.rational(1, 6) for t in tau)


def test_haar_invariance_properties():
    for make in GROUP_FIXTURES:
        H = make()
        tau = haar(H)
        n = H.dim
        for i in range(n):
            sv = dstar(H, unit_vec(n, i))
            val = sum((sv[k] * tau[k] for k in range(n) if sv[k] and tau[k]),
                      Scalar.zero())
            assert val == tau[i].conj()
            av = dantipode(H, unit_vec(n, i))
            val = sum((av[k] * tau[k] for k in range(n) if av[k] and tau[k]),
                      Scalar.zero())
            assert val == tau[i]


def test_haar_missing():
    # Breaking the comultiplication of CZ2 so that the invariance equations
    # force tau = 0 leaves nothing to normalize.  With Delta(e_1) = e_0 (x)
    # e_1 every functional is right invariant and only 0 is left invariant;
    # with the legs swapped it is the other way round.
    for legs in ((0, 1), (1, 0)):
        H = cz2()
        H.comult[1] = {legs: Scalar.one()}
        with pytest.raises(InputError, match="no normalizable two-sided"):
            haar(H)


def test_canonical_pairing_validates():
    for make in (cz2, cs3, ck4):
        H = make()
        P = canonical_pairing(dual_hopf(H), H)
        rep = validate_pairing(P)
        assert rep.ok, rep.failed()


def test_nondegeneracy_is_a_rank_test():
    # a pairing is nondegenerate exactly when it is square and nonsingular:
    # the leading square block of [[1, 0]] is invertible, the pairing is not
    trivial, z2 = group_algebra([[0]]), cz2()
    one, zero = Scalar.one(), Scalar.zero()
    assert not HopfPairing(trivial, z2, [[one, zero]]).is_nondegenerate()
    assert not HopfPairing(z2, trivial, [[one], [zero]]).is_nondegenerate()
    assert not HopfPairing(z2, z2, [[one, one], [one, one]]) \
        .is_nondegenerate()
    assert canonical_pairing(dual_hopf(z2), z2).is_nondegenerate()


def test_an_antipode_with_a_zero_row_is_not_invertible():
    H = cz2()
    assert validate_hopf(H)["antipode_invertible"].passed
    H.antipode[1] = vzero(2)
    assert not validate_hopf(H)["antipode_invertible"].passed


def test_zero_pairing_fails_unit_laws():
    H = cz2()
    P = HopfPairing(dual_hopf(H), H,
                    [[Scalar.zero()] * 2 for _ in range(2)])
    rep = validate_pairing(P)
    assert not rep["unit_pairs_to_counit"].passed


def test_group_table_validation():
    with pytest.raises(InputError, match="not a group"):
        group_algebra([[0, 1], [1, 1]])
    with pytest.raises(InputError, match="not a group"):
        group_algebra([[1, 0], [0, 1]])


def test_antipode_is_algebra_and_coalgebra_antihomomorphism():
    for make in GROUP_FIXTURES:
        H = make()
        n = H.dim
        for i in range(n):
            for j in range(n):
                prod = vzero(n)
                for k, v in H.mult[i][j].items():
                    prod[k] = prod[k] + v
                lhs = dantipode(H, prod)
                rhs = dmul(H, dantipode(H, unit_vec(n, j)),
                           dantipode(H, unit_vec(n, i)))
                assert lhs == rhs
        for i in range(n):
            lhs = H.coalgebra.comult_vec(sparse(dantipode(H, unit_vec(n, i))))
            rhs = {}
            for (j, k), v in H.comult[i].items():
                sj = dantipode(H, unit_vec(n, j))
                sk = dantipode(H, unit_vec(n, k))
                for a, va in enumerate(sk):
                    if va:
                        for b, vb in enumerate(sj):
                            if vb:
                                key = (a, b)
                                cur = rhs.get(key, Scalar.zero())
                                rhs[key] = cur + v * va * vb
            keys = set(lhs) | set(rhs)
            zero = Scalar.zero()
            assert all(lhs.get(t, zero) == rhs.get(t, zero) for t in keys)


def test_sweedler_algebra_is_a_non_kac_hopf_star_algebra():
    from builders import sweedler4

    H = sweedler4()
    rep = validate_hopf(H)
    assert rep.ok, rep.failed()
    assert not H.is_kac()
    # S^2 = Ad(g): on x it is -1, S^4 = id
    x = unit_vec(4, 2)
    s2 = dantipode(H, dantipode(H, x))
    assert s2 == [Scalar.zero(), Scalar.zero(), Scalar.from_int(-1),
                  Scalar.zero()]
    s4 = dantipode(H, dantipode(H, s2))
    assert s4 == [v * Scalar.from_int(-1) for v in s2]


def test_sweedler_dual_and_variants():
    from builders import sweedler4
    from hopfgal.hopf import hopf_equal as _eq

    H = sweedler4()
    D = dual_hopf(H)
    assert validate_hopf(D).ok, validate_hopf(D).failed()
    assert _eq(dual_hopf(D), H)
    h_op, h_cop, h_opcop = variants(H)
    for v in (h_op, h_cop, h_opcop):
        rep = validate_hopf(v)
        assert rep.ok, rep.failed()
    # the op/cop variants genuinely use the inverse antipode here
    assert h_op.antipode != H.antipode


def test_sweedler_has_no_normalizable_integral():
    from builders import sweedler4

    with pytest.raises(InputError, match="no normalizable"):
        haar(sweedler4())


def test_haar_is_a_faithful_tracial_state():
    from hopfgal.algebra import analyze_state
    from hopfgal.hopf import haar_state

    for make in GROUP_FIXTURES:
        carrier = haar_state(make())
        st = analyze_state(carrier)
        assert st.tracial and st.hermitian and st.faithful and st.positive


def _canonical_pairing(make):
    def build():
        H = make()
        return canonical_pairing(dual_hopf(H), H)
    return build


def _qgal_pairing(make_action):
    return lambda: canonical_qgal(smash_product(make_action())).pairing


def _twisted_k4_pairing(perm):
    # evaluation twisted by an automorphism of K4: rows perm of the
    # identity, a permutation of the three non-identity elements
    def build():
        H = ck4()
        return HopfPairing(dual_hopf(H), H,
                           [identity_matrix(4)[q] for q in perm])
    return build


# every pairing the fixtures build, canonical certificates included
PAIRINGS = {
    make.__name__: _canonical_pairing(make)
    for make in (cz2, ck4, cs3, c_of_z2, c_of_k4, c_of_s3, sweedler4)
}
PAIRINGS.update({
    "pauli": _qgal_pairing(pauli_action),
    "ad_z": _qgal_pairing(ad_z_action),
    "grading": _qgal_pairing(grading_action_mat2),
    "z4": _qgal_pairing(lambda: cyclic_diagonal_action(4, [0, 1])),
    "z5": _qgal_pairing(lambda: cyclic_diagonal_action(5, [0, 1])),
    # the swap of two generators, and the order-3 automorphism, whose
    # matrix is not symmetric
    "k4_swap": _twisted_k4_pairing((0, 2, 1, 3)),
    "k4_cycle": _twisted_k4_pairing((0, 2, 3, 1)),
})


# law -> (sequence, key) of the single entry scaled by 1 + zeta_N
PAIRING_PERTURBATIONS = {
    "multiplicative_left":
        lambda P: (P.Q.mult[1][1], next(iter(P.Q.mult[1][1]))),
    "multiplicative_right":
        lambda P: (P.H.mult[1][1], next(iter(P.H.mult[1][1]))),
    "unit_pairs_to_counit": lambda P: (P.H.counit, 1),
    "counit_pairs_to_unit": lambda P: (P.Q.counit, 0),
    "antipode_law":
        lambda P: (P.Q.antipode[1], next(j for j, x in
                                          enumerate(P.Q.antipode[1]) if x)),
    "star_law":
        lambda P: (P.Q.star[1], next(j for j, x in enumerate(P.Q.star[1])
                                     if x)),
}


def test_pairing_reports_match_dense_oracle():
    for name, make in PAIRINGS.items():
        P = make()
        rep = validate_pairing(P)
        assert rep.ok, (name, rep.failed())
        assert report_summary(rep) \
            == report_summary(oracle_validate_pairing(P)), name


@pytest.mark.parametrize("order", [1, 4, 5])
@pytest.mark.parametrize("law", sorted(PAIRING_PERTURBATIONS))
def test_perturbed_pairing_report_matches_dense_oracle(law, order):
    P = PAIRINGS[{1: "pauli", 4: "z4", 5: "z5"}[order]]()
    cell, key = PAIRING_PERTURBATIONS[law](P)
    cell[key] = cell[key] * (Scalar.one() + Scalar.root_of_unity(order))
    rep = validate_pairing(P)
    assert not rep[law].passed
    assert report_summary(rep) == report_summary(oracle_validate_pairing(P))


@pytest.mark.parametrize("order", [1, 4, 5])
def test_pairing_with_a_scaled_entry_off_the_diagonal_matches_oracle(order):
    # the asymmetric pairing with one nonzero <e_a, e_c>, a != c, scaled by
    # 1 + zeta_N: the laws must read row a and column c, not their
    # transposes
    P = PAIRINGS["k4_cycle"]()
    a, c = next((a, c) for a, row in enumerate(P.matrix)
                for c, x in enumerate(row) if x and a != c)
    P.matrix[a][c] = P.matrix[a][c] * (Scalar.one()
                                       + Scalar.root_of_unity(order))
    rep = validate_pairing(P)
    assert not rep.ok
    assert report_summary(rep) == report_summary(oracle_validate_pairing(P))

"""Depth-two quantum Galois certificates: endomorphisms, pairings, universality."""

import json
import os
import random
from fractions import Fraction

import pytest

from hopfgal.actions import (
    ModuleAlgebraAction,
    canonical_smash_trace,
    dual_action,
    invariants,
    is_outer,
    smash_product,
)
from hopfgal.algebra import relative_commutant
from hopfgal.errors import InputError
from hopfgal.fixtures import (
    K4_TABLE,
    ad_z_action,
    c_of_k4,
    c_of_z2,
    cz2,
    dual_number_action,
    mat_algebra,
    pauli_action,
    trivial_action,
)

_trivial_action_raw = trivial_action
from hopfgal.galois import (
    canonical_qgal,
    commutant_endos_iso,
    endo_from_functional,
    endo_report,
    extract_pairing,
    qgal_fixed_point,
    smash_bimodule_endos,
    trace_preservation,
)
from hopfgal.hopf import (
    HopfPairing,
    canonical_pairing,
    coaction_operator,
    dual_hopf,
    coassociativity_failures,
    counit_failures,
    group_algebra,
    haar,
    hopf_equal,
)
from hopfgal.jones import basic_construction, gns
from hopfgal.linalg import (
    Subspace,
    identity_matrix,
    op_dense,
    op_from_entries,
    op_mul,
    op_span,
    sparse,
    unit_vec,
)
from hopfgal.scalars import Scalar
from hopfgal.serialize import Workspace

from _oracles import (
    basis_rows,
    cyclic_diagonal_action,
    dmul,
    embed_H_vec,
    oracle_bimodule_endos,
    oracle_dual_endo,
    oracle_endo_from_functional,
)


def pauli_smash():
    return smash_product(pauli_action())


def k4_swap_automorphism():
    """The Hopf automorphism of CK4 swapping the two generators."""
    # table order: e, a, b, ab; swap a <-> b fixes e and ab
    perm = [0, 2, 1, 3]
    return [unit_vec(4, perm[i]) for i in range(4)]


def corpus(sp):
    """(Q, qact) pairs acting on the smash, fixing A; spec-style corpus."""
    H = sp.action.hopf
    dual = dual_hopf(H)
    out = []
    # 1. the canonical dual action
    out.append(("canonical dual",
                dual, dual_action(sp, canonical_pairing(dual, H))))
    # 2. twisted by the swap automorphism of K4
    theta = k4_swap_automorphism()
    twisted = HopfPairing(dual, H,
                          [[theta[h][q] for h in range(4)]
                           for q in range(4)])
    out.append(("twisted dual", dual, dual_action(sp, twisted)))
    # 3. the trivial Hopf algebra
    triv = group_algebra([[0]], name="C")
    out.append(("trivial", triv, _trivial_action_raw(triv, sp.total)))
    # 4./5. C(Z2) through the two coordinate surjections K4 -> Z2
    for which in (0, 1):
        cz2_dual = dual_hopf(cz2())
        proj = _k4_to_z2_pairing(cz2_dual, H, which)
        out.append((f"subdual {which}", cz2_dual, dual_action(sp, proj)))
    return out


def _k4_to_z2_pairing(Q, H, which):
    # K4 = Z2 x Z2 in table order e, a, b, ab; kill one coordinate
    to_z2 = [0, 1, 0, 1] if which == 0 else [0, 0, 1, 1]
    matrix = [[Scalar.one() if to_z2[g] == s else Scalar.zero()
               for g in range(4)] for s in range(2)]
    return HopfPairing(Q, H, matrix)


def _times_unit(sp, values):
    """The functional psi(e_h) = values[h] 1, as an operator."""
    return op_from_entries((h, t, c * u) for h, c in enumerate(values)
                           for t, u in enumerate(sp.total.unit))


def test_endo_from_counit_functional_is_identity():
    sp = pauli_smash()
    psi = _times_unit(sp, [sp.action.hopf.counit[h]
                           for h in range(4)])
    endo = endo_from_functional(sp, psi)
    assert endo == {t: {t: Scalar.one()} for t in range(16)}
    assert endo_report(sp, psi, endo).ok


def test_endo_functional_roundtrip():
    sp = pauli_smash()
    # psi(h) = character values of K4 times the unit: lands in A'
    chars = [Scalar.one(), Scalar.from_int(-1),
             Scalar.one(), Scalar.from_int(-1)]
    psi = _times_unit(sp, chars)
    endo = endo_from_functional(sp, psi)
    rep = endo_report(sp, psi, endo)
    assert rep.ok, rep.failed()
    # this is exactly the dual-action operator of the matching functional
    assert endo == coaction_operator(sp.coaction(), sparse(chars))
    # stored zeros and empty rows do not change the functional or the verdict
    padded = {h: {**row, 15: Scalar.zero()} for h, row in psi.items()}
    assert endo_report(sp, {**padded, 99: {}}, {**endo, 99: {}}).ok


def test_endo_rejects_functional_outside_commutant():
    sp = pauli_smash()
    # E01 x| e is not in A'
    bad = {h: {1: Scalar.one()} for h in range(4)}
    with pytest.raises(InputError, match="psi not into A'"):
        endo_from_functional(sp, bad)


_ORACLE_SMASHES = {
    "pauli-k4": pauli_smash,
    "clock-z3": lambda: smash_product(cyclic_diagonal_action(3, [0, 1, 2])),
    "diag-z5": lambda: smash_product(cyclic_diagonal_action(5, [0, 1])),
    # not cocommutative: the two legs of Delta x = x (x) 1 + g (x) x differ
    "sweedler-dual-numbers": lambda: smash_product(dual_number_action()),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_SMASHES))
def test_dual_endo_and_functional_endo_match_dense_oracles(case):
    sp = _ORACLE_SMASHES[case]()
    H, nh, nt = sp.action.hopf, sp.dim_H, sp.total.dim
    rng = random.Random(case)
    order = sp.total.order()
    zeta = Scalar.root_of_unity(order)

    def scalar():
        return Scalar.from_int(rng.randint(-2, 2), order) \
            + Scalar.from_int(rng.randint(-2, 2), order) * zeta

    functionals = [unit_vec(nh, i) for i in range(nh)]
    functionals += [list(H.counit), [scalar() for _ in range(nh)]]
    for lam in functionals:
        assert op_dense(coaction_operator(sp.coaction(), sparse(lam)), nt) \
            == oracle_dual_endo(sp, lam)

    # psi(e_h) a random combination of the commutant A' of A
    commutant = relative_commutant(sp.subspace_A(), sp.total)
    rows = []
    for _ in range(nh):
        row = [Scalar.zero()] * nt
        for b in basis_rows(commutant):
            c = scalar()
            row = [x + c * y for x, y in zip(row, b)]
        rows.append(row)
    psi = op_from_entries((h, t, x) for h, row in enumerate(rows)
                          for t, x in enumerate(row))
    endo = endo_from_functional(sp, psi)
    assert op_dense(endo, nt) == oracle_endo_from_functional(sp, rows)
    assert endo_report(sp, psi, endo).ok


@pytest.mark.parametrize("case", sorted(_ORACLE_SMASHES))
def test_smash_coaction_is_coassociative_and_counital(case):
    sp = _ORACLE_SMASHES[case]()
    H, coact = sp.action.hopf, sp.coaction()
    assert not list(coassociativity_failures(coact, H.comult))
    assert not list(counit_failures(coact, H.counit))


@pytest.mark.parametrize("order", [None, 3])
def test_depth_two_tower_pauli(order):
    """N = A in M = Mat2 x| CK4 with the canonical trace: e_N is T_phi for
    the Haar state phi of H, M_1 is span{lam(x) T_f} and the index is
    dim H; order 3 lifts the workspace by an extra document."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                        "pauli.json")
    with open(path) as fh:
        docs = json.load(fh)["documents"]
    if order:
        one = {"order": order, "num": [1, 0], "den": 1}
        docs["oddball"] = {"kind": "algebra", "dim": 1, "mult": [[[one]]],
                           "unit": [one], "star": [[1]], "state": None}
    ws = Workspace(docs)
    assert ws.lift_orders() == (order or 1)
    sp = smash_product(ws.get("pauli"))
    M, H, n = sp.total, sp.action.hopf, sp.total.dim
    M.state = canonical_smash_trace(sp)
    bc = basic_construction(gns(M), sp.subspace_A())

    coact = sp.coaction()
    phi = haar(H)
    assert bc.e_N == coaction_operator(coact, sparse(phi))
    assert op_dense(bc.e_N, n) == oracle_dual_endo(sp, phi)
    t_f = [coaction_operator(coact, {f: Scalar.one()})
           for f in range(sp.dim_H)]
    m1 = op_span((op_mul(M.left_mult_op({x: Scalar.one()}), T)
                  for x in range(n) for T in t_f), n)
    assert bc.m1 == m1
    assert m1.dim == n * sp.dim_H == 64
    assert bc.index == Fraction(sp.dim_H)


def test_bimodule_endo_dimension_classification():
    sp = pauli_smash()
    full = oracle_bimodule_endos(sp)
    general = smash_bimodule_endos(sp)
    assert full == general
    # dim Hom(H, A') = dim H * dim A' = 4 * 4
    assert full.dim == 16
    colinear = smash_bimodule_endos(sp, colinear=True)
    assert colinear.dim == 4


def test_commutant_endos_iso_pauli():
    sp = pauli_smash()
    dual, rep = commutant_endos_iso(sp, *is_outer(sp))
    assert hopf_equal(dual, c_of_k4())
    assert rep["colinear_endos_dim_matches_dual"].passed
    assert rep["dual_image_spans_colinear_endos"].passed
    assert rep["convolution_matches_composition"].passed
    assert rep["unconstrained_endos_classified"].passed
    assert rep["commutant_reported"].witness == {"commutant_dim": 4, "outer": False}


def test_commutant_endos_iso_ad_z():
    sp = smash_product(ad_z_action())
    dual, rep = commutant_endos_iso(sp, *is_outer(sp))
    assert hopf_equal(dual, c_of_z2())
    assert rep["colinear_endos_dim_matches_dual"].passed
    assert rep["convolution_matches_composition"].passed


def test_extract_pairing_corpus():
    sp = pauli_smash()
    for name, Q, qact in corpus(sp):
        pairing, rep = extract_pairing(sp, Q, qact)
        assert rep.ok, (name, rep.failed())
    # the canonical one recovers evaluation
    dual = dual_hopf(sp.action.hopf)
    pairing, _ = extract_pairing(
        sp, dual, dual_action(sp, canonical_pairing(dual, sp.action.hopf))
    )
    assert pairing.matrix == identity_matrix(4)


def test_extract_pairing_twisted_recovers_twist():
    sp = pauli_smash()
    dual = dual_hopf(sp.action.hopf)
    theta = k4_swap_automorphism()
    twisted = HopfPairing(dual, sp.action.hopf,
                          [[theta[h][q] for h in range(4)]
                           for q in range(4)])
    pairing, rep = extract_pairing(sp, dual, dual_action(sp, twisted))
    assert rep.ok
    # evaluation composed with the swap
    assert pairing.matrix == twisted.matrix


def test_extract_pairing_trivial_hopf():
    sp = pauli_smash()
    triv = group_algebra([[0]], name="C")
    pairing, rep = extract_pairing(
        sp, triv, _trivial_action_raw(triv, sp.total)
    )
    assert rep.ok
    eps = [sp.action.hopf.counit[h] for h in range(4)]
    assert pairing.matrix == [eps]


def test_extract_pairing_rejects_non_fixing_action():
    sp = smash_product(ad_z_action())
    H = sp.action.hopf
    # CZ2 acting on the smash by conjugation with 1 x| g fixes H, not A
    g_emb = embed_H_vec(sp, unit_vec(2, 1))
    act = []
    for h in range(2):
        plane = []
        for t in range(8):
            if h == 0:
                img = unit_vec(8, t)
            else:
                img = dmul(sp.total, g_emb,
                           dmul(sp.total, unit_vec(8, t), g_emb))
            plane.append({k: v for k, v in enumerate(img) if v})
        act.append(plane)
    qact = ModuleAlgebraAction(cz2(), sp.total, act)
    with pytest.raises(InputError, match="A not fixed"):
        extract_pairing(sp, cz2(), qact)


def test_canonical_qgal_pauli():
    sp = pauli_smash()
    cert = canonical_qgal(sp)
    assert cert.report.ok
    assert hopf_equal(cert.qgal, c_of_k4())
    assert cert.qgal.dim == 4
    assert not cert.outer
    assert cert.outer_witness.dim == 4


def test_universal_morphisms_unique():
    sp = pauli_smash()
    cert = canonical_qgal(sp)
    for name, Q, qact in corpus(sp):
        phi, rep = cert.universal_morphism(Q, qact)
        assert rep.ok, (name, rep.failed())
    # identity for the canonical dual
    dual = dual_hopf(sp.action.hopf)
    phi, _ = cert.universal_morphism(
        dual, dual_action(sp, canonical_pairing(dual, sp.action.hopf))
    )
    assert phi == identity_matrix(4)
    # counit-unit morphism for the trivial Hopf algebra
    triv = group_algebra([[0]], name="C")
    phi, _ = cert.universal_morphism(
        triv, _trivial_action_raw(triv, sp.total)
    )
    assert phi == [[sp.action.hopf.counit[h]
                    for h in range(4)]]


def test_universal_morphism_of_the_z3_clock_dual():
    # the antipode of C(Z3) is not the identity, so the antipode law of the
    # extracted pairing compares <S(q), h> with <q, S(h)> on different
    # vectors
    sp = smash_product(cyclic_diagonal_action(3, [0, 1, 2]))
    cert = canonical_qgal(sp)
    assert cert.dual.antipode != identity_matrix(3)
    phi, rep = cert.universal_morphism(cert.dual, cert.dual_act)
    assert rep.ok, rep.failed()
    assert phi == identity_matrix(3)


def test_canonical_qgal_ad_z():
    sp = smash_product(ad_z_action())
    cert = canonical_qgal(sp)
    assert cert.report.ok
    assert hopf_equal(cert.qgal, c_of_z2())


def test_qgal_fixed_point_pauli():
    sp = pauli_smash()
    cert, rep = qgal_fixed_point(sp)
    assert rep.ok, rep.failed()
    assert rep["invariants_identified_with_A"].passed
    assert rep["double_dual_is_original"].passed
    assert hopf_equal(cert.qgal, group_algebra(K4_TABLE, name="CK4"))


def test_qgal_fixed_point_trivial_hopf():
    A = mat_algebra(2)
    triv = group_algebra([[0]], name="C")
    sp = smash_product(trivial_action(triv, A))
    cert, rep = qgal_fixed_point(sp)
    assert rep.ok
    assert cert.qgal.dim == 1


def test_minimality_of_certified_invariants():
    # the invariant subalgebra P = A of the certified action has trivial
    # relative commutant in itself (P' cap P = C)
    from hopfgal.algebra import relative_commutant, reify

    sp = pauli_smash()
    cert = canonical_qgal(sp)
    inv = invariants(cert.dual_act)
    P, _ = reify(sp.total, inv)
    assert relative_commutant(Subspace.full(P.dim), P).dim == 1


def test_trace_preservation_dual_action():
    sp = pauli_smash()
    dual = dual_hopf(sp.action.hopf)
    dact = dual_action(sp, canonical_pairing(dual, sp.action.hopf))
    tau = canonical_smash_trace(sp)
    rep = trace_preservation(dact, tau=tau)
    assert rep.ok
    # on the Pauli smash the canonical trace is the unique one
    from hopfgal.algebra import unique_trace

    assert tau == unique_trace(sp.total)


def test_trace_preservation_pauli_action():
    rep = trace_preservation(pauli_action())
    assert rep.ok


def test_trace_preservation_negative_control():
    act = pauli_action()
    # scale one matrix-unit image: no longer a *-action, breaks invariance
    act.act[1][0] = {0: Scalar.from_int(2)}
    rep = trace_preservation(act)
    assert not rep.ok
    assert rep["state_invariant"].witness is not None


def test_trace_extension_on_basic_construction():
    from hopfgal.jones import basic_construction, gns

    act = pauli_action()
    M = act.alg
    space = gns(M)
    N = invariants(act)
    bc = basic_construction(space, N)
    rep = trace_preservation(act, bc=bc)
    assert rep.ok, rep.failed()


def test_consistency_with_measuring_constraints():
    # the subspace of Q acting compatibly (multiplication + unit + fixing-A
    # spans) is all of Q for every corpus action
    from hopfgal.measuring import (
        Multispan,
        constraint_subspace,
        fixing_span,
        multiplication_span,
        unit_span,
    )

    sp = pauli_smash()
    for name, Q, qact in corpus(sp):
        ms = Multispan(
            qact.to_hom_map(),
            [multiplication_span(sp.total, sp.total),
             unit_span(sp.total, sp.total),
             fixing_span(sp.total, sp.total, sp.subspace_A())],
        )
        W = constraint_subspace(Q.coalgebra, ms)
        assert W.dim == Q.dim, name


def test_commutative_base_fails_certification():
    # A = C(Z2) is commutative, so A sits inside its own commutant and the
    # colinear endomorphism count exceeds dim H*: the certificate must
    # refuse rather than claim QGal = H*, and it refuses the input, whose
    # base is not a factor, before it counts.
    from hopfgal.fixtures import Z2_TABLE, translation_action

    sp = smash_product(translation_action(Z2_TABLE))
    dual, rep = commutant_endos_iso(sp, *is_outer(sp))
    assert not rep["colinear_endos_dim_matches_dual"].passed
    with pytest.raises(InputError, match="^the base algebra is not a factor:"
                                         " its center has dim 2$"):
        canonical_qgal(sp)


def test_scalar_reader_rejects_non_scalar_leg():
    sp = pauli_smash()
    # (id (x) counit)(E01 x| e) = E01 is not a multiple of 1_A
    with pytest.raises(InputError, match="not scalar"):
        sp.unit_coefficient({sp.idx(1, 0): Scalar.one()})


def test_qgal_fixed_point_ad_z_refuses_nonfactor_base():
    # The second-level base Mat2 x| CZ2 = Mat2 (+) Mat2 is not a factor, so
    # the canonical-endomorphism count exceeds dim H** and the certificate
    # honestly refuses, as an input whose base is not a factor; contrast
    # with the Pauli fixture, whose smash is the factor Mat4 (nondegenerate
    # projective cocycle).
    sp = smash_product(ad_z_action())
    with pytest.raises(InputError, match="not a factor: its center has"
                                         " dim 2$"):
        qgal_fixed_point(sp)


def test_invariant_commutant_computed_through_either_identification():
    # (total)^{H*} equals the embedded copy of A, so both subspaces give
    # one and the same relative commutant inside the smash product
    from hopfgal.algebra import relative_commutant

    sp = pauli_smash()
    dual = dual_hopf(sp.action.hopf)
    dact = dual_action(sp, canonical_pairing(dual, sp.action.hopf))
    inv = invariants(dact)
    assert inv == sp.subspace_A()
    assert relative_commutant(inv, sp.total) \
        == relative_commutant(sp.subspace_A(), sp.total)

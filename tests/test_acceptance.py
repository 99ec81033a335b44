"""Acceptance suite: every criterion exact, one pass/fail line each.

All assertions are exact identities over the cyclotomic ground field; the
single tolerance in the package (1e-9 at the float embedding) only enters
through state-positivity verdicts, which these criteria do not rely on.
Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import random
from fractions import Fraction

from _oracles import (
    basis_rows,
    dapply,
    oracle_largest_subcoalgebra,
    random_coalgebra,
    random_subspace,
    stabilized_closure,
)
from hopfgal.actions import (
    ModuleAlgebraAction,
    canonical_smash_trace,
    dual_action,
    invariants,
    smash_product,
)
from hopfgal.algebra import relative_commutant, tensor_algebra
from hopfgal.banica import ComoduleAlgebra, product_coaction, qgal_banica
from hopfgal.fixtures import (
    S3_TRANSPOSITION,
    Z2_TABLE,
    ad_z_action,
    c_of_k4,
    c_of_s3,
    c_of_z2,
    ck4,
    cs3,
    cz2,
    grading_action_mat2,
    mat_algebra,
    pauli_action,
    subalgebra_embedding_left,
    translation_action,
)
from hopfgal.galois import canonical_qgal, smash_bimodule_endos
from hopfgal.hopf import (
    canonical_pairing,
    dual_hopf,
    group_algebra,
    hopf_equal,
    validate_hopf,
    variants,
)
from hopfgal.jones import basic_construction, bimodule_endos, gns, index
from hopfgal.linalg import Subspace, sparse, unit_vec, vzero
from hopfgal.measuring import (
    Multispan,
    constraint_subspace,
    fixing_span,
    hopf_centralizer,
    largest_subcoalgebra,
)
from hopfgal.scalars import Scalar


def _verdict(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_hopf_axiom_suite():
    ok = True
    makers = [cz2, ck4, cs3, c_of_z2, c_of_k4, c_of_s3]
    for make in makers:
        ok = ok and validate_hopf(make()).ok
    # single-entry perturbations fail with a witness
    for make in makers:
        h1 = make()
        h1.mult[0][0][h1.dim - 1] = (
            h1.mult[0][0].get(h1.dim - 1, Scalar.zero())
            + Scalar.one()
        )
        rep = validate_hopf(h1)
        ok = ok and not rep.ok and rep.first_failure().witness is not None

        h2 = make()
        key = next(iter(h2.comult[0]))
        h2.comult[0][key] = h2.comult[0][key] + Scalar.one()
        rep = validate_hopf(h2)
        ok = ok and not rep.ok and rep.first_failure().witness is not None

        h3 = make()
        h3.antipode[0][h3.dim - 1] = h3.antipode[0][h3.dim - 1] + Scalar.one()
        rep = validate_hopf(h3)
        ok = ok and not rep.ok and rep.first_failure().witness is not None
    _verdict(1, "hopf axiom suite", ok)


def test_criterion_2_depth2_quantum_galois_group():
    sp = smash_product(pauli_action())
    endos = smash_bimodule_endos(sp, colinear=True)
    ok = endos.dim == 4
    cert = canonical_qgal(sp)
    ok = ok and cert.report.ok
    ok = ok and cert.report["endos:convolution_matches_composition"].passed
    ok = ok and cert.report["endos:dual_image_spans_colinear_endos"].passed
    ok = ok and hopf_equal(cert.qgal, c_of_k4())
    _verdict(2, "depth-2 galois group is C(K4)", ok)


def _pauli_corpus(sp):
    H = sp.action.hopf
    dual = dual_hopf(H)
    from hopfgal.hopf import HopfPairing

    pairs = [("canonical", dual,
              dual_action(sp, canonical_pairing(dual, H)))]
    swap = [0, 2, 1, 3]  # Hopf automorphism of CK4 exchanging generators
    theta = [unit_vec(4, swap[i]) for i in range(4)]
    twisted = HopfPairing(dual, H,
                          [[theta[h][q] for h in range(4)]
                           for q in range(4)])
    pairs.append(("twisted", dual, dual_action(sp, twisted)))
    triv = group_algebra([[0]], name="C")
    from hopfgal.fixtures import trivial_action

    pairs.append(("trivial", triv, trivial_action(triv, sp.total)))
    for which, labels in ((0, [0, 1, 0, 1]), (1, [0, 0, 1, 1])):
        Q = dual_hopf(cz2())
        matrix = [[Scalar.one() if labels[g] == s else Scalar.zero()
                   for g in range(4)] for s in range(2)]
        pairs.append((f"surjection {which}", Q,
                      dual_action(sp, HopfPairing(Q, H, matrix))))
    return pairs


def test_criterion_3_universality_over_corpus():
    sp = smash_product(pauli_action())
    cert = canonical_qgal(sp)
    corpus = _pauli_corpus(sp)
    ok = len(corpus) >= 5
    for name, Q, qact in corpus:
        phi, rep = cert.universal_morphism(Q, qact)
        ok = ok and rep.ok
        ok = ok and rep["extract:pairing:multiplicative_left"].passed
        ok = ok and rep["extract:pairing:multiplicative_right"].passed
        ok = ok and rep["extract:pairing:unit_pairs_to_counit"].passed
        ok = ok and rep["extract:pairing:counit_pairs_to_unit"].passed
        ok = ok and rep["extract:pairing:antipode_law"].passed
        ok = ok and rep["intertwiner_unique"].passed
        ok = ok and rep["unique_solution_is_phi"].passed
    _verdict(3, "universality over the corpus", ok)


def test_criterion_4_jones_markov():
    M4 = tensor_algebra(mat_algebra(2), mat_algebra(2), name="Mat4")
    N = Subspace.from_vectors(
        subalgebra_embedding_left(mat_algebra(2), mat_algebra(2)), 16
    )
    space = gns(M4)
    bc = basic_construction(space, N)
    ok = bc.index == Fraction(4)
    # Markov on all 16 basis elements
    from hopfgal.linalg import op_mul

    for i in range(16):
        lhs = bc.trace1(op_mul(bc.e_N, space.lam_basis(i)))
        rhs = M4.apply_state(sparse(unit_vec(16, i))) / Scalar.from_int(4)
        ok = ok and lhs == rhs
    # properties (1)-(4) of the Jones projection
    for name in ("compresses_to_expectation",
                 "commutation_characterizes_subalgebra",
                 "commutes_with_conjugation",
                 "double_commutant_identity"):
        ok = ok and bc.report[f"e_N:{name}"].passed
    # bimodule endomorphisms match N' cap M_1
    endos = bimodule_endos(M4, N, N)
    from hopfgal.linalg import matrix_commutant

    n_comm = matrix_commutant([M4.left_mult_op(b) for b in N.vectors], 16)
    inter = n_comm.intersect(bc.m1)
    ok = ok and endos.dim == inter.dim == 16

    # [M : M] = 1 and multiplicativity on the tensor chain
    ok = ok and index(space, Subspace.full(16)) == Fraction(1)
    M8 = tensor_algebra(M4, mat_algebra(2), name="Mat8")
    space8 = gns(M8, certify=False)
    mid = Subspace.from_vectors(
        subalgebra_embedding_left(M4, mat_algebra(2)), 64
    )
    small_vecs = []
    for v in subalgebra_embedding_left(mat_algebra(2), mat_algebra(2)):
        w = vzero(64)
        for i, x in enumerate(v):
            if x:
                w[i * 4 + 0] = x
                w[i * 4 + 3] = x
        small_vecs.append(w)
    small = Subspace.from_vectors(small_vecs, 64)
    top_mid = index(space8, mid)
    mid_small = index(gns(M4), N)
    top_small = index(space8, small)
    ok = ok and top_mid == Fraction(4) and mid_small == Fraction(4)
    ok = ok and top_small == Fraction(16) == top_mid * mid_small
    _verdict(4, "jones index and markov property", ok)


def test_criterion_5_hopf_centralizer():
    Q = cs3()
    S = Subspace.from_vectors([unit_vec(6, S3_TRANSPOSITION)], 6)
    result = hopf_centralizer(Q, S)
    expected = Subspace.from_vectors(
        [unit_vec(6, 0), unit_vec(6, S3_TRANSPOSITION)], 6
    )
    ok = result == expected

    whole = hopf_centralizer(Q, Subspace.full(6))
    center = relative_commutant(Subspace.full(6), Q)
    oracle = oracle_largest_subcoalgebra(
        Q.coalgebra, center,
        stabilizers=[Q.antipode_vec, Q.star_vec],
    )
    ok = ok and whole.dim == 1 and whole.contains(Q.unit)
    ok = ok and oracle == whole
    _verdict(5, "hopf centralizer in CS3", ok)


def test_criterion_6_measuring_oracle_equivalence():
    rng = random.Random(4096)
    ok = True
    checked = 0
    while checked < 100:
        C = random_coalgebra(rng)
        W = random_subspace(rng, C)
        stab = [C.star_vec] if rng.random() < 0.5 else []
        mine = largest_subcoalgebra(C, W, stabilizers=stab)
        theirs = oracle_largest_subcoalgebra(C, W, stabilizers=stab)
        ok = ok and mine == theirs
        # maximality: no 1-dim extension inside W stays closed
        v = [Scalar.from_int(rng.randint(-2, 2), 4) for _ in range(C.dim)]
        if W.contains(v) and not mine.contains(v):
            closure = stabilized_closure(C, basis_rows(mine) + [v], stab)
            ok = ok and not all(W.contains(r) for r in closure.rows)
        checked += 1
    # fixing-span agreement with the invariants computation
    for make in (ad_z_action, pauli_action, grading_action_mat2,
                 lambda: translation_action(Z2_TABLE)):
        act = make()
        inv = invariants(act)
        C = act.hopf.coalgebra
        ms = Multispan(act.to_hom_map(),
                       [fixing_span(act.alg, act.alg, inv)])
        ok = ok and constraint_subspace(C, ms).dim == act.hopf.dim
        for i in range(act.alg.dim):
            probe = unit_vec(act.alg.dim, i)
            if not inv.contains(probe):
                bigger = inv.add(
                    Subspace.from_vectors([probe], act.alg.dim)
                )
                ms2 = Multispan(act.to_hom_map(),
                                [fixing_span(act.alg, act.alg, bigger)])
                ok = ok and constraint_subspace(C, ms2).dim < act.hopf.dim
                break
    _verdict(6, "measuring engine oracle equivalence", ok)


def test_criterion_7_banica_pipeline():
    H = cz2()
    B = ComoduleAlgebra(
        H, group_algebra(Z2_TABLE),
        [{(i, i): Scalar.one()} for i in range(2)],
    )
    hcop = variants(H)[1]
    base = ad_z_action()
    act = ModuleAlgebraAction(hcop, base.alg, base.act)
    sp = smash_product(act)
    data = product_coaction(B, sp)
    ok = data.report.ok
    # membership of the coaction legs and the Haar swap identity, exactly
    ok = ok and data.report["coaction_legs_13_invariant"].passed
    ok = ok and data.report["haar_swap_identity"].passed

    q_ambient = dual_hopf(H, name="C(Z2)")
    q_on_b = ModuleAlgebraAction(
        q_ambient, B.alg,
        [[{0: Scalar.one()}, {}], [{}, {1: Scalar.one()}]],
    )
    result = qgal_banica(data, q_ambient, q_on_b)
    ok = ok and result.report.ok

    cert = canonical_qgal(sp)
    ok = ok and hopf_equal(result.hopf, cert.qgal)
    # basis matching iota(a x| h) = h (x) a x| h identifies C with the
    # smash product and intertwines the two actions exactly
    C = data.invariants
    iota = []
    for a in range(4):
        for h in range(2):
            v = vzero(16)
            v[data.idx(h, a * 2 + h)] = Scalar.one()
            iota.append(v)
    ok = ok and Subspace.from_vectors(iota, 16) == C
    for q in range(2):
        for src in range(8):
            lifted = dapply(result.lifted_action, unit_vec(2, q),
                            C.coordinates(iota[src]))
            dual_img = dapply(cert.dual_act, unit_vec(2, q),
                              unit_vec(8, src))
            pushed = vzero(C.dim)
            for t, x in enumerate(dual_img):
                if x:
                    pushed = [p + x * c for p, c in
                              zip(pushed, C.coordinates(iota[t]))]
            ok = ok and lifted == pushed
    _verdict(7, "banica pipeline matches depth-2", ok)


def test_criterion_8_trace_preservation():
    from hopfgal.galois import trace_preservation

    ok = True
    for make in (pauli_action, ad_z_action, grading_action_mat2,
                 lambda: translation_action(Z2_TABLE)):
        act = make()
        sp = smash_product(act)
        H = act.hopf
        dual = dual_hopf(H)
        dact = dual_action(sp, canonical_pairing(dual, H))
        tau = canonical_smash_trace(sp)
        ok = ok and trace_preservation(dact, tau=tau).ok
    # tau_1 extension identity on the Pauli basic construction
    act = pauli_action()
    space = gns(act.alg)
    bc = basic_construction(space, invariants(act))
    rep = trace_preservation(act, bc=bc)
    ok = ok and rep["basic_construction_trace_extension"].passed
    _verdict(8, "trace preservation", ok)

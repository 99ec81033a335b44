"""Quantum Galois groups of depth-two presentations A in A x| H.

The dual Hopf *-algebra acts on the smash product by u . (a x| h) =
a x| h_1 <u, h_2>, fixing A; the certificate produced here identifies the
dual as the canonical symmetry of the inclusion:

  * H* embeds in the A-bimodule endomorphisms of A x| H through
    T_lam(a x| h) = a x| h_1 lam(h_2), the coaction operator at lam of
    SmashProduct.coaction, and the image is exactly the subspace of
    bimodule endomorphisms colinear for the canonical right coaction
    a x| h -> (a x| h_2) (x) h_1.  For a factor A this colinear
    endomorphism algebra has dimension dim H* and T is an exact algebra
    isomorphism onto it (convolution matches composition); a base A that
    is not a factor is refused as input.  Scalar-commutant
    ("outer") inclusions, where no colinearity constraint is needed, do not
    exist in finite dimensions once dim H > 1: A x| H always decomposes as
    A (x) (A' cap A x| H).  The honest commutant is computed and reported.

  * Any Hopf *-algebra Q acting on A x| H as a module *-algebra and fixing
    A pointwise, whose action is implemented through the dual (certified
    exactly, element by element), factors uniquely through H*: the pairing
    <q, h> read off from q . (1 x| h) reconstructs the action, and the
    induced map phi: Q -> H* is the unique intertwiner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .actions import (
    ModuleAlgebraAction,
    SmashProduct,
    canonical_smash_trace,
    dual_action,
    invariants,
    is_outer,
    smash_product,
    validate_action,
)
from .algebra import center, is_bimodular, relative_commutant, unique_trace
from .errors import ConsistencyError, InputError
from .hopf import (
    HopfPairing,
    HopfStarAlgebra,
    canonical_pairing,
    coaction_operator,
    composition_failures,
    convolve,
    counit_failures,
    dual_hopf,
    hopf_equal,
    validate_pairing,
)
from .jones import BasicConstruction
from .linalg import (
    Mat,
    Subspace,
    Vec,
    dot,
    kernel_of,
    op_from_entries,
    op_mul,
    op_span,
    op_vec,
    sparse,
    sparse_apply,
    sparse_comb,
    sparse_ne,
)
from .report import Report
from .scalars import Scalar


# -- bimodule endomorphisms of a smash product ---------------------------------
#
# Every endomorphism of A x| H below is a sparse operator of linalg (a dict
# row -> sparse row), and a functional psi: H -> A x| H is the operator
# whose row h is the sparse vector psi(e_h).


def smash_bimodule_endos(sp: SmashProduct,
                         colinear: bool = False) -> Subspace:
    """A-bimodule endomorphisms of A x| H, flattened inside End(total)."""
    total = sp.total
    na, nh, nt = sp.dim_A, sp.dim_H, total.dim
    one = Scalar.one()
    legs = [sp.a_leg({a: one}) for a in range(na)]
    ops = []
    for sol in _endo_values(sp, colinear).vectors:
        # F(a x| h) = (a x| 1) F(1 x| h)
        values = [{} for _ in range(nh)]
        for k, x in sol.items():
            values[k // nt][k % nt] = x
        ops.append(op_from_entries(
            (t, sp.idx(a, h), x) for a in range(na) for h in range(nh)
            for t, x in sparse_apply(total.mult, legs[a], values[h]).items()))
    return op_span(ops, nt)


def _endo_values(sp: SmashProduct, colinear: bool) -> Subspace:
    """The values (F(1 x| h))_h of the A-bimodule endomorphisms F.

    A bimodule endomorphism is determined by its values on 1 x| H because
    (a x| 1)(1 x| h) = a x| h, so F -> (F(1 x| h))_h is injective; the
    solver parametrizes those values and imposes right A-linearity (left
    linearity holds by construction).  With colinear=True the endomorphism
    must also satisfy phi(a x| h_2) (x) h_1 = pi(phi(a x| h)) for the
    canonical coaction pi(a x| h) = (a x| h_2) (x) h_1.  Every row is read
    from the sparse comult, act and mult tensors.
    """
    total = sp.total
    H = sp.action.hopf
    na, nh, nt = sp.dim_A, sp.dim_H, total.dim
    h_unit = [(g, u) for g, u in enumerate(H.unit) if u]
    # the nonempty rows mult[l][s] and columns mult[s][l] at the legs
    # l = a x| g of A with g in the support of the unit of H
    legs = {a * nh + g for a in range(na) for g, _ in h_unit}
    left = {l: [(s, line) for s, line in enumerate(total.mult[l]) if line]
            for l in legs}
    right = {l: [(s, total.mult[s][l]) for s in range(nt) if total.mult[s][l]]
             for l in legs}

    def entries():
        # unknowns: F(1 x| e_h) in total, flattened as h * nt + s
        for h in range(nh):
            for b in range(na):
                # ((h1 . b) x| 1) F(1 x| h2) = F(1 x| h) (b x| 1)
                key = (0, h, b)
                for (h1, h2), v in H.comult[h].items():
                    for c, w in sp.action.act[h1][b].items():
                        vw = v * w
                        for g, u in h_unit:
                            x = vw * u
                            for s, line in left[c * nh + g]:
                                for t, m in line.items():
                                    yield key + (t,), h2 * nt + s, x * m
                for g, u in h_unit:
                    for s, line in right[b * nh + g]:
                        for t, m in line.items():
                            yield key + (t,), h * nt + s, -(u * m)
        if colinear:
            # pi(F(1 x| h)) = sum F(1 x| h2) (x) h1 over total (x) H
            # coordinates, where pi(e_(a,g)) = sum e_(a,g2) (x) e_g1
            for h in range(nh):
                for (h1, h2), v in H.comult[h].items():
                    for t in range(nt):
                        yield (1, h, t, h1), h2 * nt + t, -v
                for a in range(na):
                    for g in range(nh):
                        for (g1, g2), v in H.comult[g].items():
                            yield ((1, h, a * nh + g2, g1),
                                   h * nt + a * nh + g, v)
    return kernel_of(entries(), nh * nt)


def endo_from_functional(sp: SmashProduct, psi: dict) -> dict:
    """The A-bimodule endomorphism a x| h -> (a x| h_1) psi(h_2).

    psi is an operator with row h the value psi(e_h) in total coordinates;
    its image must lie in the commutant of A inside the smash product.
    """
    total = sp.total
    H = sp.action.hopf
    commutant = relative_commutant(sp.subspace_A(), total)
    if not all(commutant.contains(row) for row in psi.values()):
        raise InputError("psi not into A'")
    one, hs = Scalar.one(), range(sp.dim_H)
    values = [psi.get(h, {}) for h in hs]
    # the basis vectors a x| g, for each a
    legs = [[{sp.idx(a, g): one} for g in hs] for a in range(sp.dim_A)]
    return op_from_entries(
        (t, sp.idx(a, h), x) for a, leg in enumerate(legs)
        for h, plane in enumerate(H.comult)
        for t, x in convolve(total.mult, plane, leg, values).items())


def recover_functional(sp: SmashProduct, endo: dict) -> dict:
    """psi(h) = sum V^{-1}(h_1) endo(1 x| h_2), the convolution inverse read."""
    H = sp.action.hopf
    one = Scalar.one()
    vinv = [sp.h_leg(sparse(row)) for row in H.antipode]
    images = [op_vec(endo, sp.h_leg({g: one})) for g in range(sp.dim_H)]
    return op_from_entries(
        (h, t, x) for h, plane in enumerate(H.comult)
        for t, x in convolve(sp.total.mult, plane, vinv, images).items())


def endo_report(sp: SmashProduct, psi: dict, endo: dict) -> Report:
    rep = Report("bimodule endomorphism from functional")
    total = sp.total
    # the round trips return operators with no zero entry and no empty row;
    # bring the given ones to that form before comparing dicts
    psi, endo = (op_from_entries((i, j, x) for i, row in X.items()
                                 for j, x in row.items()) for X in (psi, endo))
    legs = (sp.a_leg({a: Scalar.one()}) for a in range(sp.dim_A))
    rep.add("bimodular", is_bimodular(total, endo, legs))
    recovered = recover_functional(sp, endo)
    rep.add("round_trip_functional", recovered == psi)
    rebuilt = endo_from_functional(sp, recovered)
    rep.add("round_trip_endo", rebuilt == endo)
    return rep


# -- the isomorphism H* = colinear bimodule endomorphisms ------------------------


def commutant_endos_iso(sp: SmashProduct, outer: bool, commutant: Subspace,
                        ) -> tuple[HopfStarAlgebra, Report]:
    """Certify H* = colinear A-bimodule endomorphisms, tables matched.

    Returns the dual Hopf *-algebra together with the report; the report
    also carries the honest commutant dimension and the unconstrained
    bimodule endomorphism dimension (dim H * dim A' by the classification
    through functionals into the commutant).  `outer` and `commutant` are
    the result of `is_outer(sp)`.
    """
    H = sp.action.hopf
    dual = dual_hopf(H)
    rep = Report("dual vs bimodule endomorphisms")
    nt = sp.total.dim
    nh = sp.dim_H

    rep.add("commutant_reported", True,
            witness={"commutant_dim": commutant.dim, "outer": outer},
            note="a scalar commutant is unattainable for dim H > 1 in"
                 " finite dimension (A x| H = A (x) A'); the honest"
                 " verdict is recorded, not required")

    colinear = smash_bimodule_endos(sp, colinear=True)
    rep.add("colinear_endos_dim_matches_dual",
            colinear.dim == dual.dim,
            witness={"colinear": colinear.dim, "dual": dual.dim})

    coact = sp.coaction()
    dual_basis = [{i: Scalar.one()} for i in range(nh)]
    span_t = op_span([coaction_operator(coact, e) for e in dual_basis], nt)
    rep.add("dual_image_spans_colinear_endos", span_t == colinear)
    rep.add("dual_map_injective", span_t.dim == nh)

    # composition of endomorphisms = convolution in H*
    rep.law("convolution_matches_composition",
            composition_failures(coact, H.comult, dual_basis))

    # the values F(1 x| h) determine F, so they span a space of equal dim
    unconstrained = _endo_values(sp, colinear=False)
    expected = nh * commutant.dim
    rep.add("unconstrained_endos_classified",
            unconstrained.dim == expected,
            witness={"endos": unconstrained.dim,
                     "hom_h_to_commutant": expected})
    rep.law("identity_is_counit_endo", counit_failures(coact, H.counit))
    return dual, rep


# -- pairing extraction ------------------------------------------------------------


def extract_pairing(sp: SmashProduct, Q: HopfStarAlgebra,
                    qact: ModuleAlgebraAction) -> tuple[HopfPairing, Report]:
    """The unique pairing with q . (a x| h) = a x| h_1 <q, h_2>.

    Preconditions: qact is a validated module *-algebra action of Q on the
    smash product fixing A pointwise.  The scalar reading of q . (1 x| h)
    and the reconstruction identity are certified exactly; failure of the
    reconstruction means the action is not implemented through the dual
    (the finite-dimensional stand-in for the outerness hypothesis).
    """
    total = sp.total
    H = sp.action.hopf
    na, nh, nq = sp.dim_A, sp.dim_H, Q.dim
    if qact.alg is not total:
        raise InputError("action does not live on the smash product")
    validate_action(qact).require(InputError, "q-action invalid at")
    inv = invariants(qact)
    if not inv.contains_subspace(sp.subspace_A()):
        raise InputError("A not fixed")

    # q . (1 x| h) read through (id (x) counit) and the 1_A coefficient
    matrix = [[sp.unit_coefficient(sparse_comb(qact.act[q],
                                               sp.h_leg({h: Scalar.one()})))
               for h in range(nh)] for q in range(nq)]
    pairing = HopfPairing(Q, H, matrix)

    rep = Report("pairing extraction")

    # q . (a x| h) against a x| h_1 <q, h_2>, the dual action of the pairing
    dual_act = dual_action(sp, pairing).act
    witness = next(((q, a, h) for q in range(nq) for a in range(na)
                    for h in range(nh)
                    if sparse_ne(qact.act[q][sp.idx(a, h)],
                                 dual_act[q][sp.idx(a, h)])), None)
    if witness is not None:
        raise InputError(
            "reconstruction failed: the action is not implemented through"
            f" the dual (witness {witness})"
        )
    rep.add("reconstruction_identity", True)
    rep.merge(validate_pairing(pairing), prefix="pairing:")
    rep.require(ConsistencyError, "extracted pairing violates")
    return pairing, rep


# -- certificates -------------------------------------------------------------------


@dataclass
class QGalCertificate:
    """Everything canonical_qgal establishes about A in A x| H."""

    smash: SmashProduct
    dual: HopfStarAlgebra
    pairing: HopfPairing
    dual_act: ModuleAlgebraAction
    outer: bool
    outer_witness: Subspace
    report: Report
    morphisms: list = field(default_factory=list)

    @property
    def qgal(self) -> HopfStarAlgebra:
        return self.dual

    def universal_morphism(self, Q: HopfStarAlgebra,
                           qact: ModuleAlgebraAction) -> tuple[Mat, Report]:
        """phi: Q -> H*, phi(q) = <q, ->, certified unique intertwiner.

        phi is a Hopf *-morphism exactly when the extracted pairing passes
        validate_pairing, since H* is paired with H by evaluation: the
        multiplicative, unit, counit, antipode and star laws of the pairing
        are the morphism laws of phi.  extract_pairing has certified them
        (this report carries them as extract:pairing:*), so they are not
        checked again here.
        """
        pairing, pair_rep = extract_pairing(self.smash, Q, qact)
        phi = [list(row) for row in pairing.matrix]
        rep = Report("universal morphism")
        rep.merge(pair_rep, prefix="extract:")
        nq, nh = Q.dim, self.dual.dim

        # phi(x) for a sparse x is the combination of the rows of phi
        rows = [sparse(row) for row in phi]

        # diagram: q . z = phi(q) . z through the dual action
        nt = self.smash.total.dim
        dact = self.dual_act.act
        rep.law("diagram_commutes", (
            (i, t) for i in range(nq) for t in range(nt)
            if sparse_ne(qact.act[i][t],
                         sparse_comb([plane[t] for plane in dact], rows[i]))))

        # uniqueness: homogeneous solve for (psi, t) with
        # dualact(psi(q)) x = t * (q . x); solution space is one line
        def entries():
            for i in range(nq):
                for t in range(nt):
                    for u in range(nh):
                        for coord, val in dact[u][t].items():
                            if val:
                                yield (i, t, coord), i * nh + u, val
                    for coord, val in qact.act[i][t].items():
                        if val:
                            yield (i, t, coord), nq * nh, -val
        sol = kernel_of(entries(), nq * nh + 1)
        rep.add("intertwiner_unique", sol.dim == 1,
                witness={"solution_dim": sol.dim})
        if sol.dim == 1:
            line, zero = sol.vectors[0], Scalar.zero()
            scale = line.get(nq * nh, zero)
            normalized_ok = bool(scale)
            if normalized_ok:
                inv = scale.inverse()
                recovered = [
                    [line.get(i * nh + u, zero) * inv for u in range(nh)]
                    for i in range(nq)
                ]
                normalized_ok = recovered == phi
            rep.add("unique_solution_is_phi", normalized_ok)
        self.morphisms.append((Q, phi))
        return phi, rep


def canonical_qgal(sp: SmashProduct) -> QGalCertificate:
    """The canonical quantum-Galois certificate of A in A x| H.

    Bundles the dual Hopf *-algebra with its validated action on the smash
    fixing exactly A, the pairing validation, the endomorphism
    identification and trace preservation; universal morphisms for supplied
    (Q, qact) pairs come from the certificate's factory method.  Refuses a
    base algebra A that is not a factor, before anything is built.
    """
    _require_factor(sp.action.alg)
    H = sp.action.hopf
    rep = Report("canonical quantum Galois certificate")
    outer, commutant = is_outer(sp)
    dual, iso_rep = commutant_endos_iso(sp, outer, commutant)
    rep.merge(iso_rep, prefix="endos:")

    pairing = canonical_pairing(dual, H)
    rep.merge(validate_pairing(pairing), prefix="pairing:")
    rep.add("pairing_nondegenerate", pairing.is_nondegenerate())

    dact = dual_action(sp, pairing)
    act_rep = validate_action(dact)
    rep.merge(act_rep, prefix="dual_action:")
    inv = invariants(dact)
    rep.add("invariants_are_exactly_A", inv == sp.subspace_A())

    trace_rep = trace_preservation(dact, tau=canonical_smash_trace(sp))
    rep.merge(trace_rep, prefix="trace:")
    rep.require(ConsistencyError, "canonical certificate failed at")
    return QGalCertificate(sp, dual, pairing, dact, outer, commutant, rep)


def _require_factor(A) -> None:
    """Refuse A unless it is a factor, the premise of QGal = H*."""
    if (z := center(A).dim) != 1:
        raise InputError(f"the base algebra is not a factor: its center"
                         f" has dim {z}")


def qgal_fixed_point(sp: SmashProduct) -> tuple[QGalCertificate, Report]:
    """The dual reading: the Galois group of (total)^{H*} inside total.

    Presents total = A x| H, identifies the invariants of the dual action
    with A, forms (A x| H) x| H* and certifies its canonical Galois group,
    whose Hopf *-algebra is (H*)* = H under the double-dual identification.
    A non-factor total is refused before the second level is built.
    """
    _require_factor(sp.total)
    H = sp.action.hopf
    dual = dual_hopf(H)
    pairing = canonical_pairing(dual, H)
    rep = Report("fixed-point reading")
    if not pairing.is_nondegenerate():
        raise InputError("dual pairing degenerate")
    if sp.total.state is None and sp.action.alg.state is not None:
        sp.total.state = canonical_smash_trace(sp)
    dact = dual_action(sp, pairing)
    if not validate_action(dact).ok:
        raise ConsistencyError("dual action failed validation")
    inv = invariants(dact)
    rep.add("invariants_identified_with_A", inv == sp.subspace_A())
    sp2 = smash_product(dact, validate=True)
    cert = canonical_qgal(sp2)
    double = cert.dual
    rep.add("double_dual_is_original", hopf_equal(double, H))
    rep.merge(cert.report, prefix="inner:")
    return cert, rep


# -- trace preservation ---------------------------------------------------------------


def trace_preservation(action: ModuleAlgebraAction,
                       tau: Vec | None = None,
                       bc: BasicConstruction | None = None) -> Report:
    """tau(h . x) = counit(h) tau(x) exactly, on every basis pair.

    With a basic construction supplied, also checks the extension identity
    tau_1(e_N lam(h . x)) = counit(h) tau_1(e_N lam(x)) for the action of H
    on M_1 through h . (e_N x) = e_N (h . x).
    """
    rep = Report("trace preservation")
    H, A = action.hopf, action.alg
    if tau is None:
        tau = A.state if A.state is not None else unique_trace(A)
    rep.law("state_invariant", (
        (h, a) for h in range(H.dim) for a in range(A.dim)
        if dot(action.act[h][a], tau) != H.counit[h] * tau[a]))

    if bc is not None:
        space, e = bc.space, bc.e_N

        # tau_1(e_N lam(x)) for each basis x
        traces = [bc.trace1(op_mul(e, space.lam_basis(a)))
                  for a in range(A.dim)]
        rep.law("basic_construction_trace_extension", (
            (h, a) for h in range(H.dim) for a in range(A.dim)
            if bc.trace1(op_mul(e, space.base.left_mult_op(action.act[h][a])))
            != H.counit[h] * traces[a]))
    return rep

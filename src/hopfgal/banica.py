"""Fixed-point algebras of product coactions and their Galois groups.

Data: a Kac-type Hopf *-algebra H with Haar state tau, a right H-comodule
algebra B, and an H^cop-module algebra A with smash product A x| H^cop.
The product coaction on B (x) (A x| H^cop),

    b (x) a x| h  ->  b_0 (x) a x| h_2 (x) h_1 S(b_1),

has invariants C, a unital *-subalgebra containing A as 1 (x) a x| 1.  The
conditional expectation E(b (x) a x| h) = b_0 (x) a x| h_2 tau(h_1 S(b_1))
projects onto C, and the canonical dual action on B is
Lambda(omega) b = b_0 omega(b_1) for the functionals omega = tau(. S(h)).
Both are hopf.coaction_operator: E = (id (x) tau) rho is the Haar average
of the product coaction rho, and Lambda(omega) = (id (x) omega) beta.

The Galois group of A inside C, relative to a user-supplied finite
dimensional ambient Q acting on B, is the largest Hopf *-subalgebra of Q
whose action operators commute with the image of Lambda; its action lifts
to C through (a, x) -> x_0 (x) a x| x_1 and fixes A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .actions import (
    ModuleAlgebraAction,
    SmashProduct,
    validate_action,
)
from .algebra import (
    StarAlgebra,
    gram_matrix,
    is_bimodular,
    is_unital_star_subalgebra,
    numerically_positive,
    relative_commutant,
    reify,
    tensor_algebra,
    validate_algebra,
)
from .errors import ConsistencyError, InputError
from .hopf import (
    HopfStarAlgebra,
    coaction_operator,
    coassociativity_failures,
    composition_failures,
    convolve,
    counit_failures,
    flip,
    haar,
    hopf_equal,
    is_unital,
    multiplicative_failures,
    star_failures,
    variants,
)
from .jones import orthogonal_projection
from .linalg import (
    Subspace,
    Vec,
    collect,
    commuting_kernel,
    dot,
    fixed_space,
    is_nonsingular,
    kernel_of,
    kron,
    normalized,
    op_from_entries,
    op_mul,
    op_transpose,
    op_vec,
    preimages,
    sparse,
    sparse_add,
    sparse_comb,
    sparse_ne,
    span_of,
    transpose,
)
from .measuring import (
    hopf_subalgebra_report,
    largest_hopf_star_subalgebra,
    reify_hopf_subalgebra,
)
from .report import Report
from .scalars import Scalar


class ComoduleAlgebra:
    """Right H-comodule algebra: coact[i] maps (j, k) to the coefficient
    of e_j (x) e_k^H in beta(e_i)."""

    def __init__(self, hopf: HopfStarAlgebra, alg: StarAlgebra, coact,
                 name: str = ""):
        self.hopf = hopf
        self.alg = alg
        self.coact = coact
        self.name = name
        if len(coact) != alg.dim:
            raise InputError("coaction tensor shape mismatch")


def validate_comodule(B: ComoduleAlgebra) -> Report:
    """Coassociativity, counit law, and multiplicativity of the coaction."""
    rep = Report(f"comodule algebra {B.name}".strip())
    H, A = B.hopf, B.alg
    rep.law("coassociative", coassociativity_failures(B.coact, H.comult))
    rep.law("counital", counit_failures(B.coact, H.counit))
    rep.law("coaction_multiplicative",
            multiplicative_failures(B.coact, A.mult, H.mult))
    rep.add("coaction_unital",
            is_unital(B.coact, sparse(A.unit), sparse(H.unit)))
    return rep


@dataclass
class FixedPointData:
    """The total space B (x) (A x| H^cop) with its coaction machinery."""

    comodule: ComoduleAlgebra
    smash: SmashProduct
    hopf: HopfStarAlgebra            # the original H, Kac
    total: StarAlgebra               # B (x) (A x| H^cop)
    coaction: list                   # rho[i]: dict (t, k) -> Scalar
    haar: Vec
    invariants: Subspace             # C
    expectation: dict                # E, a sparse operator
    report: Report = field(default_factory=lambda: Report("fixed point"))

    @property
    def dim_B(self) -> int:
        return self.comodule.alg.dim

    def idx(self, b: int, t: int) -> int:
        return b * self.smash.total.dim + t

    def a_leg(self, x: dict) -> dict:
        """1 (x) x x| 1 for a sparse x on the A basis."""
        return kron(sparse(self.comodule.alg.unit), self.smash.a_leg(x),
                    self.smash.total.dim)


def product_coaction(B: ComoduleAlgebra,
                     sp: SmashProduct) -> FixedPointData:
    """Assemble the fixed-point data for B and A x| H^cop.

    B must be a comodule algebra over a Kac-type H, and the smash product
    must have been built over H^cop, table for table the variants(H)[1]
    (same multiplication as H, reversed comultiplication, same antipode
    since S is involutive).  These premises, the algebra laws of B and the
    law that the coaction is a *-map are checked before anything is built:
    an input that fails one is refused.
    """
    H = B.hopf
    if not H.is_kac():
        raise InputError("antipode not involutive")
    Hcop = sp.action.hopf
    if not hopf_equal(Hcop, variants(H)[1]):
        raise InputError("the smash product is not over H^cop",
                         culprit=Hcop)
    validate_algebra(B.alg).require(InputError, "comodule algebra invalid at",
                                    culprit=B.alg)
    com_rep = validate_comodule(B)
    com_rep.require(InputError, "comodule invalid at")
    star_b = [sparse(row) for row in B.alg.star]
    star_h = [sparse(row) for row in H.star]
    bad = next(star_failures(B.coact, B.coact, star_b, star_h), None)
    if bad is not None:
        raise InputError(f"the coaction is not a *-map (witness {bad})")

    nb, nh, nt = B.alg.dim, H.dim, sp.total.dim
    na, dim = sp.dim_A, nb * nt
    total = tensor_algebra(B.alg, sp.total,
                           name=f"{B.alg.name}(x){sp.total.name}")

    # rho(b (x) a x| h) = b0 (x) a x| h2 (x) h1 S(b1)
    antipode = [sparse(row) for row in H.antipode]

    def coaction(b, a, h):
        return collect(((b0 * nt + (a * nh + h2), m), v * w * sv * mv)
                       for (b0, b1), v in B.coact[b].items()
                       for (h1, h2), w in H.comult[h].items()
                       for k, sv in antipode[b1].items()
                       for m, mv in H.mult[h1][k].items())
    rho = [coaction(b, a, h)
           for b in range(nb) for a in range(na) for h in range(nh)]

    rep = Report("product coaction")
    rep.merge(com_rep, prefix="comodule:")
    rep.law("coassociative_for_cop",
            coassociativity_failures(rho, Hcop.comult))
    rep.law("counital", counit_failures(rho, H.counit))

    tau, one = haar(H), Scalar.one()
    # C = {z : rho(z) = z (x) 1_H}: each (id (x) e^k) rho fixes z up to
    # the coefficient of e_k in 1_H
    inv = fixed_space([coaction_operator(rho, {k: one}) for k in range(nh)],
                      H.unit, dim)
    table = _tau_s_table(H, tau)
    E = coaction_operator(rho, sparse(tau))
    data = FixedPointData(B, sp, H, total, rho, tau, inv, E, rep)

    rep.add("invariants_subalgebra", is_unital_star_subalgebra(inv, total))
    rep.add("A_embeds_in_invariants",
            all(inv.contains(data.a_leg({a: one})) for a in range(na)))
    img = span_of(op_transpose(E).values(), dim)  # the columns of E
    rep.add("expectation_image_is_invariants", img == inv)
    rep.add("expectation_idempotent", op_mul(E, E) == E)
    rep.add("expectation_bimodular", is_bimodular(total, E, inv.vectors))
    rep.add("haar_swap_identity", _swap_identity(H, table))
    membership = all(
        inv.contains(_beta_13(data, b)) for b in range(nb)
    )
    rep.add("coaction_legs_13_invariant", membership)
    rep.require(ConsistencyError, "fixed-point data failed at")
    return data


def _tau_s_table(H: HopfStarAlgebra, tau: Vec) -> list[Vec]:
    """T[h][x] = tau(e_x S(e_h)): the functionals omega_h = T[h] of the
    Lambda action and both sides of the swap identity read this one
    table."""
    return [[dot(sparse_comb(line, sh), tau) for line in H.mult]
            for sh in map(sparse, H.antipode)]


def _swap_identity(H: HopfStarAlgebra, table: list[Vec]) -> bool:
    """x_1 tau(y S(x_2)) = tau(y_1 S(x)) y_2 for all basis x, y: column x
    of (id (x) tau(y S(.))) Delta against column y of (id (x) tau(. S(x)))
    Delta^cop."""
    nh, flipped = H.dim, flip(H.comult)
    left = [op_transpose(coaction_operator(H.comult, sparse(col)))
            for col in transpose(table)]
    right = [op_transpose(coaction_operator(flipped, sparse(row)))
             for row in table]
    return all(left[y].get(x, {}) == right[x].get(y, {})
               for x in range(nh) for y in range(nh))


def _beta_13(data: FixedPointData, b: int) -> dict:
    """beta(b) with legs 1 and 3: b0 (x) 1 x| b1."""
    out: dict = {}
    for (b0, b1), v in data.comodule.coact[b].items():
        sparse_add(out, _b_leg(data, b0, data.smash.h_leg({b1: v})))
    return out


# -- the canonical dual action on B ------------------------------------------------


def lambda_action(B: ComoduleAlgebra,
                  tau: Vec | None = None) -> tuple[list, Report]:
    """Lambda(omega) b = b_0 omega(b_1) for omega = tau(. S(h)).

    Returns the sparse operators indexed by the H basis and a report
    certifying the convolution-to-composition law and that the counit
    functional acts as the identity.
    """
    H = B.hopf
    if tau is None:
        tau = haar(H)
    omega = [sparse(row) for row in _tau_s_table(H, tau)]
    ops = [coaction_operator(B.coact, w) for w in omega]
    rep = Report("canonical dual action on B")
    rep.law("convolution_matches_composition",
            composition_failures(B.coact, H.comult, omega),
            note="Lambda(omega * omega') = Lambda(omega) Lambda(omega')")
    rep.law("counit_acts_as_identity", counit_failures(B.coact, H.counit))
    return ops, rep


# -- T_q extraction ------------------------------------------------------------------


def t_q_extraction(data: FixedPointData, Q: HopfStarAlgebra,
                   qact: ModuleAlgebraAction) -> tuple[list, Report]:
    """For each basis q: q_hat(b (x) h) = q . E(b (x) 1 x| h) decomposes as
    T_q(b (x) h_1) (x) 1 x| h_2 with T_q unique.

    qact acts on the reified invariants algebra; its carrier must be the
    reification reify(data.total, data.invariants) of C.  The membership
    V^{-1}(h_2) q_hat(b (x) h_1) in B (x) (A' cap A x| H^cop) is certified
    on the way.
    """
    C = data.invariants
    total = data.total
    sp = data.smash
    H = data.hopf
    nb, nh, nt = data.dim_B, H.dim, sp.total.dim
    if qact.alg.dim != C.dim:
        raise InputError("q-action does not live on the invariants algebra")
    validate_action(qact).require(InputError, "q-action invalid at")

    rep = Report("T_q extraction")
    commutant = relative_commutant(sp.subspace_A(), sp.total)
    b_tensor_comm = span_of(
        (_b_leg(data, b, w) for b in range(nb)
         for w in commutant.vectors), total.dim)
    c_basis = C.vectors
    one = Scalar.one()

    def bh_leg(b: int, h: int) -> dict:
        """b (x) 1 x| h."""
        return _b_leg(data, b, sp.h_leg({h: one}))

    def q_hat(qi: int, b: int, h: int) -> dict:
        z = op_vec(data.expectation, bh_leg(b, h))
        coords = sparse(C.coordinates(z))
        return sparse_comb(c_basis, sparse_comb(qact.act[qi], coords))
    q_hats = [[[q_hat(qi, b, h) for h in range(nh)] for b in range(nb)]
              for qi in range(Q.dim)]

    # V^{-1}(h_2) q_hat(b (x) h_1) is m (V^{-1} (x) q_hat) of the flipped
    # Delta(e_h)
    unit_b = _unit_b_index(data)
    vinv = [_b_leg(data, unit_b, sp.h_leg(sparse(row))) for row in H.antipode]
    flipped = flip(H.comult)
    rep.law("commutant_membership", (
        (qi, b, h) for qi in range(Q.dim) for b in range(nb) for h in range(nh)
        if not b_tensor_comm.contains(
            convolve(total.mult, flipped[h], vinv, q_hats[qi][b]))),
        note="V^{-1}(h_2) q_hat(b (x) h_1) lands in"
             " B (x) (A' cap A x| H^cop)")

    # T_q read off through the counit and the unit-of-A coefficient
    t_mats = []
    for qi in range(Q.dim):
        T = [[Scalar.zero()] * (nb * nh) for _ in range(nb)]
        for b in range(nb):
            for h in range(nh):
                img = q_hats[qi][b][h]
                for o in range(nb):
                    T[o][b * nh + h] = sp.unit_coefficient(
                        {t - o * nt: x for t, x in img.items()
                         if t // nt == o})
        t_mats.append(T)
        # verify the decomposition exactly
        for b in range(nb):
            for h in range(nh):
                expected: dict = {}
                for (h1, h2), v in H.comult[h].items():
                    for o in range(nb):
                        if T[o][b * nh + h1]:
                            sparse_add(expected, bh_leg(o, h2),
                                       v * T[o][b * nh + h1])
                if sparse_ne(expected, q_hats[qi][b][h]):
                    raise InputError(
                        f"decomposition failed (witness {(qi, b, h)})")
    rep.add("decomposition", True)
    return t_mats, rep


def _b_leg(data: FixedPointData, b: int, w: dict) -> dict:
    """b (x) w for a sparse w in smash coordinates."""
    return {data.idx(b, t): x for t, x in w.items()}


def _unit_b_index(data: FixedPointData) -> int:
    unit = data.comodule.alg.unit
    for i, u in enumerate(unit):
        if u:
            if u != Scalar.one():
                raise InputError("B unit is not a basis vector")
            return i
    raise InputError("B has no unit")


# -- the Galois group relative to an ambient --------------------------------------


@dataclass
class BanicaGaloisResult:
    subspace: Subspace               # inside Q_ambient
    hopf: HopfStarAlgebra            # reified
    lifted_action: ModuleAlgebraAction   # on the reified invariants algebra
    invariants_algebra: StarAlgebra
    invariants_inclusion: list[dict]
    state: Vec                       # the Lambda-invariant faithful state
    report: Report


def qgal_banica(data: FixedPointData, Q_ambient: HopfStarAlgebra,
                q_on_B: ModuleAlgebraAction) -> BanicaGaloisResult:
    """The largest Hopf *-subalgebra of Q_ambient commuting with Lambda.

    Requires a validated module *-algebra action of Q_ambient on B that
    preserves some Lambda-invariant faithful state (existence is checked by
    exact solve, positivity at the float embedding).  The result is lifted
    to an action on the invariants algebra C through
    q . (x_0 (x) a x| x_1) = (q . x)_0 (x) a x| (q . x)_1, certified to be
    a module *-algebra action fixing A pointwise.
    """
    B = data.comodule
    rep = Report("banica galois group")
    if q_on_B.hopf is not Q_ambient:
        raise InputError("Q_ambient action invalid: acts by another Hopf"
                         " algebra")
    if q_on_B.alg is not B.alg:
        raise InputError("Q_ambient action invalid: wrong carrier")
    validate_action(q_on_B).require(InputError,
                                    "Q_ambient action invalid at")

    lam_ops, lam_rep = lambda_action(B, data.haar)
    rep.merge(lam_rep, prefix="lambda:")

    phi = _lambda_invariant_state(data, lam_ops)
    rep.add("lambda_invariant_faithful_state_found", True,
            note="exact invariance and nondegeneracy; positivity is the"
                 " usual float verdict")

    # q-operators commuting with the Lambda image
    ops = q_on_B.operators()

    commuting = commuting_kernel(ops, lam_ops)
    rep.add("commuting_subspace_dim", True,
            witness={"dim": commuting.dim})

    result = largest_hopf_star_subalgebra(Q_ambient, commuting)
    rep.merge(hopf_subalgebra_report(Q_ambient, result), prefix="hopf:")

    # the operator on B of each basis vector of the result
    result_ops = [op_from_entries((t, s, c * x) for i, c in qvec.items()
                                  for t, row in ops[i].items()
                                  for s, x in row.items())
                  for qvec in result.vectors]

    # range-projection re-verification w.r.t. the phi inner product
    proj_ok = _range_projection_check(B, phi, lam_ops, result_ops)
    rep.add("commutes_with_range_projections", proj_ok)

    hopf = reify_hopf_subalgebra(Q_ambient, result, name="HC")
    lifted, c_alg, inclusion, lift_rep = _lift_to_invariants(
        data, result_ops, hopf
    )
    rep.merge(lift_rep, prefix="lift:")
    rep.require(ConsistencyError, "banica certificate failed at")
    return BanicaGaloisResult(result, hopf, lifted, c_alg, inclusion, phi,
                              rep)


def _lambda_invariant_state(data: FixedPointData, lam_ops: list) -> Vec:
    """phi with phi(Lambda_h b) = tau(S(h)) phi(b), faithful, normalized."""
    B = data.comodule
    nb = B.alg.dim
    # phi . Lambda_h = tau(S(h)) phi: phi is fixed by the transposes
    space = fixed_space([op_transpose(L) for L in lam_ops],
                        [dot(sparse(row), data.haar)
                         for row in data.hopf.antipode], nb)
    # Echelon basis vectors can have degenerate Grams one by one (orbit
    # indicators, say) while a combination is faithful; sweep the basis,
    # the plain sum, then geometric-weight sums.
    rows = space.vectors
    candidates = list(rows)
    if space.dim > 1:
        candidates += [sparse_comb(rows, {i: Scalar.from_int(w ** i)
                                          for i in range(len(rows))})
                       for w in (1, 2, 3, 5)]
    for t in candidates:
        phi = normalized(t, B.alg.unit, nb)
        if phi is None:
            continue
        G = gram_matrix(B.alg, phi)
        if is_nonsingular(G.values(), nb) and numerically_positive(G, nb):
            return phi
    raise InputError("no Lambda-invariant faithful state")


def _range_projection_check(B, phi, lam_ops, result_ops) -> bool:
    """Operators of the result commute with the phi-orthogonal range
    projections of every Lambda operator."""
    G = gram_matrix(B.alg, phi)
    for L in lam_ops:
        image = span_of(op_transpose(L).values(), B.alg.dim)
        P = orthogonal_projection(G, image)
        for op in result_ops:
            if op_mul(op, P) != op_mul(P, op):
                return False
    return True


def _lift_to_invariants(data: FixedPointData, result_ops: list,
                        hopf: HopfStarAlgebra):
    """Lift q . Phi(a (x) x) = Phi(a (x) q . x) to the reified C."""
    B = data.comodule
    sp = data.smash
    total = data.total
    na, nb = sp.dim_A, B.alg.dim
    rep = Report("lift to invariants")

    # Phi: A (x) B -> total, a (x) x -> x0 (x) a x| x1, kept as its sparse
    # columns at a nb + x
    phi_cols = [{data.idx(b0, sp.idx(a, b1)): v
                 for (b0, b1), v in B.coact[x].items() if v}
                for a in range(na) for x in range(nb)]
    image = span_of(phi_cols, total.dim)
    rep.add("phi_image_is_invariants", image == data.invariants)

    # kernel preservation: (id (x) op(q))(ker Phi) inside ker Phi
    kernel = kernel_of(((i, j, x) for j, col in enumerate(phi_cols)
                        for i, x in col.items()), na * nb)
    rep.add("kernel_preserved", all(
        kernel.contains(_id_tensor_op(kv, op, nb))
        for op in result_ops for kv in kernel.vectors))

    c_alg, inclusion = reify(total, data.invariants, name="C")
    C = data.invariants

    # action tensor of the reified result Hopf on the reified C; one
    # elimination of the columns of Phi gives the preimage of every basis
    # vector of C
    sources = preimages(phi_cols, C.vectors)
    if sources is None:
        raise ConsistencyError("invariants vector outside Phi image")
    act = []
    for op in result_ops:
        plane = []
        for x in sources:
            image_vec = sparse_comb(phi_cols, _id_tensor_op(x, op, nb))
            plane.append(sparse(C.coordinates(image_vec)))
        act.append(plane)
    lifted = ModuleAlgebraAction(hopf, c_alg, act, name="lifted to C")
    lift_val = validate_action(lifted)
    rep.merge(lift_val, prefix="action:")

    # A is fixed pointwise
    one = Scalar.one()
    a_coords = [sparse(C.coordinates(data.a_leg({a: one})))
                for a in range(na)]
    rep.add("fixes_A_pointwise", not any(
        sparse_ne(sparse_comb(lifted.act[qi], x),
                  {k: eps * c for k, c in x.items()})
        for qi, eps in enumerate(hopf.counit) for x in a_coords))
    return lifted, c_alg, inclusion, rep


def _id_tensor_op(v: dict, op: dict, nb: int) -> dict:
    """(id_A (x) op) v for a sparse v in A (x) B coordinates a nb + x."""
    segments: dict = {}
    for k, c in v.items():
        a, x = divmod(k, nb)
        segments.setdefault(a, {})[x] = c
    return {a * nb + x: c for a, seg in segments.items()
            for x, c in op_vec(op, seg).items()}

"""Module *-algebra actions, smash products and their calculus.

The smash product A x| H lives on A (x) H with (a x| h)(b x| g) =
a (h_1 . b) x| h_2 g.  Its involution is (a x| h)* = (1 x| h*)(a* x| 1),
expanded through the smash multiplication; this is the unique choice making
both canonical embeddings *-morphisms, and the validator certifies it
rather than assuming it.

validate_action reads the sparse action tensor act[h][a] and the sparse
mult tensors directly: each side of each axiom is a sparse dict (see the
sparse helpers in linalg), and no basis element is built as a dense unit
vector.  The package reads act the same way everywhere, and the sparse legs
a x| 1 and 1 x| h of SmashProduct build the smash involution, the
innerification check and the operators of galois and banica;
ModuleAlgebraAction.apply is sparse_apply on the same tensor, for sparse
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    StarAlgebra,
    is_unital_star_subalgebra,
    relative_commutant,
    state_flags,
    validate_algebra,
)
from .errors import InputError
from .hopf import (
    HopfPairing,
    HopfStarAlgebra,
    coaction_operator,
    convolution_inverse_failures,
    convolve,
    haar,
)
from .linalg import (
    Subspace,
    Vec,
    collect,
    dense_row,
    fixed_space,
    kron,
    nonzero,
    op_flat,
    op_from_entries,
    op_transpose,
    sparse,
    sparse_apply,
    sparse_comb,
    sparse_conj,
    sparse_ne,
    span_of,
)
from .report import Report
from .scalars import Scalar


class ModuleAlgebraAction:
    """Action tensor of a Hopf *-algebra on a *-algebra.

    act[h][a] maps a target index b to the coefficient of e_b in e_h . e_a.
    """

    def __init__(self, hopf: HopfStarAlgebra, alg: StarAlgebra, act,
                 name: str = ""):
        self.hopf = hopf
        self.alg = alg
        self.act = act
        self.name = name
        if len(act) != hopf.dim or any(len(p) != alg.dim for p in act):
            raise InputError("action tensor shape mismatch")

    def apply(self, h: dict, a: dict) -> dict:
        """h . a for sparse h and a; a zero entry is skipped."""
        return sparse_apply(self.act, nonzero(h), nonzero(a))

    def operators(self) -> list[dict]:
        """e_h -> its sparse operator on A: entry (k, j) of operator h is
        the coefficient of e_k in e_h . e_j."""
        return [op_from_entries((k, j, v) for j, cell in enumerate(plane)
                                for k, v in cell.items())
                for plane in self.act]

    def to_hom_map(self) -> list[dict]:
        """H -> Hom(A, A), e_h -> its action operator, as sparse rows.

        Row h is the operator of e_h flattened row-major (op_flat), so it
        is the carrier psi(e_h) of the measuring machinery.
        """
        return [op_flat(T, self.alg.dim) for T in self.operators()]


def validate_action(action: ModuleAlgebraAction) -> Report:
    """Module, measuring, unit and star compatibility axioms, exactly.

    h . e_a is act[h][a] and products come from the mult tensors, so every
    side of every identity is a sparse dict.
    """
    rep = Report(f"action {action.name}".strip())
    H, A = action.hopf, action.alg
    hs, as_ = range(H.dim), range(A.dim)
    act = action.act
    # cols[a][h] = e_h . e_a
    cols = [[plane[a] for plane in act] for a in as_]

    rep.law("module_axiom", (
        (g, h, a) for g in hs for h in hs for a in as_
        if sparse_ne(sparse_comb(cols[a], H.mult[g][h]),
                     sparse_comb(act[g], act[h][a]))))
    h_unit = sparse(H.unit)
    rep.law("unit_acts_trivially", (
        a for a in as_
        if sparse_ne(sparse_comb(cols[a], h_unit), {a: Scalar.one()})))
    rep.law("measuring", (
        (h, a, b) for h in hs for a in as_ for b in as_
        if sparse_ne(sparse_comb(act[h], A.mult[a][b]),
                     convolve(A.mult, H.comult[h], cols[a], cols[b]))))
    a_unit = sparse(A.unit)
    rep.law("unit_preserved", (
        h for h in hs
        if sparse_ne(sparse_comb(act[h], a_unit),
                     {k: H.counit[h] * v for k, v in a_unit.items()})))
    a_star = [sparse(row) for row in A.star]
    sh_star = [H.coalgebra.star_row(h) for h in hs]  # S(e_h)^*
    rep.law("star_compatibility", (
        (h, a) for h in hs for a in as_
        if sparse_ne(sparse_comb(a_star, sparse_conj(act[h][a])),
                     sparse_apply(act, sh_star[h], a_star[a]))))
    return rep


def invariants(action: ModuleAlgebraAction) -> Subspace:
    """The invariant subalgebra {a : h . a = counit(h) a for all h}."""
    sub = fixed_space(action.operators(), action.hopf.counit, action.alg.dim)
    if not is_unital_star_subalgebra(sub, action.alg):
        raise InputError("invariants failed to close; action is not valid")
    return sub


@dataclass
class SmashProduct:
    """A x| H with its embeddings and the source action."""

    total: StarAlgebra
    action: ModuleAlgebraAction

    @property
    def dim_A(self) -> int:
        return self.action.alg.dim

    @property
    def dim_H(self) -> int:
        return self.action.hopf.dim

    def idx(self, a: int, h: int) -> int:
        return a * self.dim_H + h

    def a_leg(self, x: dict) -> dict:
        """x x| 1 for a sparse x on the A basis, as a sparse vector."""
        return kron(x, sparse(self.action.hopf.unit), self.dim_H)

    def h_leg(self, x: dict) -> dict:
        """1 x| x for a sparse x on the H basis, as a sparse vector."""
        return kron(sparse(self.action.alg.unit), x, self.dim_H)

    def unit_coefficient(self, z: dict) -> Scalar:
        """c with (id (x) counit)(z) = c 1_A, for a sparse z.

        Raises InputError when the A leg of z is not a scalar multiple of
        the unit.
        """
        nh, eps = self.dim_H, self.action.hopf.counit
        leg = collect((t // nh, x * eps[t % nh]) for t, x in z.items()
                      if eps[t % nh])
        unit = sparse(self.action.alg.unit)
        lead = next(iter(unit))
        c = leg.get(lead, Scalar.zero()) * unit[lead].inverse()
        if sparse_ne(leg, {a: c * u for a, u in unit.items()}):
            raise InputError("the A leg is not scalar")
        return c

    def coaction(self) -> list[dict]:
        """The right coaction a x| h -> (a x| h_1) (x) h_2, stored like
        Delta; built on each call, since the tables can change."""
        comult = self.action.hopf.comult
        return [{(self.idx(a, h1), h2): v for (h1, h2), v in comult[h].items()}
                for a in range(self.dim_A) for h in range(self.dim_H)]

    def subspace_A(self) -> Subspace:
        one = Scalar.one()
        return span_of((self.a_leg({a: one}) for a in range(self.dim_A)),
                       self.total.dim)


def smash_product(action: ModuleAlgebraAction, validate: bool = True,
                  name: str = "") -> SmashProduct:
    """Build A x| H; optionally re-run the full algebra validator on it."""
    H, A = action.hopf, action.alg
    na, nh = A.dim, H.dim
    dim = na * nh

    def cell(a, h, b, g):
        # (e_a x| e_h)(e_b x| e_g) = e_a (h_1 . e_b) x| h_2 e_g
        return collect((d * nh + e, v * w * x * y)
                       for (h1, h2), v in H.comult[h].items()
                       for c, w in action.act[h1][b].items()
                       for d, x in A.mult[a][c].items()
                       for e, y in H.mult[h2][g].items())
    mult = [[cell(a, h, b, g) for b in range(na) for g in range(nh)]
            for a in range(na) for h in range(nh)]

    unit = dense_row(kron(sparse(A.unit), sparse(H.unit), nh), dim)

    # (e_a x| e_h)* = (1 x| e_h*)(e_a* x| 1), via the multiplication above;
    # the legs read only the action
    sp = SmashProduct(None, action)
    h_stars = [sp.h_leg(sparse(row)) for row in H.star]
    star = [dense_row(sparse_apply(mult, h_star, sp.a_leg(sparse(row))), dim)
            for row in A.star for h_star in h_stars]
    sp.total = total = StarAlgebra(dim, mult, unit, star,
                                   name=name or f"{A.name}x|{H.name}")
    if validate:
        rep = validate_algebra(total)
        if not rep.ok:
            fail = rep.first_failure()
            raise InputError(
                f"smash product fails validation at {fail.name}"
                f" (witness {fail.witness}); the input action is not a"
                " module *-algebra action"
            )
    return sp


# -- the V-map calculus -------------------------------------------------------


def innerify_check(sp: SmashProduct) -> Report:
    """V(h) = 1 x| h has convolution inverse V(S h) and innerifies the action.

    Checks V * V^{-1} = unit . counit = V^{-1} * V and, for every basis pair,
    h . x x| 1 = V(h_1)(x x| 1)V^{-1}(h_2).
    """
    rep = Report("innerification")
    H = sp.action.hopf
    total = sp.total
    nh, na = H.dim, sp.dim_A

    one = Scalar.one()
    V = [sp.h_leg({h: one}) for h in range(nh)]
    Vinv = [sp.h_leg(sparse(row)) for row in H.antipode]
    rep.law("convolution_inverse", convolution_inverse_failures(
        H.comult, H.counit, total.mult, sparse(total.unit), V, Vinv))

    # (x x| 1) V^{-1}(g) for each basis x of A and g of H
    x_vinv = [[sparse_apply(total.mult, sp.a_leg({a: one}), w) for w in Vinv]
              for a in range(na)]
    rep.law("innerification_identity", (
        (h, a) for h, plane in enumerate(H.comult) for a in range(na)
        if sparse_ne(sp.a_leg(sp.action.act[h][a]),
                     convolve(total.mult, plane, V, x_vinv[a]))))
    return rep


def dual_action(sp: SmashProduct, pairing: HopfPairing) -> ModuleAlgebraAction:
    """Action of the dual on the smash: u . (x x| h) = x x| h_1 <u, h_2>,
    the operator of the coaction at the functional <u, .>."""
    if pairing.H is not sp.action.hopf and pairing.H.dim != sp.dim_H:
        raise InputError("pairing does not match the smash product")
    total, coact = sp.total, sp.coaction()
    act = []
    for row in pairing.matrix:
        cols = op_transpose(coaction_operator(coact, sparse(row)))
        act.append([cols.get(t, {}) for t in range(total.dim)])
    return ModuleAlgebraAction(pairing.Q, total, act,
                               name=f"dual action on {total.name}")


def canonical_smash_trace(sp: SmashProduct) -> Vec:
    """The canonical trace tau_A (x) haar on A x| H, certified tracial.

    Requires a tracial state on A; traciality of the product functional is
    re-checked exactly on the smash rather than assumed.
    """
    A, H = sp.action.alg, sp.action.hopf
    if A.state is None:
        raise InputError("canonical trace needs a state on A")
    tau = dense_row(kron(sparse(A.state), sparse(haar(H)), sp.dim_H),
                    sp.total.dim)
    if not all(state_flags(sp.total, tau)):
        raise InputError("product functional is not a trace on the smash")
    return tau


def is_outer(sp: SmashProduct) -> tuple[bool, Subspace]:
    """Outer iff the commutant of A inside A x| H is the scalars."""
    comm = relative_commutant(sp.subspace_A(), sp.total)
    outer = comm.dim == 1 and comm.contains(sp.total.unit)
    return outer, comm


def is_minimal(action: ModuleAlgebraAction) -> tuple[bool, Subspace]:
    """Minimal iff the commutant of A^H inside A is the scalars."""
    inv = invariants(action)
    comm = relative_commutant(inv, action.alg)
    minimal = comm.dim == 1 and comm.contains(action.alg.unit)
    return minimal, comm

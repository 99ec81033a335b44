"""Example inputs for the tests and fixtures/: small groups, matrix
algebras, model actions.

Everything here is rebuilt from scratch on each call so tests can mutate
tensors freely when constructing perturbation fixtures.
"""

from __future__ import annotations

from fractions import Fraction

from hopfgal.actions import ModuleAlgebraAction
from hopfgal.algebra import StarAlgebra
from hopfgal.hopf import HopfStarAlgebra, function_algebra, group_algebra
from hopfgal.linalg import (
    dense_row,
    nonzero,
    sparse,
    sparse_add,
    sparse_apply,
    sparse_comb,
    unit_vec,
    vzero,
)
from hopfgal.scalars import Scalar


# -- group tables (element 0 is the identity) -------------------------------

Z2_TABLE = [[0, 1], [1, 0]]

Z3_TABLE = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

K4_TABLE = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]

# S3 as permutations of {0,1,2}: e, (01), (02), (12), (012), (021).
_S3_PERMS = [
    (0, 1, 2),
    (1, 0, 2),
    (2, 1, 0),
    (0, 2, 1),
    (1, 2, 0),
    (2, 0, 1),
]


def _s3_compose(p, q):
    # (p q)(x) = p(q(x))
    return tuple(p[q[x]] for x in range(3))


S3_TABLE = [
    [_S3_PERMS.index(_s3_compose(_S3_PERMS[i], _S3_PERMS[j]))
     for j in range(6)]
    for i in range(6)
]

S3_TRANSPOSITION = 1  # the element (01) in the table above


def cz2() -> HopfStarAlgebra:
    return group_algebra(Z2_TABLE, name="CZ2")


def ck4() -> HopfStarAlgebra:
    return group_algebra(K4_TABLE, name="CK4")


def cs3() -> HopfStarAlgebra:
    return group_algebra(S3_TABLE, name="CS3")


def c_of_z2() -> HopfStarAlgebra:
    return function_algebra(Z2_TABLE, name="C(Z2)")


def c_of_k4() -> HopfStarAlgebra:
    return function_algebra(K4_TABLE, name="C(K4)")


def c_of_s3() -> HopfStarAlgebra:
    return function_algebra(S3_TABLE, name="C(S3)")


# -- matrix algebras ----------------------------------------------------------


def mat_algebra(n: int, name: str = "") -> StarAlgebra:
    """Mat_n with matrix-unit basis E_{ab} at index a*n + b.

    The involution is the conjugate transpose and the state the normalized
    trace.
    """
    dim = n * n
    one = Scalar.one()
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if b == c:
                        mult[a * n + b][c * n + d][a * n + d] = one
    unit = vzero(dim)
    for a in range(n):
        unit[a * n + a] = one
    star = [unit_vec(dim, (i % n) * n + (i // n)) for i in range(dim)]
    state = vzero(dim)
    for a in range(n):
        state[a * n + a] = Scalar.rational(1, n)
    return StarAlgebra(dim, mult, unit, star, state,
                       name=name or f"Mat{n}")


def subalgebra_embedding_left(A: StarAlgebra, B: StarAlgebra):
    """Basis of A (x) 1 inside tensor_algebra(A, B)."""
    db = B.dim
    out = []
    for i in range(A.dim):
        v = vzero(A.dim * db)
        for j, ub in enumerate(B.unit):
            if ub:
                v[i * db + j] = ub
        out.append(v)
    return out


# -- model actions -------------------------------------------------------------


def _conjugation_action(H: HopfStarAlgebra, A: StarAlgebra,
                        units: list) -> ModuleAlgebraAction:
    """Group action by conjugation x -> u x u* for unitaries indexed by G,
    given as sparse vectors."""
    one = Scalar.one()
    act = []
    for u in units:
        ustar = A.star_vec(u)
        plane = []
        for a in range(A.dim):
            img = A.mul_vec(u, A.mul_vec({a: one}, ustar))
            plane.append({k: img[k] for k in sorted(img) if img[k]})
        act.append(plane)
    return ModuleAlgebraAction(H, A, act)


def pauli_action() -> ModuleAlgebraAction:
    """CK4 acting on Mat2 by conjugation with 1, X, Z, XZ."""
    A = mat_algebra(2, name="Mat2")
    H = ck4()
    one = Scalar.one()
    m = Scalar.from_int(-1)

    def mat(entries):
        return {a * 2 + b: c for (a, b), c in sorted(entries.items())}

    eye = mat({(0, 0): one, (1, 1): one})
    x = mat({(0, 1): one, (1, 0): one})
    z = mat({(0, 0): one, (1, 1): m})
    xz = A.mul_vec(x, z)
    return _conjugation_action(H, A, [eye, x, z, xz])


def ad_z_action() -> ModuleAlgebraAction:
    """CZ2 acting on Mat2 by conjugation with Z."""
    A = mat_algebra(2, name="Mat2")
    H = cz2()
    one = Scalar.one()
    eye = {0: one, 3: one}
    z = {0: one, 3: Scalar.from_int(-1)}
    return _conjugation_action(H, A, [eye, z])


def translation_action(table, name: str = "") -> ModuleAlgebraAction:
    """CG acting on C(G) by translation: g . delta_h = delta_{g h}.

    The function algebra carries its uniform (Haar) state.
    """
    H = group_algebra(table, name=name or "CG")
    F = function_algebra(table, name=name or "C(G)")
    n = len(table)
    one = Scalar.one()
    act = [
        [{table[g][h]: one} for h in range(n)]
        for g in range(n)
    ]
    carrier = StarAlgebra(F.dim, F.mult, F.unit, F.star,
                          state=[Scalar.rational(1, n)] * n,
                          name=F.name)
    return ModuleAlgebraAction(H, carrier, act)


def grading_action_mat2() -> ModuleAlgebraAction:
    """C(Z2) acting on Mat2 through the diagonal/off-diagonal Z2-grading.

    delta_s . x picks the degree-s component; this is the function-algebra
    counterpart of the Ad(Z) action.
    """
    A = mat_algebra(2, name="Mat2")
    H = c_of_z2()
    one = Scalar.one()
    # degrees on the matrix-unit basis E00,E01,E10,E11 -> 0,1,1,0
    deg = [0, 1, 1, 0]
    act = []
    for s in range(2):
        plane = []
        for a in range(4):
            plane.append({a: one} if deg[a] == s else {})
        act.append(plane)
    return ModuleAlgebraAction(H, A, act)


def trivial_action(H: HopfStarAlgebra, A: StarAlgebra) -> ModuleAlgebraAction:
    """h . a = counit(h) a."""
    act = []
    for h in range(H.dim):
        e = H.counit[h]
        plane = []
        for a in range(A.dim):
            plane.append({a: e} if e else {})
        act.append(plane)
    return ModuleAlgebraAction(H, A, act)


def sweedler4() -> HopfStarAlgebra:
    """Sweedler's 4-dimensional Hopf *-algebra over Q(i).

    Basis 1, g, x, gx with g^2 = 1, x^2 = 0, x g = -g x; Delta x =
    x (x) 1 + g (x) x, S(x) = -g x (so S^2 = Ad(g) is not the identity),
    and the involution g* = g, x* = i x.  The one fixture in the library
    with a non-involutive antipode and complex star entries.
    """
    one = Scalar.one(4)
    m1 = Scalar.from_int(-1, 4)
    i = Scalar.root_of_unity(4)
    mult = [[{} for _ in range(4)] for _ in range(4)]
    # indices: 0 = 1, 1 = g, 2 = x, 3 = gx
    table = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
        (0, 3): {3: one},
        (1, 0): {1: one}, (1, 1): {0: one}, (1, 2): {3: one},
        (1, 3): {2: one},
        (2, 0): {2: one}, (2, 1): {3: m1}, (2, 2): {}, (2, 3): {},
        (3, 0): {3: one}, (3, 1): {2: m1}, (3, 2): {}, (3, 3): {},
    }
    for (a, b), cell in table.items():
        mult[a][b] = dict(cell)
    unit = unit_vec(4, 0, 4)
    star = [unit_vec(4, 0, 4), unit_vec(4, 1, 4), vzero(4, 4), vzero(4, 4)]
    star[2][2] = i
    star[3][3] = m1 * i
    comult = [
        {(0, 0): one},
        {(1, 1): one},
        {(2, 0): one, (1, 2): one},
        {(3, 1): one, (0, 3): one},
    ]
    counit = [one, one, Scalar.zero(4), Scalar.zero(4)]
    antipode = [unit_vec(4, 0, 4), unit_vec(4, 1, 4), vzero(4, 4),
                unit_vec(4, 2, 4)]
    antipode[2][3] = m1
    alg = StarAlgebra(4, mult, unit, star, name="Sweedler4")
    return HopfStarAlgebra(alg, comult, counit, antipode, name="Sweedler4")


def dual_number_action() -> ModuleAlgebraAction:
    """Sweedler's algebra acting on the dual numbers C[y]/(y^2).

    g flips the sign of y, x differentiates (x . y = 1); the involution on
    the dual numbers is y* = -i y, the unique choice compatible with the
    Hopf star structure.
    """
    one = Scalar.one(4)
    m1 = Scalar.from_int(-1, 4)
    i = Scalar.root_of_unity(4)
    mult = [[{0: one}, {1: one}], [{1: one}, {}]]
    unit = unit_vec(2, 0, 4)
    star = [unit_vec(2, 0, 4), vzero(2, 4)]
    star[1][1] = m1 * i
    A = StarAlgebra(2, mult, unit, star, name="C[y]/(y^2)")
    H = sweedler4()
    act = [
        [{0: one}, {1: one}],     # 1
        [{0: one}, {1: m1}],      # g
        [{}, {0: one}],           # x
        [{}, {0: one}],           # gx: gx . y = g . 1 = 1
    ]
    return ModuleAlgebraAction(H, A, act)


# -- the Kac-Paljutkin algebra --------------------------------------------------

# z^2 = (1 + x + y - xy) / 2 as (index, sign), with 1, y, x and xy at
# indices 0, 2, 4 and 6; z^-1 = z z^2
_KP_Z_SQUARED = [(0, 1), (4, 1), (2, 1), (6, -1)]

# J = (1 (x) 1 + 1 (x) x + y (x) 1 - y (x) x) / 2 as (left, right, sign)
_KP_TWIST = [(0, 0, 1), (0, 4, 1), (2, 0, 1), (2, 4, -1)]


def _kp_swap(g: int) -> int:
    """z x^i y^j = x^j y^i z: the index of x^j y^i for g that of x^i y^j."""
    return ((g & 2) << 1) | ((g & 4) >> 1)


def kac_paljutkin(order: int = 1) -> HopfStarAlgebra:
    """The Kac-Paljutkin algebra H8, the smallest Hopf *-algebra that is
    neither commutative nor cocommutative, in Masuoka's presentation.

    x^2 = y^2 = 1, xy = yx, zx = yz, zy = xz and z^2 = (1 + x + y - xy) / 2.
    x and y are group-like and Delta z = J (z (x) z); the counit is 1 on the
    basis, S(x^i y^j) = x^i y^j, S(x^i y^j z) = x^j y^i z, (x^i y^j)* =
    x^i y^j and (x^i y^j z)* = z^-1 x^i y^j.  The basis x^i y^j z^k is at
    index 4i + 2j + k, and the scalars are of the given order.
    """
    one = Scalar.one(order)
    half = Scalar.rational(1, 2, order)
    z_squared = {g: half * sign for g, sign in _KP_Z_SQUARED}

    def product(a: int, b: int) -> dict:
        # x^i y^j z^k x^i' y^j' z^k' = x^i y^j (z^k x^i' y^j' z^-k) z^k z^k'
        g = (a & 6) ^ (_kp_swap(b & 6) if a & 1 else b & 6)
        if a & b & 1:
            return {g ^ h: v for h, v in z_squared.items()}
        return {g | (a & 1) | (b & 1): one}

    mult = [[product(a, b) for b in range(8)] for a in range(8)]
    z_star = sparse_apply(mult, {1: one}, z_squared)
    star = [dense_row(sparse_apply(mult, z_star, {a & 6: one}) if a & 1
                      else {a: one}, 8, order) for a in range(8)]
    comult = [{(((a & 6) ^ g) | 1, ((a & 6) ^ h) | 1): half * sign
               for g, h, sign in _KP_TWIST} if a & 1 else {(a, a): one}
              for a in range(8)]
    antipode = [unit_vec(8, (_kp_swap(a & 6) | 1) if a & 1 else a, order)
                for a in range(8)]
    alg = StarAlgebra(8, mult, unit_vec(8, 0, order), star, name="KP8")
    return HopfStarAlgebra(alg, comult, [one] * 8, antipode, name="KP8")


def kac_paljutkin_adjoint() -> ModuleAlgebraAction:
    """H8 acting on Mat2 by h . T = pi(h_1) T pi(S(h_2)), for the
    *-representation pi(x) = diag(1, -1), pi(y) = diag(-1, 1) and
    pi(z) = [[0, 1], [1, 0]] on the matrix units of mat_algebra(2)."""
    H, A = kac_paljutkin(), mat_algebra(2, name="Mat2")
    one, m1 = Scalar.one(), Scalar.from_int(-1)
    gens = [(4, {0: one, 3: m1}), (2, {0: m1, 3: one}), (1, {1: one, 2: one})]
    pis = []
    for a in range(8):
        image = {0: one, 3: one}
        for bit, gen in gens:
            if a & bit:
                image = A.mul_vec(image, gen)
        pis.append(image)

    def image(h: int, t: int) -> dict:
        out: dict = {}
        for (h1, h2), c in H.comult[h].items():
            right = sparse_comb(pis, sparse(H.antipode[h2]))
            sparse_add(out, A.mul_vec(A.mul_vec(pis[h1], {t: one}), right), c)
        return nonzero(out)

    return ModuleAlgebraAction(H, A, [[image(h, t) for t in range(4)]
                                      for h in range(8)])


def rational(p, q=1) -> Scalar:
    return Scalar.from_fraction(Fraction(p, q))

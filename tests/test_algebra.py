"""Star algebras: validation, commutants, generation, expectations."""

import itertools
import random
from fractions import Fraction

import pytest
from _oracles import (
    complex_pair_in_mat2,
    cyclic_diagonal_action,
    dft_mat2_in_mat4,
    expectation_report,
    mat_vec,
    oracle_conditional_expectation,
    oracle_generated_subalgebra,
    oracle_validate_algebra,
    report_summary,
)
from builders import (
    S3_TRANSPOSITION,
    c_of_s3,
    c_of_z2,
    cs3,
    mat_algebra,
    pauli_action,
    sweedler4,
)

from hopfgal.actions import smash_product

from hopfgal.algebra import (
    StarAlgebra,
    analyze_state,
    center,
    conditional_expectation,
    generated_subalgebra,
    generating_set,
    gram_matrix,
    is_bimodular,
    relative_commutant,
    reify,
    tensor_algebra,
    unique_trace,
    validate_algebra,
)
from hopfgal.errors import InputError
from hopfgal.hopf import group_algebra, haar
from hopfgal.linalg import (
    Subspace,
    dense_row,
    is_nonsingular,
    op_dense,
    sparse,
    unit_vec,
    vzero,
)
from hopfgal.scalars import Scalar


def test_mat2_passes_all_axioms():
    rep = validate_algebra(mat_algebra(2))
    assert rep.ok, rep.failed()
    st = analyze_state(mat_algebra(2))
    assert st.tracial and st.hermitian and st.faithful and st.positive


def test_perturbed_associativity_fails_with_witness():
    A = mat_algebra(2)
    # E00 * E01 gains a spurious E10 component
    A.mult[0][1][2] = Scalar.one()
    rep = validate_algebra(A)
    chk = rep["associativity"]
    assert not chk.passed
    assert chk.witness == (0, 1, 0)


# Over Q, Q(i) and Q(zeta_5): the smash products Mat2 x| CK4 (Pauli) and
# Mat2 x| CZ_n by Ad diag(1, zeta_n), basis E_a x| g at index a * |G| + g.
SMASH_BY_ORDER = {
    1: lambda: smash_product(pauli_action(), validate=False).total,
    4: lambda: smash_product(cyclic_diagonal_action(4, [0, 1]),
                             validate=False).total,
    5: lambda: smash_product(cyclic_diagonal_action(5, [0, 1]),
                             validate=False).total,
}


@pytest.mark.parametrize("make", [
    lambda: mat_algebra(3), lambda: cs3(), lambda: c_of_s3(),
    lambda: tensor_algebra(mat_algebra(2), c_of_z2()),
    *SMASH_BY_ORDER.values(),
])
def test_validate_algebra_matches_dense_oracle(make):
    A = make()
    assert report_summary(validate_algebra(A)) \
        == report_summary(oracle_validate_algebra(A))


def _perturb(A, axiom: str, c: Scalar):
    """Scale one entry of mult or star by c, aimed at the given axiom."""
    n = A.dim
    units = {k for k, u in enumerate(A.unit) if u}
    if axiom in ("associativity", "unit"):
        i, j = (0, 0) if axiom == "unit" else next(
            (i, j) for i in range(n) for j in range(n)
            if i not in units and j not in units and A.mult[i][j])
        line = dict(A.mult[i][j])
        k = next(iter(line))
        line[k] = line[k] * c
        A.mult[i][j] = line
    else:
        # E00 x| g_1 or E01 x| 1: Mat2 x| H has dim 4 dim H
        i = 1 if axiom == "star_involutive" else n // 4
        row = list(A.star[i])
        k = next(k for k, x in enumerate(row) if x)
        row[k] = row[k] * c
        A.star[i] = row


@pytest.mark.parametrize("order", sorted(SMASH_BY_ORDER))
@pytest.mark.parametrize("axiom", ["associativity", "unit", "star_involutive",
                                   "star_antimultiplicative"])
def test_perturbed_algebra_report_matches_dense_oracle(axiom, order):
    A = SMASH_BY_ORDER[order]()
    _perturb(A, axiom, Scalar.one() + Scalar.root_of_unity(order))
    rep = validate_algebra(A)
    assert not rep[axiom].passed and rep[axiom].witness is not None
    assert report_summary(rep) == report_summary(oracle_validate_algebra(A))


# Light's associativity test and the star law on generators stand in for
# the full scans; on 1-2 random corrupted entries of mult, unit or star the
# report, witnesses included, must still be the full scans' report.
_SMALL_ALGEBRAS = [
    lambda: mat_algebra(2), lambda: mat_algebra(3), lambda: cs3(),
    lambda: c_of_s3(), lambda: sweedler4(),
    SMASH_BY_ORDER[1],
]


def _corrupt(A, rng: random.Random):
    n, order = A.dim, A.order()
    value = rng.choice([Scalar.zero(order), Scalar.one(order),
                        Scalar.from_int(-1, order), Scalar.from_int(2, order),
                        Scalar.root_of_unity(order) if order > 1
                        else Scalar.from_fraction(Fraction(1, 2))])
    table = rng.choice(["mult", "mult", "unit", "star"])
    if table == "mult":
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        line = dict(A.mult[i][j])
        line.pop(k, None)
        if value:
            line[k] = value
        A.mult[i][j] = line
    elif table == "unit":
        A.unit = list(A.unit)
        A.unit[rng.randrange(n)] = value
    else:
        i = rng.randrange(n)
        A.star[i] = list(A.star[i])
        A.star[i][rng.randrange(n)] = value


def test_corrupted_algebras_match_the_full_scan_oracle():
    rng = random.Random(20261019)
    failing = set()
    for _ in range(300):
        A = rng.choice(_SMALL_ALGEBRAS)()
        for _ in range(rng.randint(1, 2)):
            _corrupt(A, rng)
        rep = validate_algebra(A)
        assert report_summary(rep) == report_summary(oracle_validate_algebra(A))
        failing.update(c.name for c in rep.failed())
    assert {"associativity", "unit", "star_involutive",
            "star_antimultiplicative"} <= failing


def test_star_law_fails_on_a_basis_vector_outside_the_generators():
    # C(S3) is generated by delta_0 .. delta_4; delta_5 = 1 - their sum is
    # reached only through the unit, which the star law must check too
    A = c_of_s3()
    A.star[5] = [-x for x in A.star[5]]
    rep = validate_algebra(A)
    assert rep["star_involutive"].passed
    assert rep["star_antimultiplicative"].witness == (5, 5)
    assert report_summary(rep) == report_summary(oracle_validate_algebra(A))


def _cs4():
    elements = list(itertools.permutations(range(4)))
    return group_algebra([[elements.index(tuple(p[q[x]] for x in range(4)))
                           for q in elements] for p in elements])


@pytest.mark.parametrize("make", [_cs4, lambda: mat_algebra(6)])
def test_passing_validation_scans_no_basis_triples(make, monkeypatch):
    # the n^3 triple scan and the n^2 star scan run only to name a witness
    import hopfgal.algebra as algebra
    A = make()
    calls = {"compose": 0, "apply": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(algebra, "_compose",
                        counted("compose", algebra._compose))
    monkeypatch.setattr(algebra, "sparse_apply",
                        counted("apply", algebra.sparse_apply))
    assert validate_algebra(A).ok
    n = A.dim
    assert calls["compose"] < n ** 3 and calls["apply"] < n ** 2, calls


def test_function_algebra_is_commutative_and_valid():
    F = c_of_z2()
    rep = validate_algebra(F)
    assert rep.ok
    assert F.is_commutative()
    assert not mat_algebra(2).is_commutative()


def test_center_of_mat2_is_scalars():
    A = mat_algebra(2)
    z = center(A)
    assert z.dim == 1
    assert z.contains(A.unit)


def test_bimodular_operators_commute_on_both_sides():
    # y -> y E12 commutes with every left multiplication, but with a right
    # multiplication only by an element that commutes with E12
    A, one = mat_algebra(2), Scalar.one()
    T = A.right_mult_op({1: one})
    assert is_bimodular(A, T, [{1: one}, {0: one, 3: one}])
    assert not is_bimodular(A, T, [{0: one}])
    assert is_bimodular(A, A.right_mult_op({0: one, 3: one}),
                        [{k: one} for k in range(4)])


def test_commutant_of_diagonal_in_mat2():
    A = mat_algebra(2)
    diag = Subspace.from_vectors(
        [unit_vec(4, 0), unit_vec(4, 3)], 4
    )
    comm = relative_commutant(diag, A)
    assert comm == diag


def test_commutant_of_left_tensor_factor():
    A = mat_algebra(2)
    B = mat_algebra(2)
    T = tensor_algebra(A, B)
    left = Subspace.from_vectors(
        [_left_embed(i, 4) for i in range(4)], 16
    )
    comm = relative_commutant(left, T)
    assert comm.dim == 4
    right = Subspace.from_vectors(
        [_right_embed(j, 4) for j in range(4)], 16
    )
    assert comm == right


def _left_embed(i, db):
    v = vzero(4 * db)
    # e_i (x) 1 with 1 = E00 + E11 at indices 0, 3
    v[i * db + 0] = Scalar.one()
    v[i * db + 3] = Scalar.one()
    return v


def _right_embed(j, db):
    v = vzero(4 * db)
    v[0 * db + j] = Scalar.one()
    v[3 * db + j] = Scalar.one()
    return v


def test_generated_subalgebra_star_closure():
    A = mat_algebra(2)
    gen = {1: Scalar.one()}  # E01
    sub = generated_subalgebra([gen], A)
    assert sub.dim == 4  # star closure forces all of Mat2
    assert generated_subalgebra([], A).dim == 1
    diag_gen = {0: Scalar.one(), 3: Scalar.from_int(-1)}
    assert generated_subalgebra([diag_gen], A).dim == 2


@pytest.mark.parametrize("which", ["CS3", "C(S3)", "Mat2(x)Mat2"])
def test_generated_subalgebra_matches_all_pairs_closure(which):
    # random sparse Q(i) generators, one to three entries each
    B = {"CS3": lambda: cs3(), "C(S3)": lambda: c_of_s3(),
         "Mat2(x)Mat2": lambda: tensor_algebra(mat_algebra(2),
                                               mat_algebra(2))}[which]()
    rng = random.Random(sum(map(ord, which)))
    i = Scalar.root_of_unity(4)
    for _ in range(6):
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = vzero(B.dim, 4)
            for k in rng.sample(range(B.dim), rng.randint(1, 3)):
                g[k] = (Scalar.from_int(rng.randint(-2, 2), 4)
                        + i * Scalar.from_int(rng.randint(-2, 2), 4))
            gens.append(g)
        assert (generated_subalgebra(list(map(sparse, gens)), B)
                == oracle_generated_subalgebra(gens, B))


def _generating_set_case(which):
    if which == "mat4":
        B = tensor_algebra(mat_algebra(2), mat_algebra(2))
        return B, Subspace.full(16)
    if which == "dft-mat2-in-mat4":
        return dft_mat2_in_mat4()
    if which == "c-in-mat3":
        B = mat_algebra(3)
        return B, Subspace.from_vectors([B.unit], 9)
    if which == "cz3":
        return group_algebra([[0, 1, 2], [1, 2, 0], [2, 0, 1]]), \
            Subspace.full(3)
    B = cs3()
    return B, generated_subalgebra([{4: Scalar.one()}], B)


@pytest.mark.parametrize("which", ["mat4", "dft-mat2-in-mat4", "c-in-mat3",
                                   "cz3", "cs3-z3"])
def test_generating_set_regenerates_the_subalgebra(which):
    # the unital algebra the chosen basis vectors generate, without the
    # star, by the all-pairs closure
    B, S = _generating_set_case(which)
    gens = generating_set(S, B)
    assert all(g in S.vectors for g in gens)
    assert oracle_generated_subalgebra([dense_row(g, B.dim) for g in gens],
                                       B, with_star=False) == S
    if which == "mat4":
        assert len(gens) < S.dim


def test_generating_set_rejects_a_subspace_that_is_not_closed():
    A = mat_algebra(2)  # E11, E12, E21, E22
    with pytest.raises(InputError, match="leaves the subspace"):
        generating_set(Subspace.from_vectors(
            [A.unit, unit_vec(4, 1), unit_vec(4, 2)], 4), A)
    with pytest.raises(InputError, match="leaves the subspace"):
        generating_set(Subspace.from_vectors([unit_vec(4, 0)], 4), A)


def test_commutant_monotone_and_double():
    A = mat_algebra(2)
    s = Subspace.from_vectors([unit_vec(4, 0)], 4)
    t = Subspace.from_vectors([unit_vec(4, 0), unit_vec(4, 1)], 4)
    sc = relative_commutant(s, A)
    tc = relative_commutant(t, A)
    assert sc.contains_subspace(tc)
    assert relative_commutant(relative_commutant(s, A), A)\
        .contains_subspace(s)


def test_conditional_expectation_onto_scalars():
    A = mat_algebra(2)
    N = Subspace.from_vectors([A.unit], 4)
    E = op_dense(conditional_expectation(A, N), 4)
    # E(x) = tau(x) 1
    for i in range(4):
        expected = [A.apply_state(sparse(unit_vec(4, i))) * u for u in A.unit]
        assert mat_vec(E, unit_vec(4, i)) == expected
    assert expectation_report(A, N, E).ok


def test_conditional_expectation_onto_diagonal():
    A = mat_algebra(2)
    N = Subspace.from_vectors([unit_vec(4, 0), unit_vec(4, 3)], 4)
    E = op_dense(conditional_expectation(A, N), 4)
    assert mat_vec(E, unit_vec(4, 1)) == vzero(4)
    assert mat_vec(E, unit_vec(4, 2)) == vzero(4)
    assert mat_vec(E, unit_vec(4, 0)) == unit_vec(4, 0)
    assert expectation_report(A, N, E).ok


def test_conditional_expectation_identity_when_full():
    A = mat_algebra(2)
    E = op_dense(conditional_expectation(A, Subspace.full(4)), 4)
    for i in range(4):
        assert mat_vec(E, unit_vec(4, i)) == unit_vec(4, i)


def _expectation_cases():
    A = mat_algebra(2)
    yield "mat2-scalars", A, Subspace.from_vectors([A.unit], 4)
    yield "mat2-diagonal", A, Subspace.from_vectors(
        [unit_vec(4, 0), unit_vec(4, 3)], 4)
    yield "mat2-full", A, Subspace.full(4)
    H = cs3()
    B = StarAlgebra(6, H.mult, H.unit, H.star, state=haar(H),
                    name="CS3")
    one = Scalar.one()
    yield "cs3-z2", B, generated_subalgebra([{S3_TRANSPOSITION: one}], B)
    yield "cs3-z3", B, generated_subalgebra([{4: one}], B)
    yield "dft-mat2-in-mat4", *dft_mat2_in_mat4()
    yield "complex-pair-in-mat2", *complex_pair_in_mat2()


@pytest.mark.parametrize("case", list(_expectation_cases()),
                         ids=lambda case: case[0])
def test_conditional_expectation_matches_dense_oracle(case):
    # the sparse operator, densified, is the dense column-by-column
    # matrix entry by entry; nonzero entries keep their Scalar orders
    _, M, N = case
    E = op_dense(conditional_expectation(M, N), M.dim)
    oracle = oracle_conditional_expectation(M, N)
    assert E == oracle
    assert [[x.to_json() for x in row if x] for row in E] \
        == [[x.to_json() for x in row if x] for row in oracle]
    assert expectation_report(M, N, E).ok


def test_conditional_expectation_rejects_non_subalgebra():
    A = mat_algebra(2)
    bad = Subspace.from_vectors([unit_vec(4, 1)], 4)
    with pytest.raises(InputError, match="not a subalgebra"):
        conditional_expectation(A, bad)


def test_reify_subalgebra():
    A = mat_algebra(2)
    diag = Subspace.from_vectors([unit_vec(4, 0), unit_vec(4, 3)], 4)
    B, inc = reify(A, diag)
    assert B.dim == 2
    assert validate_algebra(B).ok
    assert B.is_commutative()


def test_unique_trace_on_mat2():
    A = mat_algebra(2)
    assert unique_trace(A) == A.state
    # C(Z2) has a two-dimensional space of traces
    direct_sum = c_of_z2()
    with pytest.raises(InputError, match=r"^trace is not unique \(algebra"
                       r" is not a factor\)$"):
        unique_trace(direct_sum)


def test_unique_trace_without_a_normalized_trace():
    # unit e0 and e1 e0 = e0, every other product 0: a trace vanishes on
    # e1 e0 - e0 e1 = e0, so on the unit
    one = Scalar.one()
    mult = [[{}, {}], [{0: one}, {}]]
    A = StarAlgebra(2, mult, unit_vec(2, 0), [unit_vec(2, 0), unit_vec(2, 1)])
    with pytest.raises(InputError, match="^no normalized trace exists$"):
        unique_trace(A)


def test_gram_nonsingular():
    assert is_nonsingular(gram_matrix(mat_algebra(2)).values(), 4)


def test_generated_subalgebra_output_is_closed():
    A = mat_algebra(2)
    sub = generated_subalgebra([{1: Scalar.one()}], A)
    for u in sub.vectors:
        assert sub.contains(A.star_vec(u))
        for v in sub.vectors:
            assert sub.contains(A.mul_vec(u, v))
    assert sub.contains(A.unit)

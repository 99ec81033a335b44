"""Span constraints, largest subcoalgebras, Hopf centralizers."""

import random

import pytest

from _oracles import (
    _qi,
    basis_rows,
    dense_fixing_span,
    dense_multiplication_span,
    dense_span_from_matrices,
    dense_span_value,
    dense_unit_span,
    oracle_constraint_subspace,
    oracle_largest_subcoalgebra,
    oracle_star_compat_rows,
    random_coalgebra,
    random_subspace,
    stabilized_closure,
)
from builders import (
    S3_TRANSPOSITION,
    Z2_TABLE,
    ad_z_action,
    c_of_s3,
    cs3,
    cz2,
    grading_action_mat2,
    mat_algebra,
    pauli_action,
    translation_action,
    trivial_action,
)
from hopfgal.actions import invariants
from hopfgal.algebra import StarAlgebra, relative_commutant
from hopfgal.errors import InputError
from hopfgal.hopf import (
    StarCoalgebra,
    function_algebra,
    validate_coalgebra,
    validate_hopf,
)
from hopfgal.linalg import Subspace, dense_row, sparse, unit_vec, vzero
from hopfgal.measuring import (
    Multispan,
    SpanConstraint,
    _span_value,
    constraint_subspace,
    fixing_span,
    hopf_centralizer,
    hopf_subalgebra_report,
    largest_hopf_star_subalgebra,
    largest_subcoalgebra,
    multiplication_span,
    reify_coalgebra,
    reify_hopf_subalgebra,
    star_compat_rows,
    subcoalgebra_report,
    unit_span,
    universal_measuring_within,
)
from hopfgal.scalars import Scalar


def test_empty_multispan_gives_everything():
    H = cz2()
    act = trivial_action(H, mat_algebra(2))
    ms = Multispan(act.to_hom_map(), [])
    W = constraint_subspace(H.coalgebra, ms)
    assert W.dim == H.dim


def test_multiplication_span_accepts_automorphism_actions():
    for make in (pauli_action, ad_z_action,
                 lambda: translation_action(Z2_TABLE)):
        act = make()
        C = act.hopf.coalgebra
        ms = Multispan(act.to_hom_map(),
                       [multiplication_span(act.alg, act.alg),
                        unit_span(act.alg, act.alg)])
        W = constraint_subspace(C, ms)
        assert W.dim == act.hopf.dim


def test_multiplication_span_rejects_non_action():
    # break the Pauli action tensor: X . E01 := E00 is not multiplicative
    # ((X.E01)(X.E01) = E00 while X.(E01 E01) = 0)
    act = pauli_action()
    act.act[1][1] = {0: Scalar.one()}
    C = act.hopf.coalgebra
    ms = Multispan(act.to_hom_map(),
                   [multiplication_span(act.alg, act.alg),
                    unit_span(act.alg, act.alg)])
    W = constraint_subspace(C, ms)
    assert W.dim < act.hopf.dim


def test_fixing_span_extracts_trivially_acting_part():
    act = ad_z_action()
    C = act.hopf.coalgebra
    ms = Multispan(act.to_hom_map(),
                   [fixing_span(act.alg, act.alg, Subspace.full(4))])
    W = constraint_subspace(C, ms)
    # only multiples of the group identity act trivially on all of Mat2
    assert W.dim == 1
    assert W.contains(unit_vec(2, 0))


# -- the sparse span layer against the dense evaluation it replaced ----------


def _random_qi(rng, p: float) -> Scalar:
    return _qi(rng) if rng.random() < p else Scalar.zero(4)


def _random_star_algebra(rng, n: int) -> StarAlgebra:
    """Random (not associative) tables over Q(i): only the span layer reads
    them."""
    mult = [[{k: v for k in range(n) for v in [_random_qi(rng, 0.4)] if v}
             for _ in range(n)] for _ in range(n)]
    unit = [_random_qi(rng, 0.7) for _ in range(n)]
    star = [[_random_qi(rng, 0.5) for _ in range(n)] for _ in range(n)]
    return StarAlgebra(n, mult, unit, star)


def _random_star_coalgebra(rng, n: int) -> StarCoalgebra:
    """Random (not coassociative, not cocommutative) tables over Q(i)."""
    comult = [{(j, k): v for j in range(n) for k in range(n)
               for v in [_random_qi(rng, 0.4)] if v} for _ in range(n)]
    counit = [_random_qi(rng, 0.7) for _ in range(n)]
    star = [[_random_qi(rng, 0.5) for _ in range(n)] for _ in range(n)]
    return StarCoalgebra(n, comult, counit, star)


def _random_span_matrix(rng, rows: int, width: int) -> list:
    # order-1 integers, as a measure job reads them, and Q(i) entries
    return [[rng.choice([Scalar.zero(), Scalar.from_int(rng.randint(-2, 2)),
                         _qi(rng)]) for _ in range(width)]
            for _ in range(rows)]


def _pins(x: dict) -> dict:
    return {k: (v, v.order) for k, v in x.items()}


def _basis_pins(W: Subspace) -> list:
    return [[(x, x.order) for x in row] for row in basis_rows(W)]


@pytest.mark.parametrize("seed,na,nb", [(0, 1, 2), (1, 2, 3), (2, 3, 2),
                                        (3, 2, 2), (4, 3, 1), (5, 3, 3)])
def test_span_layer_matches_dense_oracle(seed, na, nb):
    # values and Scalar orders of every span at every basis element and at
    # a random element, of each constraint subspace and of the star rows
    rng = random.Random(f"span-layer:{seed}")
    C = _random_star_coalgebra(rng, rng.randint(2, 3))
    A, B = _random_star_algebra(rng, na), _random_star_algebra(rng, nb)
    width = nb * na
    rows = [{k: v for k in range(width) for v in [_random_qi(rng, 0.5)] if v}
            for _ in range(C.dim)]
    carrier = [dense_row(row, width) for row in rows]
    pairs = [(multiplication_span(A, B), dense_multiplication_span(A, B)),
             (unit_span(A, B), dense_unit_span(A, B))]
    if na == nb:
        fixed = Subspace.from_vectors(
            [[_random_qi(rng, 0.6) for _ in range(na)]
             for _ in range(rng.randint(1, na))], na)
        pairs.append((fixing_span(A, A, fixed), dense_fixing_span(A, fixed)))
    for l in range(3):
        for r in range(3):
            height = rng.randint(1, 2)
            left = _random_span_matrix(rng, height, width ** l)
            right = _random_span_matrix(rng, height, width ** r)
            pairs.append((SpanConstraint.from_matrices(l, r, left, right,
                                                       width),
                          dense_span_from_matrices(l, r, left, right)))
    points = [unit_vec(C.dim, i) for i in range(C.dim)]
    points.append([_random_qi(rng, 0.8) for _ in range(C.dim)])
    for span, oracle in pairs:
        for x in points:
            assert _pins(_span_value(C, Multispan(rows), span, sparse(x))) \
                == _pins(dense_span_value(C, carrier, oracle, x)), span.name
        assert _basis_pins(constraint_subspace(C, Multispan(rows, [span]))) \
            == _basis_pins(oracle_constraint_subspace(C, carrier, [oracle]))
    spans, oracles = zip(*pairs)
    assert _basis_pins(constraint_subspace(C, Multispan(rows, list(spans)))) \
        == _basis_pins(oracle_constraint_subspace(C, carrier, oracles))
    assert [_pins(row) for row in star_compat_rows(C, Multispan(rows), A, B)] \
        == [_pins(row) for row in oracle_star_compat_rows(C, carrier, A, B)]


def test_largest_subcoalgebra_trivial_cases():
    H = cz2()
    full = Subspace.full(2)
    assert largest_subcoalgebra(H.coalgebra, full) == full
    e_only = Subspace.from_vectors([unit_vec(2, 0)], 2)
    assert largest_subcoalgebra(H.coalgebra, e_only) == e_only


def test_largest_subcoalgebra_spec_examples():
    H = cz2()
    # W = span{e, e+g} is everything; span{e} survives, g-e dies
    w = Subspace.from_vectors([unit_vec(2, 0),
                               [Scalar.one(), Scalar.one()]], 2)
    assert largest_subcoalgebra(H.coalgebra, w).dim == 2
    diff = Subspace.from_vectors([[Scalar.from_int(-1), Scalar.one()]], 2)
    assert largest_subcoalgebra(H.coalgebra, diff).dim == 0


def test_largest_subcoalgebra_log_monotone():
    H = cs3()
    rng = random.Random(5)
    vecs = [[Scalar.from_int(rng.randint(-2, 2)) for _ in range(6)]
            for _ in range(3)]
    log = []
    largest_subcoalgebra(H.coalgebra, Subspace.from_vectors(vecs, 6),
                         log=log)
    assert log == sorted(log, reverse=True)


def test_monotonicity_in_w():
    H = cs3()
    rng = random.Random(11)
    for _ in range(10):
        v1 = [[Scalar.from_int(rng.randint(-1, 1)) for _ in range(6)]
              for _ in range(2)]
        v2 = v1 + [[Scalar.from_int(rng.randint(-1, 1)) for _ in range(6)]]
        w1 = Subspace.from_vectors(v1, 6)
        w2 = Subspace.from_vectors(v2, 6)
        d1 = largest_subcoalgebra(H.coalgebra, w1)
        d2 = largest_subcoalgebra(H.coalgebra, w2)
        assert d2.contains_subspace(d1)


def test_oracle_agreement_small_random():
    rng = random.Random(101)
    for _ in range(25):
        C = random_coalgebra(rng)
        W = random_subspace(rng, C)
        stab = [C.star_vec] if rng.random() < 0.5 else []
        mine = largest_subcoalgebra(C, W, stabilizers=stab)
        theirs = oracle_largest_subcoalgebra(C, W, stabilizers=stab)
        assert mine == theirs
        # no 1-dim extension inside W stays closed
        for _ in range(2):
            v = [Scalar.from_int(rng.randint(-2, 2), 4) for _ in range(C.dim)]
            if not W.contains(v) or mine.contains(v):
                continue
            closure = stabilized_closure(C, basis_rows(mine) + [v], stab)
            assert not all(W.contains(r) for r in closure.rows)


def test_hopf_centralizer_of_unit_is_everything():
    Q = cs3()
    S = Subspace.from_vectors([Q.unit], 6)
    assert hopf_centralizer(Q, S).dim == 6


def test_hopf_centralizer_of_transposition():
    # the centralizer subgroup of (01) in S3 is {e, (01)}
    Q = cs3()
    S = Subspace.from_vectors([unit_vec(6, S3_TRANSPOSITION)], 6)
    result = hopf_centralizer(Q, S)
    assert result.dim == 2
    assert result.contains(unit_vec(6, 0))
    assert result.contains(unit_vec(6, S3_TRANSPOSITION))
    rep = hopf_subalgebra_report(Q, result)
    assert rep.ok, rep.failed()
    reified = reify_hopf_subalgebra(Q, result, name="C<(01)>")
    assert validate_hopf(reified).ok


def test_hopf_centralizer_of_whole_group_algebra():
    # center of CS3 contains no nontrivial group-likes: the largest Hopf
    # *-subalgebra inside it is the scalars
    Q = cs3()
    result = hopf_centralizer(Q, Subspace.full(6))
    assert result.dim == 1
    assert result.contains(Q.unit)
    # cross-check against the closure oracle: the center itself
    center = relative_commutant(Subspace.full(6), Q)
    assert center.dim == 3
    oracle = oracle_largest_subcoalgebra(
        Q.coalgebra, center,
        stabilizers=[Q.antipode_vec, Q.star_vec],
    )
    assert oracle.dim == 1


def test_hopf_centralizer_rejects_non_star_closed():
    Q = cs3()
    v = vzero(6)
    v[4] = Scalar.one()  # a 3-cycle alone is not *-closed
    with pytest.raises(InputError, match="not \\*-closed"):
        hopf_centralizer(Q, Subspace.from_vectors([v], 6))


def test_largest_hopf_star_subalgebra_requires_subalgebra():
    Q = cs3()
    bad = Subspace.from_vectors([unit_vec(6, 1)], 6)
    with pytest.raises(InputError, match="unital"):
        largest_hopf_star_subalgebra(Q, bad)


def test_universal_measuring_full_for_actions():
    for make in (pauli_action, ad_z_action, grading_action_mat2):
        act = make()
        res = universal_measuring_within(
            act.hopf.coalgebra, act.alg, act.alg, act.to_hom_map()
        )
        assert res.report.ok, res.report.failed()
        assert res.subspace.dim == act.hopf.dim


def test_universal_measuring_cuts_non_action():
    act = ad_z_action()
    act.act[1][2] = {}  # now g acts by a non-automorphism linear map
    res = universal_measuring_within(
        act.hopf.coalgebra, act.alg, act.alg, act.to_hom_map()
    )
    assert res.subspace.dim == 1  # the group identity still acts correctly
    assert res.report.ok


def test_universal_measuring_with_fixing_span():
    # fixing all of Mat2 cuts CZ2 down to the trivially-acting group-likes
    act = ad_z_action()
    res = universal_measuring_within(
        act.hopf.coalgebra, act.alg, act.alg, act.to_hom_map(),
        extra=[fixing_span(act.alg, act.alg, Subspace.full(4))],
    )
    assert res.subspace.dim == 1
    assert res.subspace.contains(unit_vec(2, 0))


def test_fixing_span_galois_connection_with_invariants():
    # fixing the invariant subalgebra is no constraint at all, and fixing
    # anything strictly larger is
    for make in (ad_z_action, pauli_action, grading_action_mat2):
        act = make()
        inv = invariants(act)
        C = act.hopf.coalgebra
        ms = Multispan(act.to_hom_map(),
                       [fixing_span(act.alg, act.alg, inv)])
        assert constraint_subspace(C, ms).dim == act.hopf.dim
        if inv.dim < act.alg.dim:
            for i in range(act.alg.dim):
                probe = unit_vec(act.alg.dim, i)
                if not inv.contains(probe):
                    bigger = inv.add(
                        Subspace.from_vectors([probe], act.alg.dim)
                    )
                    ms2 = Multispan(act.to_hom_map(),
                                    [fixing_span(act.alg, act.alg, bigger)])
                    assert constraint_subspace(C, ms2).dim < act.hopf.dim
                    break


def test_double_centralizer_reported_not_asserted():
    # recorded as data: HC(HC(S)) on the transposition fixture; no theorem
    # is claimed about when it recovers S
    Q = cs3()
    S = Subspace.from_vectors([unit_vec(6, 0),
                               unit_vec(6, S3_TRANSPOSITION)], 6)
    first = hopf_centralizer(Q, S)
    second = hopf_centralizer(Q, first)
    print(f"double centralizer data: dim S = {S.dim},"
          f" dim HC(S) = {first.dim}, dim HC(HC(S)) = {second.dim}")
    assert first.dim >= 1 and second.dim >= 1


def test_hopf_centralizer_in_sweedler_algebra():
    from builders import sweedler4

    Q = sweedler4()
    S = Subspace.from_vectors([unit_vec(4, 1)], 4)  # the group-like g
    result = hopf_centralizer(Q, S)
    # commutant of g is span{1, g}; it is already a Hopf *-subalgebra
    assert result.dim == 2
    assert result.contains(unit_vec(4, 0))
    assert result.contains(unit_vec(4, 1))
    reified = reify_hopf_subalgebra(Q, result, name="group part")
    assert validate_hopf(reified).ok


def _gauss(re: int, im: int, den: int) -> Scalar:
    return Scalar(4, [re, im], den)


def test_conjugate_linear_stabilizer_keeps_star_stable_line():
    # Draw 221 of random_coalgebra / random_subspace under random.Random(7):
    # C has dim 3 and W dim 2 over Q(i).  W holds the star-stable
    # subcoalgebra spanned by (1, -1/2 - i, i); imposing the conjugate
    # linear star linearly in the coordinates on W's basis lost it.
    planes = [
        [(-2, -14, 25), (1, 32, 25), (-63, 34, 25), (37, -16, 25),
         (13, -9, 50), (31, 17, 50), (-36, -2, 25), (-7, 1, 25),
         (-9, -13, 25)],
        [(-132, -24, 125), (66, 262, 125), (42, 144, 125), (42, -106, 125),
         (229, -72, 125), (-127, 11, 125), (24, -132, 125), (-262, 66, 125),
         (-144, 42, 125)],
        [(176, 32, 125), (-88, -16, 125), (-56, 58, 125), (-56, -192, 125),
         (28, 96, 125), (86, 27, 125), (-32, -74, 125), (16, 37, 125),
         (-308, 69, 125)],
    ]
    comult = [{(t // 3, t % 3): _gauss(*e) for t, e in enumerate(plane)}
              for plane in planes]
    counit = [_gauss(1, 7, 50), _gauss(33, 6, 125), _gauss(-44, -8, 125)]
    star = [[_gauss(*e) for e in row] for row in [
        [(-28, 21, 25), (16, -12, 25), (1, -7, 25)],
        [(-98, 86, 125), (131, -92, 125), (-34, -62, 125)],
        [(-36, 52, 125), (-8, -44, 125), (87, -84, 125)],
    ]]
    C = StarCoalgebra(3, comult, counit, star)
    W = Subspace.from_vectors([[_gauss(1, 0, 1), _gauss(-1, -2, 2),
                                _gauss(0, 0, 1)],
                               [_gauss(0, 0, 1), _gauss(0, 0, 1),
                                _gauss(1, 0, 1)]], 3)
    line = Subspace.from_vectors([[_gauss(1, 0, 1), _gauss(-1, -2, 2),
                                   _gauss(0, 1, 1)]], 3)
    assert W.contains_subspace(line)
    assert subcoalgebra_report(C, line, [C.star_vec]).ok
    assert largest_subcoalgebra(C, W, stabilizers=[C.star_vec]) == line
    assert oracle_largest_subcoalgebra(C, W, stabilizers=[C.star_vec]) == line


def _z4_characters() -> list:
    i = Scalar.root_of_unity(4)
    return [[i ** (j * k) for j in range(4)] for k in range(4)]


def _s3_characters() -> list:
    # trivial and sign on e, (01), (02), (12), (012), (021)
    return [[Scalar.one()] * 6,
            [Scalar.from_int(s) for s in (1, -1, -1, -1, 1, 1)]]


# (Hopf algebra, group-like atoms, expected dims with the stabilizers none,
# antipode, algebra star, coalgebra star x -> S(x)*, antipode and algebra
# star).  Antipode and algebra star both send the character chi_1 of Z4 to
# chi_3 and the group element (012) of S3 to (021); the coalgebra star fixes
# every group-like.  The atoms have non-real coordinates on the RREF basis
# of W, so imposing a conjugate-linear star linearly loses chi_1.
_ATOM_CASES = {
    "C(Z4) chi0 chi1": (
        lambda: function_algebra([[(a + b) % 4 for b in range(4)]
                                  for a in range(4)]),
        lambda: _z4_characters()[:2], (2, 1, 1, 2, 1)),
    "C(Z4) chi1 chi3": (
        lambda: function_algebra([[(a + b) % 4 for b in range(4)]
                                  for a in range(4)]),
        lambda: _z4_characters()[1::2], (2, 2, 2, 2, 2)),
    "C(S3) trivial sign": (c_of_s3, _s3_characters, (2, 2, 2, 2, 2)),
    "CS3 e (012)": (cs3, lambda: [unit_vec(6, 0), unit_vec(6, 4)],
                    (2, 1, 1, 2, 1)),
    "CS3 (01) (012) (021)": (
        cs3, lambda: [unit_vec(6, S3_TRANSPOSITION), unit_vec(6, 4),
                      unit_vec(6, 5)], (3, 3, 3, 3, 3)),
}


@pytest.mark.parametrize("case", sorted(_ATOM_CASES))
def test_oracle_agreement_qi_with_linear_and_conjugate_linear_stabilizers(
        case):
    make, atoms_of, dims = _ATOM_CASES[case]
    Q = make()
    atoms = atoms_of()
    rng = random.Random(case)
    n = Q.dim
    for _ in range(3):
        # a random Q(i) basis of span(atoms) plus one random Q(i) vector
        vecs = []
        for _ in atoms:
            cs = [_qi(rng) for _ in atoms]
            vecs.append([sum((c * a[t] for c, a in zip(cs, atoms)),
                             Scalar.zero(4)) for t in range(n)])
        vecs.append([_qi(rng) for _ in range(n)])
        W = Subspace.from_vectors(vecs, n)
        for stab, dim in zip(([], [Q.antipode_vec], [Q.star_vec],
                              [Q.coalgebra.star_vec],
                              [Q.antipode_vec, Q.star_vec]), dims):
            mine = largest_subcoalgebra(Q.coalgebra, W, stabilizers=stab)
            assert mine == oracle_largest_subcoalgebra(Q.coalgebra, W, stab)
            assert mine.dim == dim
            assert Subspace.from_vectors(atoms, n).contains_subspace(mine)
            assert subcoalgebra_report(Q.coalgebra, mine, stab).ok


def test_reify_coalgebra_reads_coordinates_at_pivot_pairs():
    # span{chi_0, chi_1, chi_3} in C(Z4): every character is group-like, so
    # on the reified coalgebra its coordinate vector c has Delta c = c (x) c
    Q = function_algebra([[(a + b) % 4 for b in range(4)] for a in range(4)])
    chars = _z4_characters()
    D = Subspace.from_vectors([chars[0], chars[1], chars[3]], 4)
    coalg, inclusion = reify_coalgebra(Q.coalgebra, D)
    assert validate_coalgebra(coalg).ok
    assert inclusion == D.vectors
    for chi in (chars[0], chars[1], chars[3]):
        c = D.coordinates(chi)
        square = {(i, j): x * y for i, x in enumerate(c)
                  for j, y in enumerate(c) if x * y}
        assert coalg.comult_vec(sparse(c)) == square
    # e + (01) in CS3 is not a subcoalgebra: Delta of it has e (x) e
    with pytest.raises(InputError, match="not a subcoalgebra"):
        reify_coalgebra(cs3().coalgebra, Subspace.from_vectors(
            [[Scalar.one(), Scalar.one()] + [Scalar.zero()] * 4], 6))

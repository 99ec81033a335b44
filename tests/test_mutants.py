"""The generator routes against their oracles, and the mutants they must see.

largest_subcoalgebra takes its dual route, closing annihilators under
generators of C*, only when light_generators shows C* associative in the
same call; _check_group_table checks associativity on greedy generators of
the table.  Each check below runs the smallest inputs that see the mutants
of its route, or of one shared law of hopf and algebra, the refusal of
Report.require, or the coaction of a smash product.  Each mutant case
monkeypatches one function of the package, in the module whose caller its
check reaches, with its mutant, edited from the function's own source where
it lies inside one, and asserts that its check fails.  No subprocess is
started.
"""

import inspect
import json
import random
import textwrap

import pytest

from _oracles import (
    c_of_s4_within,
    oracle_largest_subcoalgebra,
    random_coalgebra,
    random_subspace,
)
from builders import S3_TABLE, cs3, dual_number_action, mat_algebra
from hopfgal import algebra, galois, hopf, measuring
from hopfgal.actions import SmashProduct, is_outer, smash_product
from hopfgal.algebra import generating_set, light_generators
from hopfgal.banica import product_coaction
from hopfgal.cli import main
from hopfgal.errors import HopfgalError, InputError
from hopfgal.hopf import (
    dual_algebra,
    function_algebra,
    group_algebra,
    validate_hopf,
)
from hopfgal.linalg import Subspace
from hopfgal.report import Report
from hopfgal.scalars import Scalar
from hopfgal.serialize import Workspace
from make_fixtures import banica_z2_workspace

# a loop, not a group: 1 alone generates it, and (1 1) 2 = 3 != 1 (1 2) = 4
LOOP5 = [[0, 1, 2, 3, 4], [1, 2, 3, 4, 0], [2, 0, 4, 1, 3],
         [3, 4, 0, 2, 1], [4, 3, 1, 0, 2]]


def _coset_functions(table, subgroup, order: int, right: bool) -> Subspace:
    """The functions constant on the left (or right) cosets of subgroup: a
    one-sided coideal of C(G) whose largest subcoalgebra is smaller."""
    n, cosets = len(table), []
    for g in range(n):
        coset = {table[h][g] if right else table[g][h] for h in subgroup}
        if coset not in cosets:
            cosets.append(coset)
    return Subspace.from_vectors(
        [[Scalar.from_int(int(g in c), order) for g in range(n)]
         for c in cosets], n)


def _route_cases():
    """(label, C, W, stabilizers) on which the dual route runs."""
    cases = []
    for order in (1, 4):
        C = function_algebra(S3_TABLE, order=order).coalgebra
        for right in (False, True):
            W = _coset_functions(S3_TABLE, [0, 1], order, right)
            for stab in ([], [C.star_vec]):
                cases.append((f"C(S3) {order} {right} {len(stab)}",
                              C, W, stab))
    # the character of Z3 spans a star-stable subcoalgebra of C(Z3), so
    # star^T must conjugate
    z3 = function_algebra([[(i + j) % 3 for j in range(3)]
                           for i in range(3)], order=3).coalgebra
    w = Scalar.root_of_unity(3)
    cases.append(("C(Z3) chi", z3, Subspace.from_vectors(
        [[Scalar.one(3), w, w * w]], 3), [z3.star_vec]))
    rng = random.Random(31)
    while len(cases) < 14:
        C = random_coalgebra(rng)
        W = random_subspace(rng, C)
        stab = [C.star_vec] if rng.random() < 0.5 else []
        if light_generators(_dual(C)) is not None and any(
                p != {(k, j): v for (j, k), v in p.items()} for p in C.comult):
            cases.append((f"random {len(cases)}", C, W, stab))
    return cases


def _dual(C):
    return dual_algebra(C, [C.star_row(k) for k in range(C.dim)])


def _run(C, W, stab):
    log: list = []
    return log, measuring.largest_subcoalgebra(C, W, stab, log)


def _primal(C, W, stab):
    kept = measuring._dual_rounds
    measuring._dual_rounds = lambda *args: None
    try:
        return _run(C, W, stab)
    finally:
        measuring._dual_rounds = kept


def _with_orders(D: Subspace) -> list:
    return [{k: (v, v.order) for k, v in b.items()} for b in D.vectors]


def _check_routes():
    for label, C, W, stab in _route_cases():
        assert measuring._dual_rounds(C, W, stab) is not None, label
        log, D = _run(C, W, stab)
        oracle_log: list = []
        oracle = oracle_largest_subcoalgebra(C, W, stab, oracle_log)
        assert (log, D) == (oracle_log, oracle), label
        primal_log, primal = _primal(C, W, stab)
        assert (log, _with_orders(D)) == (primal_log, _with_orders(primal))


def _corrupted_c_of_s3():
    """C(S3) at order 4 with one comultiplication entry raised by one, so
    that C* fails Light's test."""
    H = function_algebra(S3_TABLE, order=4)
    H.comult[5][0, 0] = Scalar.one(4)
    return H.coalgebra


def _check_premise():
    C = _corrupted_c_of_s3()
    assert light_generators(_dual(C)) is None
    for right in (False, True):
        W = _coset_functions(S3_TABLE, [0, 1], 4, right)
        oracle_log: list = []
        oracle = oracle_largest_subcoalgebra(C, W, [], oracle_log)
        assert _run(C, W, []) == (oracle_log, oracle)


def _check_loop():
    try:
        group_algebra(LOOP5)
    except InputError as e:
        assert str(e) == "not a group: associativity fails"
    else:
        raise AssertionError("a loop passed as a group")


def test_dual_route_matches_the_oracle_and_the_primal_route():
    _check_routes()


def _check_cs3():
    # CS3 is not commutative, so Delta(x e_j) and Delta(e_j) Delta(x) differ
    rep = validate_hopf(cs3())
    assert rep.ok, rep.failed()


def _check_antipode_orders():
    # 4 and 5 are inverse 3-cycles: with 4 * 5 broken S * id fails at 5
    # and id * S at 4, with 5 * 4 broken the other way round
    for i, j in ((4, 5), (5, 4)):
        H = cs3()
        H.mult[i][j][0] = H.mult[i][j][0] + Scalar.one()
        assert validate_hopf(H)["antipode_axiom"].witness == 4


def _check_comult_unit():
    H, one = cs3(), Scalar.one()
    H.comult[0] = {(0, 0): one, (1, 1): one}
    assert not validate_hopf(H)["comult_unital"].passed


def _check_bimodular():
    # y -> y E12 commutes with every left multiplication, not with right
    # multiplication by E11
    A, one = mat_algebra(2), Scalar.one()
    assert not algebra.is_bimodular(A, A.right_mult_op({1: one}),
                                    [{0: one}])


def _check_refusal():
    docs = banica_z2_workspace()["documents"]
    docs["bz2"]["unit"][0] = 2
    ws = Workspace(docs)
    try:
        product_coaction(ws.get("beta"), smash_product(ws.get("adz")))
    except HopfgalError as e:
        assert str(e) == "comodule algebra invalid at unit"
    else:
        raise AssertionError("an invalid comodule algebra passed")


def _check_dual_endos():
    # Sweedler's algebra is not cocommutative, so the T_lambda of its smash
    # product with the dual numbers compose as H* multiplies only when the
    # coaction reads h_1 before h_2 and the law composes in order
    sp = smash_product(dual_number_action())
    rep = galois.commutant_endos_iso(sp, *is_outer(sp))[1]
    assert rep["convolution_matches_composition"].passed


def test_a_coalgebra_that_fails_lights_test_matches_the_oracle():
    _check_premise()


def test_a_loop_is_not_a_group():
    _check_loop()


@pytest.mark.parametrize("check", [
    _check_cs3, _check_antipode_orders, _check_comult_unit, _check_bimodular,
    _check_refusal, _check_dual_endos], ids=lambda check: check.__name__)
def test_the_unmutated_package_passes_each_check(check):
    check()


def test_measure_within_c_s4_runs_no_primal_round(tmp_path, monkeypatch):
    routes = []

    def recorded(*args):
        routes.append(dual_rounds(*args))
        return routes[-1]
    dual_rounds = measuring._dual_rounds
    monkeypatch.setattr(measuring, "_dual_rounds", recorded)
    path = tmp_path / "s4.json"
    path.write_text(json.dumps({"documents": c_of_s4_within()[0]}))
    assert main(["measure", "--workspace", str(path), "--job", "measure",
                 "--out", str(tmp_path / "out.json")]) == 0
    assert routes and None not in routes


def _edited(fn, old: str, new: str):
    """fn compiled from its source with old replaced by new."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    namespace: dict = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn),
                 "exec"), fn.__globals__, namespace)
    return namespace[fn.__name__]


MUTANTS = {
    "premise skipped": (measuring, "light_generators", lambda fn: (
        lambda A: generating_set(Subspace.full(A.dim), A, A.dim // 2)),
        _check_premise),
    "left closure dropped": (measuring, "_dual_rounds", lambda fn: _edited(
        fn, "(dual.mult, right)", "(right,)"), _check_routes),
    "right closure dropped": (measuring, "_dual_rounds", lambda fn: _edited(
        fn, "(dual.mult, right)", "(dual.mult,)"), _check_routes),
    "conjugation dropped": (measuring, "_dual_rounds", lambda fn: _edited(
        fn, "(sparse_conj if c else dict)", "dict"), _check_routes),
    "group generator dropped": (hopf, "_group_generators", lambda fn: (
        lambda table: fn(table)[:-1]), _check_loop),
    "multiplicative factors swapped": (
        hopf, "multiplicative_failures", lambda fn: _edited(
            fn, "image, coact[j])", "coact[j], image)"), _check_cs3),
    "g * f dropped": (hopf, "convolution_inverse_failures", lambda fn: _edited(
        fn, "\n            or sparse_ne(convolve(mult, plane, g, f), targets[i])",
        ""), _check_antipode_orders),
    "composition operands swapped": (
        galois, "composition_failures", lambda fn: _edited(
            fn, "op_mul(ops[g], ops[h])", "op_mul(ops[h], ops[g])"),
        _check_dual_endos),
    "unit always preserved": (hopf, "is_unital", lambda fn: (
        lambda coact, unit_b, unit_h: True), _check_comult_unit),
    "bimodular on the left only": (algebra, "is_bimodular", lambda fn: _edited(
        fn, "(A.left_mult_op(z), A.right_mult_op(z))", "(A.left_mult_op(z),)"),
        _check_bimodular),
    "require never raises": (Report, "require", lambda fn: (
        lambda self, error, text, **kwargs: None), _check_refusal),
    "coaction legs swapped": (SmashProduct, "coaction", lambda fn: _edited(
        fn, "(self.idx(a, h1), h2)", "(self.idx(a, h2), h1)"),
        _check_dual_endos),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_fails_its_check(name, monkeypatch):
    module, attr, mutate, check = MUTANTS[name]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    with pytest.raises(AssertionError):
        check()

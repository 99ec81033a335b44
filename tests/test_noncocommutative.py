"""C(S3) and the Kac-Paljutkin algebra H8, noncocommutative inputs, end to
end.

A group algebra is cocommutative, so no certificate over one can tell h_1
from h_2.  Two inputs over H = C(S3) can, and their answers are read off
the group table:

* Depth two.  C(S3) grades Mat3 by deg(E_ij) = g_i g_j^-1 for the elements
  g_0, g_1, g_2 of S3_TABLE.  Mat3 is a factor, so the quantum Galois group
  is H* = CS3: qgal_dim = |S3| = 6.
* Banica.  B = C(S3) coacted on by Delta, A = Mat2 graded by H^cop with the
  labels e and (01), and the ambient CS3 acting on B by translations.
  Lambda(omega) f = f_1 omega(f_2) averages f over right translations, so
  every left translation commutes with it and the centralizer is all of
  CS3 (dim 6); a right translation commutes with every such average only
  at the center of S3 (dim 1).

* H8 is neither commutative nor cocommutative, so it also tells the two
  orders of a product in H apart.  It acts on Mat2 by Ad pi for a
  2-dimensional *-representation pi; Mat2 is a factor, so the quantum Galois
  group of that depth-two inclusion is H8* (qgal_dim = 8).

Each input runs plain and lifted to order 3 by an extra document.
"""

import json

import pytest

from hopfgal.actions import ModuleAlgebraAction, smash_product, validate_action
from hopfgal.algebra import StarAlgebra
from hopfgal.banica import (
    ComoduleAlgebra,
    product_coaction,
    qgal_banica,
    t_q_extraction,
)
from hopfgal.cli import main
from hopfgal.errors import InputError
from hopfgal.galois import canonical_qgal, qgal_fixed_point
from hopfgal.hopf import (
    dual_hopf,
    flip,
    group_inverse,
    haar,
    validate_hopf,
    variants,
)
from hopfgal.linalg import dense_row, unit_vec
from hopfgal.scalars import Scalar
from hopfgal.serialize import Workspace

from builders import (
    S3_TABLE,
    S3_TRANSPOSITION,
    c_of_s3,
    cs3,
    kac_paljutkin,
    kac_paljutkin_adjoint,
    mat_algebra,
)
from make_fixtures import (
    _action_doc,
    _algebra_doc,
    _comodule_doc,
    _hopf_doc,
)

ONE = Scalar.one()


def _grading(H, n: int, labels: list) -> ModuleAlgebraAction:
    """delta_g . E_ij = [g_i g_j^-1 = g] E_ij on Mat_n, g_i = labels[i]."""
    inverse = [group_inverse(S3_TABLE, g) for g in labels]
    deg = [S3_TABLE[labels[i]][inverse[j]] for i in range(n)
           for j in range(n)]
    return ModuleAlgebraAction(
        H, mat_algebra(n), [[{a: ONE} if d == g else {}
                             for a, d in enumerate(deg)]
                            for g in range(H.dim)])


def depth_two_documents() -> dict:
    act = _grading(c_of_s3(), 3, [0, 1, 2])
    return {
        "cofs3": _hopf_doc(act.hopf, "C(S3)"),
        "mat3": _algebra_doc(act.alg, "Mat3"),
        "grading": _action_doc(act, "cofs3", "mat3"),
        "qgal": {"kind": "job", "op": "qgal-depth2", "action": "grading"},
    }


def banica_documents() -> dict:
    H = c_of_s3()
    hcop = variants(H)[1]
    B = ComoduleAlgebra(H, StarAlgebra(H.dim, H.mult, H.unit, H.star),
                        H.comult)
    act = _grading(hcop, 2, [0, S3_TRANSPOSITION])
    # g . delta_x = delta_{g x}, and delta_{x g^-1}
    left = [[{S3_TABLE[g][x]: ONE} for x in range(6)] for g in range(6)]
    right = [[{S3_TABLE[x][group_inverse(S3_TABLE, g)]: ONE}
              for x in range(6)] for g in range(6)]
    docs = {
        "cofs3": _hopf_doc(H, "C(S3)"),
        "cofs3cop": _hopf_doc(hcop, "C(S3)cop"),
        "bs3": _algebra_doc(B.alg, "B"),
        "beta": _comodule_doc(B, "cofs3", "bs3"),
        "mat2": _algebra_doc(act.alg, "Mat2"),
        "grading": _action_doc(act, "cofs3cop", "mat2"),
        "cs3": {"kind": "hopf", "group_table": S3_TABLE, "name": "CS3"},
    }
    for side, planes in (("left", left), ("right", right)):
        docs[side] = _action_doc(ModuleAlgebraAction(cs3(), B.alg, planes),
                                 "cs3", "bs3")
        docs[f"banica-{side}"] = {
            "kind": "job", "op": "qgal-banica", "comodule": "beta",
            "action": "grading", "ambient_hopf": "cs3",
            "ambient_action": side}
    return docs


def kac_paljutkin_documents() -> dict:
    act = kac_paljutkin_adjoint()
    return {
        "kp8": _hopf_doc(act.hopf, "KP8"),
        "mat2": _algebra_doc(act.alg, "Mat2"),
        "adpi": _action_doc(act, "kp8", "mat2"),
        "qgal": {"kind": "job", "op": "qgal-depth2", "action": "adpi"},
    }


def _workspace(docs: dict, order) -> Workspace:
    if order:
        one = {"order": order, "num": [1, 0], "den": 1}
        docs["oddball"] = {"kind": "algebra", "dim": 1, "mult": [[[one]]],
                           "unit": [one], "star": [[1]], "state": None}
    ws = Workspace(docs)
    assert ws.lift_orders() == (order or 1)
    return ws


@pytest.mark.parametrize("order", [None, 3])
def test_depth_two_grading_of_mat3_by_c_of_s3(order):
    act = _workspace(depth_two_documents(), order).get("grading")
    assert validate_action(act).ok
    sp = smash_product(act)
    assert sp.total.dim == 54
    cert = canonical_qgal(sp)
    assert cert.report.ok, cert.report.failed()
    assert cert.qgal.dim == 6
    assert not cert.qgal.is_commutative()
    assert cert.outer_witness.dim == 6
    # A x| H has a 6-dimensional center, so the second level is refused
    with pytest.raises(InputError, match="not a factor: its center has"
                                         " dim 6$"):
        qgal_fixed_point(sp)


def test_depth_two_grading_through_the_cli(tmp_path, capsys):
    path = tmp_path / "grading.json"
    path.write_text(json.dumps({"documents": depth_two_documents()}))
    assert main(["qgal-depth2", "--workspace", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"]
    assert (doc["qgal_dim"], doc["commutant_dim"]) == (6, 6)


@pytest.mark.parametrize("order", [None, 3])
@pytest.mark.parametrize("side, dim", [("left", 6), ("right", 1)])
def test_banica_c_of_s3_centralizer(side, dim, order):
    ws = _workspace(banica_documents(), order)
    data = product_coaction(ws.get("beta"),
                            smash_product(ws.get("grading")))
    assert data.report.ok, data.report.failed()
    result = qgal_banica(data, ws.get("cs3"), ws.get(side))
    assert result.report.ok, result.report.failed()
    assert result.subspace.dim == dim
    assert result.subspace.contains(unit_vec(6, 0))
    _, rep = t_q_extraction(data, result.hopf, result.lifted_action)
    assert rep.ok, rep.failed()


@pytest.mark.parametrize("order", [1, 3])
def test_kac_paljutkin_is_kac_and_neither_commutative_nor_cocommutative(
        order):
    H = kac_paljutkin(order)
    rep = validate_hopf(H)
    assert rep.ok, rep.failed()
    assert H.is_kac()
    assert not H.is_commutative()
    assert flip(H.comult) != H.comult
    # the Haar state is the coefficient of 1
    assert haar(H) == unit_vec(8, 0, order)
    dual = validate_hopf(dual_hopf(H))
    assert dual.ok, dual.failed()


@pytest.mark.parametrize("order", [1, 3])
def test_kac_paljutkin_with_z_self_adjoint_is_no_hopf_star_algebra(order):
    H, one = kac_paljutkin(order), Scalar.one(order)
    # z* = z, so (x^i y^j z)* = z x^i y^j
    for a in (1, 3, 5, 7):
        H.star[a] = dense_row(H.mul_vec({1: one}, {a - 1: one}), 8, order)
    rep = validate_hopf(H)
    # the witness is z, at index 1
    assert [(c.name, c.witness) for c in rep.failed()] == [
        ("coalg:star_reverses_comultiplication", 1),
        ("comult_is_star_morphism", 1),
    ]


@pytest.mark.parametrize("order", [None, 3])
def test_depth_two_adjoint_action_of_kac_paljutkin_on_mat2(order):
    act = _workspace(kac_paljutkin_documents(), order).get("adpi")
    assert validate_action(act).ok
    sp = smash_product(act)
    assert sp.total.dim == 32
    cert = canonical_qgal(sp)
    assert cert.report.ok, cert.report.failed()
    assert cert.qgal.dim == 8
    assert cert.outer_witness.dim == 8
    assert not cert.qgal.is_commutative()
    assert flip(cert.qgal.comult) != cert.qgal.comult


def test_depth_two_kac_paljutkin_through_the_cli(tmp_path, capsys):
    path = tmp_path / "kp8.json"
    path.write_text(json.dumps({"documents": kac_paljutkin_documents()}))
    assert main(["qgal-depth2", "--workspace", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"]
    assert (doc["qgal_dim"], doc["commutant_dim"]) == (8, 8)

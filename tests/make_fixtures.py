"""Ready-made workspace documents for the shipped fixtures.

Each builder returns a plain dict suitable for json.dump; `write_all`
regenerates the fixtures/ directory.  From the repository root:

    PYTHONPATH=src python tests/make_fixtures.py fixtures/
"""

from __future__ import annotations

import json
import os
import sys

from hopfgal.actions import ModuleAlgebraAction
from hopfgal.algebra import StarAlgebra, tensor_algebra
from hopfgal.banica import ComoduleAlgebra
from hopfgal.hopf import HopfStarAlgebra, dual_hopf, group_algebra, variants
from hopfgal.linalg import identity_matrix, unit_vec, vzero
from hopfgal.scalars import Scalar

from builders import (
    K4_TABLE,
    S3_TABLE,
    S3_TRANSPOSITION,
    Z2_TABLE,
    ad_z_action,
    mat_algebra,
    pauli_action,
    translation_action,
)


def _algebra_doc(A: StarAlgebra, name: str = "") -> dict:
    doc = A.to_json()
    doc["kind"] = "algebra"
    if name:
        doc["name"] = name
    return doc


def _hopf_doc(H: HopfStarAlgebra, name: str = "") -> dict:
    doc = H.to_json()
    doc["kind"] = "hopf"
    if name:
        doc["name"] = name
    return doc


def _action_doc(act: ModuleAlgebraAction, hopf_ref: str,
                alg_ref: str) -> dict:
    dense = [
        [[cell.get(k, Scalar.zero()).to_json() for k in range(act.alg.dim)]
         for cell in plane]
        for plane in act.act
    ]
    return {"kind": "action", "hopf": hopf_ref, "alg": alg_ref,
            "act": dense}


def _comodule_doc(com: ComoduleAlgebra, hopf_ref: str,
                  alg_ref: str) -> dict:
    nb, nh = com.alg.dim, com.hopf.dim
    zero = Scalar.zero()
    dense = [
        [[com.coact[i].get((j, k), zero).to_json() for k in range(nh)]
         for j in range(nb)]
        for i in range(nb)
    ]
    return {"kind": "comodule", "hopf": hopf_ref, "alg": alg_ref,
            "coact": dense}


def _subspace_doc(vectors, ambient) -> dict:
    return {"kind": "subspace", "ambient_dim": ambient,
            "basis": [[x.to_json() for x in v] for v in vectors]}


def pauli_workspace() -> dict:
    act = pauli_action()
    return {"documents": {
        "ck4": {"kind": "hopf", "group_table": K4_TABLE, "name": "CK4"},
        "mat2": _algebra_doc(act.alg, "Mat2"),
        "pauli": _action_doc(act, "ck4", "mat2"),
        "qgal": {"kind": "job", "op": "qgal-depth2", "action": "pauli"},
        "smash": {"kind": "job", "op": "smash", "action": "pauli"},
        "check": {"kind": "job", "op": "validate", "target": "pauli"},
        "dualize": {"kind": "job", "op": "dual", "target": "ck4"},
    }}


def z2_workspace() -> dict:
    act = ad_z_action()
    return {"documents": {
        "cz2": {"kind": "hopf", "group_table": Z2_TABLE, "name": "CZ2"},
        "mat2": _algebra_doc(act.alg, "Mat2"),
        "adz": _action_doc(act, "cz2", "mat2"),
        "qgal": {"kind": "job", "op": "qgal-depth2", "action": "adz"},
        "smash": {"kind": "job", "op": "smash", "action": "adz"},
        "measure": {"kind": "job", "op": "measure",
                    "coalgebra": "cz2", "action": "adz"},
    }}


def translation_workspace() -> dict:
    act = translation_action(Z2_TABLE)
    return {"documents": {
        "cz2": {"kind": "hopf", "group_table": Z2_TABLE, "name": "CZ2"},
        "cofz2": _algebra_doc(act.alg, "C(Z2)"),
        "translation": _action_doc(act, "cz2", "cofz2"),
        "smash": {"kind": "job", "op": "smash", "action": "translation"},
    }}


def s3_transposition_workspace() -> dict:
    one = Scalar.one()
    span = [unit_vec(6, 0), unit_vec(6, S3_TRANSPOSITION)]
    # the *-closed subalgebra generated by the transposition
    return {"documents": {
        "cs3": {"kind": "hopf", "group_table": S3_TABLE, "name": "CS3"},
        "transposition": _subspace_doc(span[1:], 6),
        "centralizer": {"kind": "job", "op": "centralizer",
                        "hopf": "cs3", "subspace": "transposition"},
    }}


def broken_hopf_workspace() -> dict:
    bad = group_algebra(S3_TABLE, name="CS3-broken")
    bad.antipode = identity_matrix(6)
    return {"documents": {
        "broken": _hopf_doc(bad, "CS3-broken"),
        "check": {"kind": "job", "op": "validate", "target": "broken"},
    }}


def jones_workspace() -> dict:
    M = tensor_algebra(mat_algebra(2), mat_algebra(2), name="Mat4")
    vectors = []
    for i in range(4):
        v = vzero(16)
        v[i * 4 + 0] = Scalar.one()
        v[i * 4 + 3] = Scalar.one()
        vectors.append(v)
    return {"documents": {
        "mat4": _algebra_doc(M, "Mat4"),
        "mat2": _subspace_doc(vectors, 16),
        "jones": {"kind": "job", "op": "jones",
                  "algebra": "mat4", "subalgebra": "mat2"},
        "commutant": {"kind": "job", "op": "commutant",
                      "algebra": "mat4", "subspace": "mat2"},
    }}


def banica_z2_workspace() -> dict:
    H = group_algebra(Z2_TABLE, name="CZ2")
    # B is the algebra of CZ2 alone: its document holds no coalgebra
    B = ComoduleAlgebra(H, StarAlgebra(H.dim, H.mult, H.unit, H.star),
                        [{(i, i): Scalar.one()} for i in range(2)])
    hcop = variants(H)[1]
    base = ad_z_action()
    act = ModuleAlgebraAction(hcop, base.alg, base.act)
    ambient = dual_hopf(H, name="C(Z2)")
    q_act = ModuleAlgebraAction(
        ambient, B.alg,
        [[{0: Scalar.one()}, {}], [{}, {1: Scalar.one()}]],
    )
    return {"documents": {
        "cz2": _hopf_doc(H, "CZ2"),
        "cz2cop": _hopf_doc(hcop, "CZ2cop"),
        "bz2": _algebra_doc(B.alg, "B"),
        "mat2": _algebra_doc(base.alg, "Mat2"),
        "beta": _comodule_doc(B, "cz2", "bz2"),
        "adz": _action_doc(act, "cz2cop", "mat2"),
        "cofz2": _hopf_doc(ambient, "C(Z2)"),
        "gradeB": _action_doc(q_act, "cofz2", "bz2"),
        "banica": {"kind": "job", "op": "qgal-banica",
                   "comodule": "beta", "action": "adz",
                   "ambient_hopf": "cofz2", "ambient_action": "gradeB"},
    }}


def mixed_order_workspace() -> dict:
    # scalar orders 4 and 3 in one workspace lift to order 12
    alg = mat_algebra(1, name="C")
    doc = _algebra_doc(alg, "C")
    doc["state"] = [{"order": 4, "num": [1, 0], "den": 1}]
    doc2 = _algebra_doc(mat_algebra(1), "C2")
    doc2["state"] = [{"order": 3, "num": [1, 0], "den": 1}]
    return {"documents": {
        "a4": doc,
        "a3": doc2,
        "check": {"kind": "job", "op": "validate", "target": "a4"},
    }}


ALL = {
    "pauli.json": pauli_workspace,
    "z2.json": z2_workspace,
    "translation-z2.json": translation_workspace,
    "s3-transposition.json": s3_transposition_workspace,
    "broken-hopf.json": broken_hopf_workspace,
    "jones-mat2-mat4.json": jones_workspace,
    "banica-z2.json": banica_z2_workspace,
}


def _compact(doc):
    """Rewrite full scalar objects into the accepted int / pair shorthands."""
    if isinstance(doc, dict):
        if set(doc) == {"order", "num", "den"} and doc["order"] == 1:
            if doc["den"] == 1:
                return doc["num"][0]
            return [doc["num"][0], doc["den"]]
        return {k: _compact(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_compact(v) for v in doc]
    return doc


def write_all(directory: str):
    os.makedirs(directory, exist_ok=True)
    for name, builder in sorted(ALL.items()):
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            json.dump(_compact(builder()), fh, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    write_all(sys.argv[1] if len(sys.argv) > 1 else "fixtures")

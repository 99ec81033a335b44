"""Full validator reports, witnesses included, under single-entry corruptions,
and the one way a validator states a law.

Each case adds one to a single entry of a structure table of CS3, of the
comultiplication of C(S3) (not cocommutative, so the two counit laws
differ), of the Pauli action of CK4 on Mat2, of the comodule algebra of the
banica-z2 fixture, or of a CZ2-comodule algebra on Mat2 (noncommutative),
then runs the validators that read that table.
Every check of every report (name, verdict, witness, note) is compared
with values pinned here.  The uncorrupted report of each validator is
pinned once; a case pins only the checks whose entry differs from it, or
the error a validator raised.
"""

import ast
import json
import os
from pathlib import Path

import pytest

from hopfgal import report
from hopfgal.actions import innerify_check, smash_product, validate_action
from hopfgal.banica import lambda_action, product_coaction, validate_comodule
from hopfgal.errors import HopfgalError
from hopfgal.galois import trace_preservation
from hopfgal.hopf import validate_coalgebra, validate_hopf
from hopfgal.scalars import Scalar
from hopfgal.serialize import Workspace

from _oracles import graded_by_conjugation, report_summary
from builders import c_of_s3, cs3, pauli_action

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _bump(table: dict, key):
    table[key] = table.get(key, Scalar.zero()) + Scalar.one()


def _outcome(run, *args):
    try:
        return report_summary(run(*args))
    except HopfgalError as e:
        return ("raises", type(e).__name__, str(e))


def _hopf_reports(make, table: str, at: tuple) -> dict:
    H = make()
    if table == "mult":
        i, j, k = at
        _bump(H.mult[i][j], k)
    elif table == "comult":
        i, jk = at
        _bump(H.comult[i], jk)
    elif table:
        rows = {"counit": [H.counit], "antipode": H.antipode,
                "star": H.star}[table]
        i, j = at
        rows[i][j] = rows[i][j] + Scalar.one()
    return {"validate_hopf": _outcome(validate_hopf, H),
            "validate_coalgebra": _outcome(validate_coalgebra, H.coalgebra)}


def _pauli_reports(at: tuple) -> dict:
    act = pauli_action()
    if at:
        h, a, b = at
        _bump(act.act[h][a], b)
    return {
        "validate_action": _outcome(validate_action, act),
        "innerify_check": _outcome(
            lambda: innerify_check(smash_product(act, validate=False))),
        "trace_preservation": _outcome(trace_preservation, act),
    }


def _mat2_reports(at: tuple) -> dict:
    with open(os.path.join(FIXTURES, "banica-z2.json")) as fh:
        docs = json.load(fh)["documents"]
    graded_by_conjugation(docs)
    B = Workspace(docs).get("beta2", ("comodule",))
    if at:
        i, jk = at
        _bump(B.coact[i], jk)
    return {"validate_comodule": _outcome(validate_comodule, B)}


def _banica_reports(table: str, at: tuple) -> dict:
    ws = Workspace.load(os.path.join(FIXTURES, "banica-z2.json"))
    B = ws.get("beta", ("comodule",))
    if table == "coact":
        i, jk = at
        _bump(B.coact[i], jk)
    elif table == "antipode":
        # negated, so that S stays involutive and the comodule valid
        i, j = at
        B.hopf.antipode[i][j] = -B.hopf.antipode[i][j]
    sp = smash_product(ws.get("adz", ("action",)))
    return {
        "validate_comodule": _outcome(validate_comodule, B),
        "product_coaction": _outcome(
            lambda: product_coaction(B, sp).report),
        "lambda_action": _outcome(lambda: lambda_action(B)[1]),
    }


CASES = {
    **{f"cs3 mult{at}": (_hopf_reports, cs3, "mult", at)
       for at in [(1, 2, 3), (4, 4, 0), (0, 5, 5), (3, 1, 2)]},
    **{f"cs3 comult{at}": (_hopf_reports, cs3, "comult", at)
       for at in [(2, (2, 2)), (3, (0, 1)), (5, (5, 5)), (0, (1, 1))]},
    # the right counit law alone breaks at (1, (1, 0)), the left alone at
    # (1, (0, 1))
    **{f"cofs3 comult{at}": (_hopf_reports, c_of_s3, "comult", at)
       for at in [(1, (1, 0)), (1, (0, 1)), (2, (3, 4)), (4, (0, 0))]},
    **{f"cs3 {table}{at}": (_hopf_reports, cs3, table, at)
       for table, at in [("counit", (0, 0)), ("counit", (0, 3)),
                         ("antipode", (1, 1)), ("antipode", (4, 2)),
                         ("star", (2, 4)), ("star", (0, 0))]},
    **{f"pauli act{at}": (_pauli_reports, at)
       for at in [(1, 1, 2), (2, 0, 0), (3, 3, 1), (0, 2, 2), (1, 0, 3),
                  (3, 2, 1)]},
    **{f"banica coact{at}": (_banica_reports, "coact", at)
       for at in [(0, (0, 0)), (1, (0, 1)), (1, (1, 1)), (0, (1, 0))]},
    **{f"banica -antipode{at}": (_banica_reports, "antipode", at)
       for at in [(1, 1), (0, 0)]},
    **{f"mat2 coact{at}": (_mat2_reports, at)
       for at in [(0, (0, 0)), (1, (2, 1)), (2, (1, 0)), (3, (3, 1))]},
}

CLEAN = {
    "cs3": lambda: _hopf_reports(cs3, None, None),
    "cofs3": lambda: _hopf_reports(c_of_s3, None, None),
    "pauli": lambda: _pauli_reports(()),
    "banica": lambda: _banica_reports(None, None),
    "mat2": lambda: _mat2_reports(()),
}


def _diff(outcome, clean):
    """The checks of outcome that differ from clean, or outcome itself
    when a validator raised."""
    if outcome[0] == "raises":
        return outcome
    title, checks = outcome
    assert title == clean[0]
    assert [c[0] for c in checks] == [c[0] for c in clean[1]]
    return {c[0]: c[1:] for c, d in zip(checks, clean[1]) if c != d}


# -- pinned values ------------------------------------------------------------

LAMBDA_NOTE = "Lambda(omega * omega') = Lambda(omega) Lambda(omega')"
KAC_NOTE = "S^2 = id is a flag consumed downstream, not an axiom"

CLEAN_PINS = {
    "banica": {
        "lambda_action": ("canonical dual action on B", [
            ("convolution_matches_composition", True, None, LAMBDA_NOTE),
            ("counit_acts_as_identity", True, None, None),
        ]),
        "product_coaction": ("product coaction", [
            ("comodule:coassociative", True, None, None),
            ("comodule:counital", True, None, None),
            ("comodule:coaction_multiplicative", True, None, None),
            ("comodule:coaction_unital", True, None, None),
            ("coassociative_for_cop", True, None, None),
            ("counital", True, None, None),
            ("invariants_subalgebra", True, None, None),
            ("A_embeds_in_invariants", True, None, None),
            ("expectation_image_is_invariants", True, None, None),
            ("expectation_idempotent", True, None, None),
            ("expectation_bimodular", True, None, None),
            ("haar_swap_identity", True, None, None),
            ("coaction_legs_13_invariant", True, None, None),
        ]),
        "validate_comodule": ("comodule algebra", [
            ("coassociative", True, None, None),
            ("counital", True, None, None),
            ("coaction_multiplicative", True, None, None),
            ("coaction_unital", True, None, None),
        ]),
    },
    "cofs3": {
        "validate_coalgebra": ("coalgebra", [
            ("coassociativity", True, None, None),
            ("counit", True, None, None),
            ("star_reverses_comultiplication", True, None, None),
        ]),
        "validate_hopf": ("hopf C(S3)", [
            ("alg:associativity", True, None, None),
            ("alg:unit", True, None, None),
            ("alg:star_involutive", True, None, None),
            ("alg:star_antimultiplicative", True, None, None),
            ("coalg:coassociativity", True, None, None),
            ("coalg:counit", True, None, None),
            ("coalg:star_reverses_comultiplication", True, None, None),
            ("comult_is_algebra_morphism", True, None, None),
            ("comult_unital", True, None, None),
            ("counit_is_algebra_morphism", True, None, None),
            ("counit_unital", True, None, None),
            ("comult_is_star_morphism", True, None, None),
            ("antipode_axiom", True, None, None),
            ("star_antipode_involution", True, None, None),
            ("antipode_invertible", True, None, None),
            ("kac_flag_recorded", True, {"kac": True}, KAC_NOTE),
        ]),
    },
    "cs3": {
        "validate_coalgebra": ("coalgebra", [
            ("coassociativity", True, None, None),
            ("counit", True, None, None),
            ("star_reverses_comultiplication", True, None, None),
        ]),
        "validate_hopf": ("hopf CS3", [
            ("alg:associativity", True, None, None),
            ("alg:unit", True, None, None),
            ("alg:star_involutive", True, None, None),
            ("alg:star_antimultiplicative", True, None, None),
            ("coalg:coassociativity", True, None, None),
            ("coalg:counit", True, None, None),
            ("coalg:star_reverses_comultiplication", True, None, None),
            ("comult_is_algebra_morphism", True, None, None),
            ("comult_unital", True, None, None),
            ("counit_is_algebra_morphism", True, None, None),
            ("counit_unital", True, None, None),
            ("comult_is_star_morphism", True, None, None),
            ("antipode_axiom", True, None, None),
            ("star_antipode_involution", True, None, None),
            ("antipode_invertible", True, None, None),
            ("kac_flag_recorded", True, {"kac": True}, KAC_NOTE),
        ]),
    },
    "pauli": {
        "innerify_check": ("innerification", [
            ("convolution_inverse", True, None, None),
            ("innerification_identity", True, None, None),
        ]),
        "trace_preservation": ("trace preservation", [
            ("state_invariant", True, None, None),
        ]),
        "validate_action": ("action", [
            ("module_axiom", True, None, None),
            ("unit_acts_trivially", True, None, None),
            ("measuring", True, None, None),
            ("unit_preserved", True, None, None),
            ("star_compatibility", True, None, None),
        ]),
    },
    "mat2": {
        "validate_comodule": ("comodule algebra", [
            ("coassociative", True, None, None),
            ("counital", True, None, None),
            ("coaction_multiplicative", True, None, None),
            ("coaction_unital", True, None, None),
        ]),
    },
}

PINS = {
    "banica -antipode(0, 0)": {
        "lambda_action": {},
        "product_coaction": ("raises", "InputError",
            "the smash product is not over H^cop"),
        "validate_comodule": {},
    },
    "banica -antipode(1, 1)": {
        "lambda_action": {},
        "product_coaction": ("raises", "InputError",
            "the smash product is not over H^cop"),
        "validate_comodule": {},
    },
    "banica coact(0, (0, 0))": {
        "lambda_action": {
            "convolution_matches_composition": (False, (0, 0), LAMBDA_NOTE),
            "counit_acts_as_identity": (False, 0, None),
        },
        "product_coaction": ("raises", "InputError",
            "comodule invalid at coassociative"),
        "validate_comodule": {
            "coassociative": (False, 0, None),
            "counital": (False, 0, None),
            "coaction_multiplicative": (False, (0, 0), None),
            "coaction_unital": (False, None, None),
        },
    },
    "banica coact(0, (1, 0))": {
        "lambda_action": {
            "convolution_matches_composition": (False, (1, 0), LAMBDA_NOTE),
            "counit_acts_as_identity": (False, 0, None),
        },
        "product_coaction": ("raises", "InputError",
            "comodule invalid at coassociative"),
        "validate_comodule": {
            "coassociative": (False, 0, None),
            "counital": (False, 0, None),
            "coaction_multiplicative": (False, (0, 0), None),
            "coaction_unital": (False, None, None),
        },
    },
    "banica coact(1, (0, 1))": {
        "lambda_action": {
            "convolution_matches_composition": (False, (0, 1), LAMBDA_NOTE),
            "counit_acts_as_identity": (False, 1, None),
        },
        "product_coaction": ("raises", "InputError",
            "comodule invalid at coassociative"),
        "validate_comodule": {
            "coassociative": (False, 1, None),
            "counital": (False, 1, None),
            "coaction_multiplicative": (False, (1, 1), None),
        },
    },
    "banica coact(1, (1, 1))": {
        "lambda_action": {
            "convolution_matches_composition": (False, (1, 1), LAMBDA_NOTE),
            "counit_acts_as_identity": (False, 1, None),
        },
        "product_coaction": ("raises", "InputError",
            "comodule invalid at coassociative"),
        "validate_comodule": {
            "coassociative": (False, 1, None),
            "counital": (False, 1, None),
            "coaction_multiplicative": (False, (1, 1), None),
        },
    },
    "cofs3 comult(1, (0, 1))": {
        "validate_coalgebra": {
            "coassociativity": (False, 0, None),
            "counit": (False, 1, None),
            "star_reverses_comultiplication": (False, 1, None),
        },
        "validate_hopf": {
            "coalg:coassociativity": (False, 0, None),
            "coalg:counit": (False, 1, None),
            "coalg:star_reverses_comultiplication": (False, 1, None),
            "comult_is_algebra_morphism": (False, (1, 1), None),
            "comult_unital": (False, None, None),
        },
    },
    "cofs3 comult(1, (1, 0))": {
        "validate_coalgebra": {
            "coassociativity": (False, 0, None),
            "counit": (False, 1, None),
            "star_reverses_comultiplication": (False, 1, None),
        },
        "validate_hopf": {
            "coalg:coassociativity": (False, 0, None),
            "coalg:counit": (False, 1, None),
            "coalg:star_reverses_comultiplication": (False, 1, None),
            "comult_is_algebra_morphism": (False, (1, 1), None),
            "comult_unital": (False, None, None),
        },
    },
    "cofs3 comult(2, (3, 4))": {
        "validate_coalgebra": {
            "coassociativity": (False, 0, None),
            "star_reverses_comultiplication": (False, 2, None),
        },
        "validate_hopf": {
            "coalg:coassociativity": (False, 0, None),
            "coalg:star_reverses_comultiplication": (False, 2, None),
            "comult_is_algebra_morphism": (False, (2, 2), None),
            "comult_unital": (False, None, None),
        },
    },
    "cofs3 comult(4, (0, 0))": {
        "validate_coalgebra": {
            "coassociativity": (False, 0, None),
            "counit": (False, 4, None),
            "star_reverses_comultiplication": (False, 4, None),
        },
        "validate_hopf": {
            "coalg:coassociativity": (False, 0, None),
            "coalg:counit": (False, 4, None),
            "coalg:star_reverses_comultiplication": (False, 4, None),
            "comult_is_algebra_morphism": (False, (0, 4), None),
            "comult_unital": (False, None, None),
            "antipode_axiom": (False, 4, None),
        },
    },
    "cs3 antipode(1, 1)": {
        "validate_coalgebra": {
            "star_reverses_comultiplication": (False, 1, None),
        },
        "validate_hopf": {
            "coalg:star_reverses_comultiplication": (False, 1, None),
            "antipode_axiom": (False, 1, None),
            "star_antipode_involution": (False, 1, None),
            "kac_flag_recorded": (True, {"kac": False}, KAC_NOTE),
        },
    },
    "cs3 antipode(4, 2)": {
        "validate_coalgebra": {
            "star_reverses_comultiplication": (False, 4, None),
        },
        "validate_hopf": {
            "coalg:star_reverses_comultiplication": (False, 4, None),
            "antipode_axiom": (False, 4, None),
            "star_antipode_involution": (False, 4, None),
            "kac_flag_recorded": (True, {"kac": False}, KAC_NOTE),
        },
    },
    "cs3 comult(0, (1, 1))": {
        "validate_coalgebra": {
            "coassociativity": (False, 0, None),
            "counit": (False, 0, None),
        },
        "validate_hopf": {
            "coalg:coassociativity": (False, 0, None),
            "coalg:counit": (False, 0, None),
            "comult_is_algebra_morphism": (False, (0, 0), None),
            "comult_unital": (False, None, None),
            "antipode_axiom": (False, 0, None),
        },
    },
    "cs3 comult(2, (2, 2))": {
        "validate_coalgebra": {
            "counit": (False, 2, None),
        },
        "validate_hopf": {
            "coalg:counit": (False, 2, None),
            "comult_is_algebra_morphism": (False, (1, 2), None),
            "antipode_axiom": (False, 2, None),
        },
    },
    "cs3 comult(3, (0, 1))": {
        "validate_coalgebra": {
            "coassociativity": (False, 3, None),
            "counit": (False, 3, None),
            "star_reverses_comultiplication": (False, 3, None),
        },
        "validate_hopf": {
            "coalg:coassociativity": (False, 3, None),
            "coalg:counit": (False, 3, None),
            "coalg:star_reverses_comultiplication": (False, 3, None),
            "comult_is_algebra_morphism": (False, (1, 3), None),
            "antipode_axiom": (False, 3, None),
        },
    },
    "cs3 comult(5, (5, 5))": {
        "validate_coalgebra": {
            "counit": (False, 5, None),
        },
        "validate_hopf": {
            "coalg:counit": (False, 5, None),
            "comult_is_algebra_morphism": (False, (1, 2), None),
            "comult_is_star_morphism": (False, 4, None),
            "antipode_axiom": (False, 5, None),
        },
    },
    "cs3 counit(0, 0)": {
        "validate_coalgebra": {
            "counit": (False, 0, None),
        },
        "validate_hopf": {
            "coalg:counit": (False, 0, None),
            "counit_is_algebra_morphism": (False, (0, 0), None),
            "counit_unital": (False, None, None),
            "antipode_axiom": (False, 0, None),
        },
    },
    "cs3 counit(0, 3)": {
        "validate_coalgebra": {
            "counit": (False, 3, None),
        },
        "validate_hopf": {
            "coalg:counit": (False, 3, None),
            "counit_is_algebra_morphism": (False, (1, 3), None),
            "antipode_axiom": (False, 3, None),
        },
    },
    "cs3 mult(0, 5, 5)": {
        "validate_coalgebra": {},
        "validate_hopf": {
            "alg:associativity": (False, (0, 0, 5), None),
            "alg:unit": (False, 5, None),
            "alg:star_antimultiplicative": (False, (0, 5), None),
            "comult_is_algebra_morphism": (False, (0, 5), None),
            "counit_is_algebra_morphism": (False, (0, 5), None),
        },
    },
    "cs3 mult(1, 2, 3)": {
        "validate_coalgebra": {},
        "validate_hopf": {
            "alg:associativity": (False, (1, 1, 2), None),
            "alg:star_antimultiplicative": (False, (1, 2), None),
            "comult_is_algebra_morphism": (False, (1, 2), None),
            "counit_is_algebra_morphism": (False, (1, 2), None),
        },
    },
    "cs3 mult(3, 1, 2)": {
        "validate_coalgebra": {},
        "validate_hopf": {
            "alg:associativity": (False, (1, 3, 1), None),
            "alg:star_antimultiplicative": (False, (1, 3), None),
            "comult_is_algebra_morphism": (False, (3, 1), None),
            "counit_is_algebra_morphism": (False, (3, 1), None),
        },
    },
    "cs3 mult(4, 4, 0)": {
        "validate_coalgebra": {},
        "validate_hopf": {
            "alg:associativity": (False, (1, 3, 4), None),
            "alg:star_antimultiplicative": (False, (4, 4), None),
            "comult_is_algebra_morphism": (False, (4, 4), None),
            "counit_is_algebra_morphism": (False, (4, 4), None),
        },
    },
    "cs3 star(0, 0)": {
        "validate_coalgebra": {
            "star_reverses_comultiplication": (False, 0, None),
        },
        "validate_hopf": {
            "alg:star_involutive": (False, 0, None),
            "alg:star_antimultiplicative": (False, (0, 0), None),
            "coalg:star_reverses_comultiplication": (False, 0, None),
            "comult_is_star_morphism": (False, 0, None),
            "star_antipode_involution": (False, 0, None),
        },
    },
    "cs3 star(2, 4)": {
        "validate_coalgebra": {
            "star_reverses_comultiplication": (False, 2, None),
        },
        "validate_hopf": {
            "alg:star_involutive": (False, 2, None),
            "alg:star_antimultiplicative": (False, (1, 2), None),
            "coalg:star_reverses_comultiplication": (False, 2, None),
            "comult_is_star_morphism": (False, 2, None),
            "star_antipode_involution": (False, 2, None),
        },
    },
    "pauli act(0, 2, 2)": {
        "innerify_check": {},
        "trace_preservation": {},
        "validate_action": {
            "module_axiom": (False, (0, 0, 2), None),
            "unit_acts_trivially": (False, 2, None),
            "measuring": (False, (0, 1, 2), None),
            "star_compatibility": (False, (0, 1), None),
        },
    },
    "pauli act(1, 0, 3)": {
        "innerify_check": {
            "convolution_inverse": (False, 1, None),
        },
        "trace_preservation": {
            "state_invariant": (False, (1, 0), None),
        },
        "validate_action": {
            "module_axiom": (False, (1, 1, 0), None),
            "measuring": (False, (1, 0, 0), None),
            "unit_preserved": (False, 1, None),
        },
    },
    "pauli act(1, 1, 2)": {
        "innerify_check": {},
        "trace_preservation": {},
        "validate_action": {
            "module_axiom": (False, (1, 1, 1), None),
            "measuring": (False, (1, 1, 2), None),
            "star_compatibility": (False, (1, 1), None),
        },
    },
    "pauli act(2, 0, 0)": {
        "innerify_check": {
            "convolution_inverse": (False, 2, None),
        },
        "trace_preservation": {
            "state_invariant": (False, (2, 0), None),
        },
        "validate_action": {
            "module_axiom": (False, (1, 2, 0), None),
            "measuring": (False, (2, 0, 0), None),
            "unit_preserved": (False, 2, None),
        },
    },
    "pauli act(3, 2, 1)": {
        "innerify_check": {},
        "trace_preservation": {},
        "validate_action": {
            "module_axiom": (False, (1, 2, 2), None),
            "measuring": (False, (3, 1, 2), None),
            "star_compatibility": (False, (3, 1), None),
        },
    },
    "pauli act(3, 3, 1)": {
        "innerify_check": {
            "convolution_inverse": (False, 3, None),
        },
        "trace_preservation": {},
        "validate_action": {
            "module_axiom": (False, (1, 2, 3), None),
            "measuring": (False, (3, 1, 3), None),
            "unit_preserved": (False, 3, None),
            "star_compatibility": (False, (3, 3), None),
        },
    },
    # Mat2 is noncommutative, so a coaction whose legs are multiplied in
    # the wrong order shows here, as it cannot on the commutative B above
    "mat2 coact(0, (0, 0))": {
        "validate_comodule": {
            "coassociative": (False, 0, None),
            "counital": (False, 0, None),
            "coaction_multiplicative": (False, (0, 0), None),
            "coaction_unital": (False, None, None),
        },
    },
    "mat2 coact(1, (2, 1))": {
        "validate_comodule": {
            "coassociative": (False, 0, None),
            "counital": (False, 1, None),
            "coaction_multiplicative": (False, (0, 1), None),
        },
    },
    "mat2 coact(2, (1, 0))": {
        "validate_comodule": {
            "coassociative": (False, 2, None),
            "counital": (False, 2, None),
            "coaction_multiplicative": (False, (0, 2), None),
        },
    },
    "mat2 coact(3, (3, 1))": {
        "validate_comodule": {
            "coassociative": (False, 2, None),
            "counital": (False, 3, None),
            "coaction_multiplicative": (False, (0, 3), None),
            "coaction_unital": (False, None, None),
        },
    },
}


def test_clean_reports_are_pinned():
    for family, make in CLEAN.items():
        assert make() == CLEAN_PINS[family], family


@pytest.mark.parametrize("case", sorted(CASES))
def test_corrupted_reports_are_pinned(case):
    make, *args = CASES[case]
    clean = CLEAN_PINS[case.split()[0]]
    got = {name: _diff(outcome, clean[name])
           for name, outcome in make(*args).items()}
    assert got == PINS[case]


def _is_none_test(node) -> bool:
    return (isinstance(node, ast.Compare)
            and isinstance(node.ops[0], ast.Is)
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None)


def test_laws_are_stated_through_report_law():
    # a first-witness search is Report.law over a generator of failing
    # cases; only Report.law itself turns a witness into a verdict
    offenders = []
    for path in sorted(Path(report.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = {id(n) for law in ast.walk(tree)
                  if isinstance(law, ast.FunctionDef) and law.name == "law"
                  and path.name == "report.py" for n in ast.walk(law)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "witness"
                    for t in node.targets) \
                    and isinstance(node.value, ast.Constant) \
                    and node.value.value is None:
                offenders.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "add" \
                    and any(map(_is_none_test, node.args)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []

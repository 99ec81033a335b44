"""Workspace parsing, CLI subcommands, exit codes, deterministic output."""

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import re
import time
from functools import partial

import pytest

from hopfgal.cli import main
from hopfgal.errors import InputError
from hopfgal.linalg import Subspace
from hopfgal.scalars import Scalar
from hopfgal.serialize import Workspace

from _oracles import c_of_s4_within, graded_by_conjugation
from make_fixtures import (
    ALL,
    jones_workspace,
    write_all,
)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    write_all(str(d))
    return d


def _run(op, workspace, out=None, job=None):
    argv = [op, "--workspace", str(workspace)]
    if out:
        argv += ["--out", str(out)]
    if job:
        argv += ["--job", job]
    return main(argv)


def test_regenerated_fixtures_match_the_shipped_files(fixture_dir):
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
    assert sorted(os.listdir(fixture_dir)) == sorted(os.listdir(shipped))
    for name in sorted(os.listdir(shipped)):
        with open(os.path.join(shipped, name), "rb") as fh:
            assert (fixture_dir / name).read_bytes() == fh.read(), name


def test_pauli_workspace_resolves(fixture_dir):
    ws = Workspace.load(str(fixture_dir / "pauli.json"))
    assert ws.kinds["pauli"] == "action"
    act = ws.get("pauli")
    assert act.hopf.dim == 4 and act.alg.dim == 4


def _z3_with(edit):
    """A validate workspace of C[Z3] with edit applied to its document."""
    from hopfgal.hopf import group_algebra

    doc = group_algebra([[0, 1, 2], [1, 2, 0], [2, 0, 1]]).to_json()
    edit(doc)
    return {"documents": {"z3": {"kind": "hopf", **doc},
                          "check": {"kind": "job", "op": "validate",
                                    "target": "z3"}}}


_ZERO = {"order": 1, "num": [0], "den": 1}
_ONE = {"order": 1, "num": [1], "den": 1}
_BAD_SHAPES = {
    "star-row-short": (lambda d: d["star"][1].pop(), "z3.star[1]"),
    "star-row-long": (lambda d: d["star"][1].append(_ZERO), "z3.star[1]"),
    "antipode-row-short": (lambda d: d["antipode"][2].pop(),
                           "z3.antipode[2]"),
    "antipode-row-long": (lambda d: d["antipode"][2].append(_ONE),
                          "z3.antipode[2]"),
    "antipode-extra-row": (lambda d: d["antipode"].append([_ZERO] * 3),
                           "z3.antipode"),
    "comult-extra-zero-row": (lambda d: d["comult"][0].append([_ZERO] * 3),
                              "z3.comult[0]"),
    "comult-extra-row": (lambda d: d["comult"][0].append([_ONE] * 3),
                         "z3.comult[0]"),
    "comult-extra-entry": (lambda d: d["comult"][1][1].append(_ONE),
                           "z3.comult[1][1]"),
    "comult-short-entry": (lambda d: d["comult"][1][1].pop(),
                           "z3.comult[1][1]"),
    "comult-extra-plane": (lambda d: d["comult"].append(d["comult"][0]),
                           "z3.comult"),
    "comult-not-an-array": (lambda d: d.update(comult=5), "z3.comult"),
    "comult-plane-not-an-array": (lambda d: d["comult"].__setitem__(0, 5),
                                  "z3.comult[0]"),
    "mult-line-not-an-array": (lambda d: d["mult"][2].__setitem__(1, 5),
                               "z3.mult[2][1]"),
    "star-not-an-array": (lambda d: d.update(star=5), "z3.star"),
}


@pytest.mark.parametrize("case", sorted(_BAD_SHAPES))
def test_bad_table_shapes_exit_2_naming_the_field(case, tmp_path, capsys):
    # a star, antipode or comult table of the wrong shape is bad input,
    # not a failed certificate or a traceback
    edit, field = _BAD_SHAPES[case]
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(_z3_with(edit)))
    assert _run("validate", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and field + ":" in err


def _fixture_with(fname, name, edit):
    """A shipped workspace with edit applied to its document name, or to
    its documents when name is None."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                           fname)) as fh:
        doc = json.load(fh)
    docs = doc["documents"]
    edit(docs if name is None else docs[name])
    return doc


def _line(table, i, j, edit):
    return lambda d: edit(d[table][i][j])


# act (2 x 4 x 4) on the z2 smash job and coact (2 x 2 x 2) on the
# banica-z2 job: (workspace, op, document, edit, field named)
_BAD_TENSORS = {
    f"{table}-{case}": (fname, op, name, edit, f"{name}.{table}{at}")
    for table, fname, op, name in [("act", "z2.json", "smash", "adz"),
                                   ("coact", "banica-z2.json", "qgal-banica",
                                    "beta")]
    for case, edit, at in [
        ("not-an-array", lambda d, t=table: d.update({t: 5}), ""),
        ("plane-not-an-array",
         lambda d, t=table: d[t].__setitem__(0, 5), "[0]"),
        ("extra-plane", lambda d, t=table: d[t].append(d[t][0]), ""),
        ("extra-nonzero-entry", _line(table, 1, 1, lambda x: x.append(1)),
         "[1][1]"),
        ("extra-zero-entry", _line(table, 1, 1, lambda x: x.append(0)),
         "[1][1]"),
        ("short-line", _line(table, 1, 1, list.pop), "[1][1]"),
        ("extra-line", lambda d, t=table: d[t][1].append(d[t][1][0]),
         "[1]"),
    ]
}


@pytest.mark.parametrize("case", sorted(_BAD_TENSORS))
def test_bad_act_and_coact_shapes_exit_2_naming_the_field(case, tmp_path,
                                                          capsys):
    fname, op, name, edit, field = _BAD_TENSORS[case]
    path = tmp_path / fname
    path.write_text(json.dumps(_fixture_with(fname, name, edit)))
    assert _run(op, path) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and field + ":" in err


def _drop(key):
    return lambda d: d.pop(key)


def _add_pairing(matrix):
    return lambda docs: docs.update(pairing={
        "kind": "pairing", "q": "cz2", "h": "cz2", "matrix": matrix})


# a field missing, of the wrong type or of the wrong shape: (workspace, op,
# document, or None for all of them, edit, what the error says)
_BAD_FIELDS = {
    "action-without-act": ("z2.json", "smash", "adz", _drop("act"),
                           "adz: missing field 'act'"),
    "algebra-without-mult": ("z2.json", "smash", "mat2", _drop("mult"),
                             "mat2: missing field 'mult'"),
    "algebra-dim-not-an-integer": (
        "z2.json", "smash", "mat2", lambda d: d.update(dim="four"),
        "mat2.dim: expected an integer"),
    "subspace-without-ambient-dim": (
        "s3-transposition.json", "centralizer", "transposition",
        _drop("ambient_dim"), "transposition: missing field 'ambient_dim'"),
    "subspace-ambient-dim-not-an-integer": (
        "s3-transposition.json", "centralizer", "transposition",
        lambda d: d.update(ambient_dim="x"),
        "transposition.ambient_dim: expected an integer"),
    "group-table-not-an-array": (
        "z2.json", "smash", "cz2", lambda d: d.update(group_table=5),
        "cz2.group_table: expected an array"),
    "group-table-entry-not-an-integer": (
        "z2.json", "smash", "cz2",
        lambda d: d["group_table"][1].__setitem__(0, "one"),
        "cz2.group_table[1][0]: expected an integer"),
    "reference-not-a-name": ("z2.json", "smash", "adz",
                             lambda d: d.update(hopf=["cz2"]),
                             "adz.hopf: dangling reference"),
    "subspace-basis-row-long": (
        "s3-transposition.json", "centralizer", "transposition",
        lambda d: d["basis"][0].append(0),
        "transposition.basis[0]: expected 6 entries"),
    "group-table-ragged": (
        "z2.json", "smash", "cz2", lambda d: d["group_table"][1].append(0),
        "cz2.group_table[1]: expected 2 entries"),
    "pairing-matrix-short-row": (
        "z2.json", "smash", None, _add_pairing([[1, 0], [0]]),
        "pairing.matrix[1]: expected 2 entries"),
    "pairing-matrix-extra-row": (
        "z2.json", "smash", None, _add_pairing([[1, 0], [0, 1], [0, 0]]),
        "pairing.matrix: expected 2 rows"),
}


@pytest.mark.parametrize("case", sorted(_BAD_FIELDS))
def test_missing_or_ill_typed_fields_exit_2_naming_the_field(case, tmp_path,
                                                             capsys):
    fname, op, name, edit, message = _BAD_FIELDS[case]
    path = tmp_path / fname
    path.write_text(json.dumps(_fixture_with(fname, name, edit)))
    assert _run(op, path) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


@pytest.mark.parametrize("doc", [[], {}, {"documents": 5},
                                 {"documents": {"x": 5}}])
def test_workspace_that_is_not_documents_is_input_error(doc, tmp_path,
                                                        capsys):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert _run("validate", path) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_dangling_reference_detected(tmp_path):
    doc = {"documents": {
        "act": {"kind": "action", "hopf": "missing", "alg": "also-missing",
                "act": []},
    }}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="dangling reference 'missing'"):
        Workspace.load(str(path))


def test_mixed_orders_lift_to_lcm(tmp_path):
    from make_fixtures import mixed_order_workspace

    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(mixed_order_workspace()))
    ws = Workspace.load(str(path))
    target = ws.lift_orders()
    assert target == 12
    assert ws.get("a4").state[0].order == 12


@pytest.mark.parametrize("orders", [(10 ** 9, 3), (991, 997)])
def test_scalar_orders_above_the_bound_exit_2(tmp_path, orders):
    # both are refused on the raw documents: no context is built for the
    # declared orders, and nothing is lifted to their lcm (988,027)
    from hopfgal.scalars import _context
    from make_fixtures import mixed_order_workspace

    doc = mixed_order_workspace()
    for name, order in zip(("a4", "a3"), orders):
        doc["documents"][name]["state"][0]["order"] = order
    path = tmp_path / "orders.json"
    path.write_text(json.dumps(doc))
    contexts = _context.cache_info().currsize
    assert _run("validate", path, job="check") == 2
    assert _context.cache_info().currsize == contexts


def test_qgal_depth2_pauli_exit_zero(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    code = _run("qgal-depth2", fixture_dir / "pauli.json", out, job="qgal")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["qgal_dim"] == 4
    assert doc["outer"] is False
    assert doc["commutant_dim"] == 4


def test_validate_broken_hopf_exit_one(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    code = _run("validate", fixture_dir / "broken-hopf.json", out)
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    failures = [c for c in doc["report"]["checks"] if not c["passed"]]
    assert any(c["name"] == "antipode_axiom" for c in failures)
    witnessed = [c for c in failures if c.get("witness") is not None]
    assert witnessed


def test_centralizer_s3(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    code = _run("centralizer", fixture_dir / "s3-transposition.json", out)
    assert code == 0
    doc = json.loads(out.read_text())
    basis = doc["centralizer"]["basis"]
    assert doc["centralizer"]["dim"] == 2
    # span{e, (01)}: rows of the canonical echelon basis
    nonzero = [
        [i for i, x in enumerate(row) if x["num"] != [0]] for row in basis
    ]
    assert nonzero == [[0], [1]]


def test_jones_job_values(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    code = _run("jones", fixture_dir / "jones-mat2-mat4.json", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["index"] == {"num": 4, "den": 1}
    assert doc["dims"]["m1"] == 64
    assert doc["dims"]["bimodule_endos"] == 16
    assert doc["dims"]["n_commutant_cap_m1"] == 16


def test_smash_emits_innerify_certificate(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    code = _run("smash", fixture_dir / "z2.json", out, job="smash")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["innerify_certificate"]["passed"] is True
    assert doc["smash"]["dim"] == 8


def test_measure_job(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    code = _run("measure", fixture_dir / "z2.json", out, job="measure")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["subcoalgebra"]["dim"] == 2  # the whole of CZ2 measures


def test_qgal_banica_job(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    code = _run("qgal-banica", fixture_dir / "banica-z2.json", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["centralizer_basis"]["dim"] == 2
    assert doc["passed"] is True


def test_deterministic_output(fixture_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert _run("centralizer", fixture_dir / "s3-transposition.json", a) == 0
    assert _run("centralizer", fixture_dir / "s3-transposition.json", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_job_is_input_error(fixture_dir, capsys):
    code = _run("jones", fixture_dir / "pauli.json")
    assert code == 2
    assert "no job with op" in capsys.readouterr().err


def test_wrong_job_op_is_input_error(fixture_dir, capsys):
    code = _run("jones", fixture_dir / "pauli.json", job="qgal")
    assert code == 2


def test_garbage_workspace_is_input_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert _run("validate", path) == 2
    path2 = tmp_path / "missing-kind.json"
    path2.write_text(json.dumps({"documents": {"x": {"dim": 1}}}))
    assert _run("validate", path2) == 2


def test_max_dim_guard(tmp_path, monkeypatch):
    monkeypatch.setenv("HOPFGAL_MAX_DIM", "8")
    path = tmp_path / "big.json"
    path.write_text(json.dumps(jones_workspace()))
    code = _run("jones", path)
    assert code == 2
    monkeypatch.setenv("HOPFGAL_MAX_DIM", "not-a-number")
    assert _run("jones", path) == 2


def test_max_dim_guard_covers_group_tables(tmp_path, monkeypatch, capsys):
    z5 = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    path = tmp_path / "z5.json"
    path.write_text(json.dumps({"documents": {
        "z5": {"kind": "hopf", "group_table": z5},
        "check": {"kind": "job", "op": "validate", "target": "z5"}}}))
    monkeypatch.setenv("HOPFGAL_MAX_DIM", "4")
    assert _run("validate", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "z5.group_table:" in err
    monkeypatch.setenv("HOPFGAL_MAX_DIM", "5")
    assert _run("validate", path) == 0


def test_every_shipped_workspace_parses(fixture_dir):
    for name in ALL:
        ws = Workspace.load(str(fixture_dir / name))
        ws.lift_orders()
        assert ws.objects


def test_reports_embed_check_versions(fixture_dir, tmp_path):
    out = tmp_path / "r.json"
    _run("validate", fixture_dir / "pauli.json", out, job="check")
    doc = json.loads(out.read_text())
    assert doc["tool"]["name"] == "hopfgal"
    assert doc["tool"]["checks_version"]
    assert doc["report"]["version"]


def test_dual_job(fixture_dir, tmp_path):
    out = tmp_path / "r.json"
    code = _run("dual", fixture_dir / "pauli.json", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["dual"]["dim"] == 4
    assert doc["report"]["passed"] is True


def test_commutant_job(fixture_dir, tmp_path):
    out = tmp_path / "r.json"
    code = _run("commutant", fixture_dir / "jones-mat2-mat4.json", out,
                job="commutant")
    assert code == 0
    doc = json.loads(out.read_text())
    # commutant of Mat2 (x) 1 inside Mat4 is 1 (x) Mat2
    assert doc["commutant"]["dim"] == 4


def test_measure_job_with_explicit_span_matrices(tmp_path):
    # a functional-preservation span supplied as raw {"l","r","left","right"}
    # matrices: every element of CZ2 preserves the Mat2 trace under Ad(Z)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(_explicit_span_workspace()))
    out = tmp_path / "r.json"
    assert _run("measure", path, out, job="measure") == 0
    doc = json.loads(out.read_text())
    assert doc["subcoalgebra"]["dim"] == 2


def test_lifting_reaches_nested_hopf_tensors(tmp_path):
    # a hopf document with order-1 tensors plus an order-3 scalar elsewhere:
    # the structure constants inside the nested algebra must lift too
    from make_fixtures import z2_workspace

    ws_doc = z2_workspace()
    ws_doc["documents"]["oddball"] = {
        "kind": "algebra", "dim": 1,
        "mult": [[[{"order": 3, "num": [1, 0], "den": 1}]]],
        "unit": [{"order": 3, "num": [1, 0], "den": 1}],
        "star": [[1]],
        "state": None,
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws_doc))
    ws = Workspace.load(str(path))
    assert ws.lift_orders() == 3
    hopf = ws.get("cz2")
    assert all(v.order == 3
               for plane in hopf.mult for cell in plane
               for v in cell.values())
    assert all(v.order == 3 for plane in hopf.comult
               for v in plane.values())


def _reachable_orders(root) -> set:
    """The orders of every Scalar reachable from root through lists,
    tuples, dicts and object attributes: a walk of its own, since the
    parser lifts each scalar as it reads it and keeps no walker."""
    orders, seen, stack = set(), set(), [root]
    while stack:
        x = stack.pop()
        if isinstance(x, Scalar):
            orders.add(x.order)
        elif id(x) in seen:
            continue
        elif isinstance(x, dict):
            seen.add(id(x))
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            seen.add(id(x))
            stack.extend(x)
        elif hasattr(x, "__dict__"):
            seen.add(id(x))
            stack.extend(vars(x).values())
    return orders


@pytest.mark.parametrize("order", [None, 3, 4])
@pytest.mark.parametrize("fname", sorted(ALL))
def test_every_scalar_is_read_at_the_workspace_order(fname, order):
    ws = Workspace(_with_order(_fixture(fname), order)["documents"])
    assert ws.lift_orders() == (order or 1)
    assert _reachable_orders(ws.objects) == {order or 1}


def test_span_orders_lift_the_documents(tmp_path, capsys):
    # the only order-4 scalars sit in the spans of the measure job, yet
    # the documents are read at order 4 too; the certificate, a kernel of
    # order-1 rows, keeps the bytes of the plain workspace
    doc = _explicit_span_workspace()
    half = {"order": 4, "num": [1, 0], "den": 2}
    doc["documents"]["measure"]["spans"][0]["right"] = [[half], [0], [0],
                                                        [half]]
    ws = Workspace(copy.deepcopy(doc)["documents"])
    assert ws.lift_orders() == 4
    assert _reachable_orders(ws.objects) == {4}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert _run("measure", path, job="measure") == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() \
        == _SPAN_DIGESTS["explicit", None]


def test_an_order_outside_a_scalar_lifts_nothing(tmp_path, capsys):
    # an "order" key in a field no parser reads is not a scalar's: the
    # workspace keeps the bytes of the plain one; a malformed order inside
    # a scalar is still refused
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(_fixture("s3-transposition.json")))
    assert _run("centralizer", path, job="centralizer") == 0
    plain = capsys.readouterr().out
    doc = _fixture("s3-transposition.json")
    doc["documents"]["centralizer"]["note"] = {"order": 3}
    path.write_text(json.dumps(doc))
    assert _run("centralizer", path, job="centralizer") == 0
    assert capsys.readouterr().out == plain
    doc["documents"]["transposition"]["basis"][0][0] = {
        "order": "x", "num": [1], "den": 1}
    path.write_text(json.dumps(doc))
    assert _run("centralizer", path, job="centralizer") == 2
    assert capsys.readouterr().err \
        == "input error: scalar order 'x' is not an integer\n"


# Shipped jobs with every scalar lifted to Q(i) by one extra order-4
# document; digests of the CLI stdout.  Zeros and pivot ones in emitted
# bases take the order of the entry their row was normalized at: 1 on rows
# built from KernelSolver's unit vectors, 4 on rows of lifted workspace
# vectors.
_LIFTED_DIGESTS = [
    ("banica-z2.json", "banica", "qgal-banica",
     "74c4e7ed316ea96942e728ab31ce7c66f1be8f958f19f6983e667e0d0583b61a"),
    ("jones-mat2-mat4.json", "commutant", "commutant",
     "7cfd98872afb65f5c1e1709f21f09a729eeb8cb4323e6966a7ae513537e233f0"),
    ("s3-transposition.json", "centralizer", "centralizer",
     "72b4f8a45e0112914ed8256e0927115c872a3a75e41a18f0e3093e3008167f75"),
]


@pytest.mark.parametrize("fname,job,op,digest", _LIFTED_DIGESTS,
                         ids=[f"{f}:{j}" for f, j, _, _ in _LIFTED_DIGESTS])
def test_lifted_job_output_keeps_scalar_orders(fname, job, op, digest,
                                               tmp_path, capsys):
    lifted = tmp_path / fname
    lifted.write_text(json.dumps(_with_order(_fixture(fname), 4)))
    assert _run(op, lifted, job=job) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


# Shipped jobs lifted to Q(i) and to Q(zeta_3): digests of the CLI stdout.
# dual_hopf copies the unit and antipode rows of its input into the
# counit and antipode of the dual, so their zeros keep the lifted order;
# every other zero a table emits is of order 1.
_LIFTED_TABLE_DIGESTS = [
    ("pauli.json", "dualize", "dual", 4,
     "fc686ee832007a6d61ee7eebd4905dacb0d154113027a383e2bec80f183fe99c"),
    ("pauli.json", "dualize", "dual", 3,
     "1f8ebf17ef8081125fbb35ea232602b819145783c4a8bbb4ff199580073d8ced"),
    ("z2.json", "qgal", "qgal-depth2", 4,
     "098bd9a273f07545efb4ba26682a623a872ba6e33ae741ed86132b827aac91c0"),
    ("z2.json", "qgal", "qgal-depth2", 3,
     "517df9090da9e6cc4eeed1e7fc7f6889eb6cc05afcbada1251d3053e3731642c"),
]


@pytest.mark.parametrize(
    "fname,job,op,order,digest", _LIFTED_TABLE_DIGESTS,
    ids=[f"{f}:{j}-{o}" for f, j, _, o, _ in _LIFTED_TABLE_DIGESTS])
def test_lifted_tables_keep_zero_orders(fname, job, op, order, digest,
                                        tmp_path, capsys):
    lifted = tmp_path / fname
    lifted.write_text(json.dumps(_with_order(_fixture(fname), order)))
    assert _run(op, lifted, job=job) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def _shipped_job_fields():
    """(workspace document, job name, job body, field) for every field."""
    fixtures = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
    for fname in sorted(os.listdir(fixtures)):
        with open(os.path.join(fixtures, fname)) as fh:
            doc = json.load(fh)
        for name, body in sorted(doc["documents"].items()):
            if body.get("kind") == "job":
                for field in sorted(body):
                    yield pytest.param(doc, name, body, field,
                                       id=f"{fname}:{name}-{field}")


@pytest.mark.parametrize("doc,name,body,field", _shipped_job_fields())
def test_job_missing_any_field_is_input_error(doc, name, body, field,
                                              tmp_path, capsys):
    broken = copy.deepcopy(doc)
    del broken["documents"][name][field]
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(broken))
    code = _run(body["op"], path, job=name)
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err


def _z2_measure_with_span(entry):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                        "z2.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["documents"]["measure"]["spans"] = [entry]
    return doc


# c . x = c . x for every x in Mat2: one leg on each side, identity on
# the 16-dimensional carrier, so it constrains nothing
_TRIVIAL_SPAN = {
    "l": 1, "r": 1,
    "left": [[int(i == j) for j in range(16)] for i in range(16)],
    "right": [[int(i == j) for j in range(16)] for i in range(16)],
}


@pytest.mark.parametrize("field", [None] + sorted(_TRIVIAL_SPAN))
def test_measure_span_entry_missing_any_field_is_input_error(field, tmp_path,
                                                             capsys):
    entry = copy.deepcopy(_TRIVIAL_SPAN)
    if field is not None:
        del entry[field]
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(_z2_measure_with_span(entry)))
    code = _run("measure", path, job="measure")
    err = capsys.readouterr().err
    assert code == (0 if field is None else 2), err
    assert "Traceback" not in err


# wrong shapes: a negative or huge leg count, a side with 15 or 17 columns
# instead of 16^1, and sides with different row counts
_MISSHAPEN_SPANS = [
    {**_TRIVIAL_SPAN, "l": -1},
    {**_TRIVIAL_SPAN, "r": -1},
    {**_TRIVIAL_SPAN, "l": 10 ** 12},
    {**_TRIVIAL_SPAN, "left": [row[:15] for row in _TRIVIAL_SPAN["left"]]},
    {**_TRIVIAL_SPAN, "left": [row + [0] for row in _TRIVIAL_SPAN["left"]]},
    {**_TRIVIAL_SPAN, "right": _TRIVIAL_SPAN["right"][:15]},
]


@pytest.mark.parametrize("entry", [{}, 3, {**_TRIVIAL_SPAN, "l": "one"}]
                         + _MISSHAPEN_SPANS)
def test_measure_malformed_span_entry_is_input_error(entry, tmp_path, capsys):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(_z2_measure_with_span(entry)))
    assert _run("measure", path, job="measure") == 2
    assert "spans[0]" in capsys.readouterr().err


def _measure_with_legs(hopf, alg, act, legs):
    """A measure job of hopf acting on alg through act, with one span of
    legs legs on the left and none on the right."""
    width = (alg["dim"] ** 2) ** legs
    return {"documents": {
        "hopf": {"kind": "hopf", **hopf}, "alg": alg,
        "act": {"kind": "action", "hopf": "hopf", "alg": "alg", "act": act},
        "measure": {"kind": "job", "op": "measure", "coalgebra": "hopf",
                    "action": "act",
                    "spans": [{"l": legs, "r": 0,
                               "left": [[1] + [0] * (width - 1)],
                               "right": [[1]]}]}}}


def _cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _trivially_acted(legs):
    # CZ2 acting trivially on a one-dimensional algebra: every row of a
    # span is one column wide, whatever the leg count
    alg = {"kind": "algebra", "dim": 1, "mult": [[[1]]], "unit": [1],
           "star": [[1]], "state": None}
    return _measure_with_legs({"group_table": _cyclic(2)}, alg,
                              [[[1]], [[1]]], legs)


def _counit_acted(n, legs):
    # C(Z_n) acting on C^2 through the counit: delta_0 acts as the
    # identity and every other delta_g as zero
    alg = {"kind": "algebra", "dim": 2,
           "mult": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
           "unit": [1, 1], "star": [[1, 0], [0, 1]], "state": None}
    act = [[[int(g == 0 and a == b) for b in range(2)] for a in range(2)]
           for g in range(n)]
    return _measure_with_legs({"group_table": _cyclic(n), "dual": True},
                              alg, act, legs)


# spans whose rows are narrow but whose evaluation is not: seconds to hours
# of work from a few kilobytes of workspace
_OVER_BUDGET_SPANS = [
    ("trivial-l12000", _trivially_acted(12000)),
    ("trivial-l1e6", _trivially_acted(10 ** 6)),
    ("counit-z16-l4", _counit_acted(16, 4)),
    ("counit-z24-l4", _counit_acted(24, 4)),
]


@pytest.mark.parametrize("doc", [d for _, d in _OVER_BUDGET_SPANS],
                         ids=[name for name, _ in _OVER_BUDGET_SPANS])
def test_measure_span_over_the_work_bound_is_input_error(doc, tmp_path,
                                                        capsys):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    start = time.process_time()
    code = _run("measure", path, job="measure")
    err = capsys.readouterr().err
    assert code == 2, err
    assert "/documents/measure.spans[0]: " in err
    assert "work bound" in err
    assert time.process_time() - start < 1


def test_measure_span_within_the_work_bound_runs(tmp_path, capsys):
    # the same workspaces with fewer legs are evaluated; the span holds on
    # all of CZ2, and on all of C(Z16)
    for doc, dim in ((_trivially_acted(40), 2), (_counit_acted(16, 2), 16)):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        assert _run("measure", path, job="measure") == 0
        assert json.loads(capsys.readouterr().out)["subcoalgebra"]["dim"] \
            == dim


def _fixture(fname):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                        fname)
    with open(path) as fh:
        return json.load(fh)


def _explicit_span_workspace():
    # CZ2 acting on Mat2 by Ad(Z) preserves the trace, tau(c . a) =
    # counit(c) tau(a): the carrier V = Hom(A, A) is flattened row-major,
    # the target is A*, left(F)[a] = sum_out tau[out] F[out][a] and
    # right() = tau
    doc = _fixture("z2.json")
    tau = [[1, 2], 0, 0, [1, 2]]
    left = [[tau[k // 4] if k % 4 == a else 0 for k in range(16)]
            for a in range(4)]
    doc["documents"]["measure"]["spans"] = [
        {"l": 1, "r": 0, "left": left, "right": [[t] for t in tau]}]
    return doc


def _graded_workspace():
    # C(Z4) on span{1, u}, u^2 = 1, graded with u in degree 2: delta_g . a
    # is the degree-g part of a, so psi(c) = diag(c_0, c_2) on Hom(A, A)
    # flattened as out 2 + in
    return {"documents": {
        "cz4": {"kind": "hopf", "dual": True,
                "group_table": [[(g + h) % 4 for h in range(4)]
                                for g in range(4)]},
        "cz2": {"kind": "algebra", "dim": 2,
                "mult": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                "unit": [1, 0], "star": [[1, 0], [0, 1]], "state": None},
        "grade": {"kind": "action", "hopf": "cz4", "alg": "cz2",
                  "act": [[[1, 0], [0, 0]], [[0, 0], [0, 0]],
                          [[0, 0], [0, 1]], [[0, 0], [0, 0]]]},
        "measure": {"kind": "job", "op": "measure", "coalgebra": "cz4",
                    "action": "grade"},
    }}


def _two_leg_span_workspace():
    # psi(c_1)_00 psi(c_2)_00 + psi(c_1)_00 psi(c_2)_11 = c_0 + c_2 on the
    # columns 0 and 0 4 + 3 of psi (x) psi: it vanishes on the characters
    # chi_1 and chi_3 of Z4 only, so the result is spanned by
    # (1, 0, -1, 0) and (0, 1, 0, -1)
    doc = _graded_workspace()
    doc["documents"]["measure"]["spans"] = [
        {"l": 2, "r": 1, "left": [[int(k in (0, 3)) for k in range(16)]],
         "right": [[0, 0, 0, 0]]}]
    return doc


def _sign_character_workspace():
    # C(Z2) on C with delta_1 acting by -1: psi = counit only on the sign
    # character delta_0 - delta_1, which spans the result
    return {"documents": {
        "cz2": {"kind": "hopf", "dual": True, "group_table": [[0, 1], [1, 0]]},
        "c": {"kind": "algebra", "dim": 1, "mult": [[[1]]], "unit": [1],
              "star": [[1]], "state": None},
        "sign": {"kind": "action", "hopf": "cz2", "alg": "c",
                 "act": [[[0]], [[-1]]]},
        "measure": {"kind": "job", "op": "measure", "coalgebra": "cz2",
                    "action": "sign"},
    }}


def _with_order(doc, order):
    """doc with every scalar lifted to Q(zeta_order) by one extra document
    (order None: doc itself)."""
    if order is None:
        return doc
    doc = copy.deepcopy(doc)
    one = {"order": order, "num": [1, 0], "den": 1}
    doc["documents"]["oddball"] = {"kind": "algebra", "dim": 1,
                                   "mult": [[[one]]], "unit": [one],
                                   "star": [[1]], "state": None}
    return doc


# measure jobs through the span layer, plain and lifted to Q(i) and Q(zeta_3):
# digests of the CLI stdout, recorded before the spans were evaluated
# sparsely
_SPAN_DIGESTS = {
    ("explicit", None):
        "a76f137695fbc18c9b59c695a821ba332c4ef15a3c228e6debd1050404f69156",
    ("explicit", 4):
        "a76f137695fbc18c9b59c695a821ba332c4ef15a3c228e6debd1050404f69156",
    ("explicit", 3):
        "a76f137695fbc18c9b59c695a821ba332c4ef15a3c228e6debd1050404f69156",
    ("two-leg", None):
        "0808c77b88daeb621a0456c4e2f91599c66aa03141a389328c31c94e71303341",
    ("two-leg", 4):
        "dfd49aedacc9565acdd2a2f5e603a0756245d0834073f15bc6c08c446aa1d979",
    ("two-leg", 3):
        "36abec92e2c90054c57d9710efdf2b56c690050348b99bff9e38710d75e3534c",
    ("sign-character", None):
        "0614620b6a6be1a08be77deef0794be17566b98f61c629861b0355ba02ce15b5",
    ("sign-character", 4):
        "6c500ca5ea26c896f7b567022228d77d5b7c629854a218fbf317c30d7f4fc0e2",
    ("sign-character", 3):
        "9c43792bba135c73da65c7fe913fe3ac12bc7ea958b569bc1c0761b52e24ee78",
}
_SPAN_WORKSPACES = {"explicit": _explicit_span_workspace,
                    "two-leg": _two_leg_span_workspace,
                    "sign-character": _sign_character_workspace}


@pytest.mark.parametrize("name,order", list(_SPAN_DIGESTS),
                         ids=[f"{n}-{o or 'plain'}" for n, o in _SPAN_DIGESTS])
def test_measure_span_output_bytes(name, order, tmp_path, capsys):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(_with_order(_SPAN_WORKSPACES[name](), order)))
    assert _run("measure", path, job="measure") == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == _SPAN_DIGESTS[name, order]


# job fields of the wrong JSON type: a document reference that is not a
# string, spans that are not an array, flags that are not true or false
def _z2_with(name, key, value):
    doc = _fixture("z2.json")
    doc["documents"][name][key] = value
    return doc


def _within_job(stabilize):
    doc = _fixture("z2.json")
    doc["documents"]["all"] = {"kind": "subspace", "ambient_dim": 2,
                               "basis": [[1, 0], [0, 1]]}
    doc["documents"]["measure"] = {"kind": "job", "op": "measure",
                                   "coalgebra": "cz2", "within": "all",
                                   "stabilize": stabilize}
    return doc


def _ill_typed(op, job, doc_of, name, key, values, what):
    for value in values:
        yield pytest.param(op, job, doc_of(value), f"/documents/{name}.{key}",
                           what, id=f"{name}.{key}={json.dumps(value)}")


_ILL_TYPED_JOB_FIELDS = [
    *(case for op, job in (("smash", "smash"), ("qgal-depth2", "qgal"),
                           ("measure", "measure"))
      for case in _ill_typed(op, job, partial(_z2_with, job, "action"), job,
                             "action", (["adz"], {}, 5), "a string")),
    *_ill_typed("measure", "measure", partial(_z2_with, "measure",
                                              "coalgebra"),
                "measure", "coalgebra", (["cz2"],), "a string"),
    *_ill_typed("measure", "measure", partial(_z2_with, "measure", "spans"),
                "measure", "spans", (5, None, {}), "an array"),
    *_ill_typed("measure", "measure", _within_job, "measure", "stabilize",
                ("false", 0, None), "true or false"),
    *_ill_typed("smash", "smash", partial(_z2_with, "cz2", "dual"), "cz2",
                "dual", ("false", 1, None), "true or false"),
]


@pytest.mark.parametrize("op,job,doc,where,what", _ILL_TYPED_JOB_FIELDS)
def test_ill_typed_job_field_is_input_error(op, job, doc, where, what,
                                            tmp_path, capsys):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    code = _run(op, path, job=job)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == f"input error: {where}: expected {what}\n"


@pytest.mark.parametrize("stabilize", [True, False])
def test_json_boolean_flags_are_read(stabilize, tmp_path, capsys):
    # "dual": false builds CZ2 as the group algebra, as an absent flag does
    doc = _within_job(stabilize)
    doc["documents"]["cz2"]["dual"] = False
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert _run("measure", path, job="measure") == 0
    assert json.loads(capsys.readouterr().out)["subcoalgebra"]["dim"] == 2


# a zero denominator, a nested array, a non-integer coefficient, a zero
# denominator in an object and a float, which int() would truncate to 1
_MALFORMED_SCALARS = [
    [1, 0],
    [1, [2]],
    {"order": 4, "num": ["a", 0], "den": 1},
    {"order": 4, "num": [1, 0], "den": 0},
    [1.5, 2],
]


@pytest.mark.parametrize("value", _MALFORMED_SCALARS)
def test_malformed_scalar_is_input_error(value, tmp_path, capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                        "z2.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["documents"]["mat2"]["state"][1] = value
    broken = tmp_path / "ws.json"
    broken.write_text(json.dumps(doc))
    code = _run("smash", broken)
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert "/documents/mat2.state[1]: " in err


# a float and a string that int() would read as 4, a bool it would read as
# 1, and a float group-table entry
_MALFORMED_INTEGERS = [
    ("mat2", "dim", 4.7, "/documents/mat2.dim"),
    ("mat2", "dim", "4", "/documents/mat2.dim"),
    ("mat2", "dim", True, "/documents/mat2.dim"),
    ("cz2", "group_table", [[0, 1.0], [1, 0]],
     "/documents/cz2.group_table[0][1]"),
]


@pytest.mark.parametrize("name, key, value, where", _MALFORMED_INTEGERS)
def test_malformed_integer_is_input_error(name, key, value, where, tmp_path,
                                          capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                        "z2.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["documents"][name][key] = value
    broken = tmp_path / "ws.json"
    broken.write_text(json.dumps(doc))
    code = _run("smash", broken)
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert f"{where}: expected an integer" in err


def test_measure_within_c_s4_keeps_trivial_plus_standard(tmp_path):
    # the permutation coefficients span trivial + standard (1 + 9) and
    # C(S4) is cosemisimple; neither indicator adds a block
    docs, coeffs = c_of_s4_within()
    path = tmp_path / "s4.json"
    path.write_text(json.dumps({"documents": docs}))
    out = tmp_path / "out.json"
    assert _run("measure", path, out, job="measure") == 0
    doc = json.loads(out.read_text())
    result = Subspace.from_vectors(
        [[Scalar.from_json(x) for x in row]
         for row in doc["subcoalgebra"]["basis"]], 24)
    expected = Subspace.from_vectors(
        [[Scalar.from_int(x) for x in row] for row in coeffs], 24)
    assert result.dim == 10 and result == expected
    dims = doc["iteration_dims"]
    assert dims == sorted(dims, reverse=True) and dims[-1] == 10


# -- the corruption sweep ---------------------------------------------------
#
# Single-cell corruptions of every table of every fixture but the Jones one,
# each run in-process as validate (of the corrupted document) and as each
# of the fixture's jobs, and corruptions of every reference field of those
# jobs.  A corruption that no reader accepts in place of a scalar, an
# integer or a document name is refused naming its document; a well-typed
# one (a 0 or 1 in a group table, say) may instead be refused by the
# mathematics, as "not a group: associativity fails", and then names the
# document that the reader or the job runner was reading.

_CELL_CORRUPTIONS = [1, [1, 2], 0, [1, 0], "x", [], [[1]]]
_FIELD_CORRUPTIONS = [["x"], {}, 5]
_VALIDATED_KINDS = {"hopf", "algebra", "action", "comodule", "pairing"}
_SWEEP_RUNS = 300


def _cells(table, path=()):
    """Paths to the leaves of a nested array (an empty array is a leaf)."""
    if isinstance(table, list) and table:
        for i, x in enumerate(table):
            yield from _cells(x, path + (i,))
    else:
        yield path


def _sweep_candidates():
    """(workspace, op, job, ill-typed) for every corruption and run."""
    fixtures = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
    for fname in sorted(os.listdir(fixtures)):
        if fname.startswith("jones"):
            continue
        doc = _fixture(fname)
        docs = doc["documents"]
        jobs = [(body["op"], name) for name, body in sorted(docs.items())
                if body["kind"] == "job"]
        for name, body in sorted(docs.items()):
            if body["kind"] == "job":
                for key in sorted(set(body) - {"kind", "op"}):
                    for bad in _FIELD_CORRUPTIONS:
                        yield (doc, name, key, None, bad), body["op"], name
                continue
            runs = jobs
            if body["kind"] in _VALIDATED_KINDS:
                runs = [("validate", "sweep-validate")] + jobs
            for key, table in sorted(body.items()):
                if isinstance(table, list):
                    for bad in _CELL_CORRUPTIONS:
                        for op, job in runs:
                            yield (doc, name, key, table, bad), op, job


def _corrupted(edit, rng):
    doc, name, key, table, bad = edit
    doc = copy.deepcopy(doc)
    body = doc["documents"][name]
    doc["documents"]["sweep-validate"] = {"kind": "job", "op": "validate",
                                          "target": name}
    path = rng.choice(list(_cells(table))) if table is not None else ()
    if not path:
        body[key] = bad
        return doc
    cell = body[key]
    for i in path[:-1]:
        cell = cell[i]
    cell[path[-1]] = bad
    return doc


def test_corruption_sweep_exits_with_a_meaningful_code(tmp_path):
    rng = random.Random(20)
    candidates = list(_sweep_candidates())
    fields = [c for c in candidates if c[0][3] is None]
    cells = [c for c in candidates if c[0][3] is not None]
    runs = fields + rng.sample(cells, _SWEEP_RUNS - len(fields))
    path = tmp_path / "ws.json"
    start = time.process_time()
    for edit, op, job in runs:
        path.write_text(json.dumps(_corrupted(edit, rng)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _run(op, path, job=job)
        what = f"{op} {job} with {edit[1]}.{edit[2]} <- {edit[4]!r}: {code}"
        assert code in (0, 1, 2, 3), what
        if code in (0, 1):
            assert json.loads(out.getvalue())["passed"] is (code == 0), what
        if code == 2:
            message = err.getvalue()
            assert message.startswith("input error: "), what
            named = re.search(r"/documents/([\w-]+)", message)
            assert named and named[1] in edit[0]["documents"], \
                f"{what} {message}"
    assert time.process_time() - start < 10


def _lower_ambient(name, within=None):
    """Edit to a workspace: the subspace name (added, when within names
    the measure job, as that job's within) becomes one line of k^3."""
    def edit(docs):
        if within is not None:
            docs[within]["within"] = name
        docs[name] = {"kind": "subspace", "ambient_dim": 3,
                      "basis": [[1, 0, 0]]}
    return edit


# a subspace of another ambient than the algebra or coalgebra of its job:
# (workspace, op, job, subspace document, what the mathematics says)
_WRONG_AMBIENT = {
    "commutant": ("jones-mat2-mat4.json", "commutant", "mat2",
                  "subspace does not live in the algebra"),
    "jones": ("jones-mat2-mat4.json", "jones", "mat2",
              "ambient dimension mismatch"),
    "centralizer": ("s3-transposition.json", "centralizer", "transposition",
                    "subspace does not live in the algebra"),
    "measure": ("z2.json", "measure", "line",
                "subspace does not live in the coalgebra"),
}


@pytest.mark.parametrize("op", sorted(_WRONG_AMBIENT))
def test_subspace_of_another_ambient_names_its_document(op, tmp_path,
                                                        capsys):
    fname, job, name, says = _WRONG_AMBIENT[op]
    edit = _lower_ambient(name, job if op == "measure" else None)
    path = tmp_path / fname
    path.write_text(json.dumps(_fixture_with(fname, None, edit)))
    assert _run(op, path, job=job) == 2
    assert capsys.readouterr().err \
        == f"input error: /documents/{name}: {says}\n"


def test_measure_refuses_a_coalgebra_other_than_the_actions(tmp_path,
                                                           capsys):
    # the action adz acts by cz2; a measure job naming another Hopf
    # algebra as its coalgebra is refused, not computed over cz2
    def edit(docs):
        docs["other"] = {"kind": "hopf", "group_table": [[0, 1], [1, 0]],
                         "dual": True}
        docs["measure"]["coalgebra"] = "other"
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(_fixture_with("z2.json", None, edit)))
    assert _run("measure", path, job="measure") == 2
    assert capsys.readouterr().err \
        == ("input error: /documents/measure.coalgebra: 'other' is not"
            " 'cz2', the Hopf algebra that the action 'adz' acts by\n")


# the ambient action of the banica job must act by its ambient_hopf on the
# algebra B of its comodule: (document, field, value)
_FOREIGN_AMBIENT = {
    "hopf-cz2": ("banica", "ambient_hopf", "cz2"),
    "hopf-cz2cop": ("banica", "ambient_hopf", "cz2cop"),
    "carrier-cz2": ("gradeB", "alg", "cz2"),
}


@pytest.mark.parametrize("case", sorted(_FOREIGN_AMBIENT))
def test_banica_refuses_an_ambient_action_of_another_hopf_or_carrier(
        case, tmp_path, capsys):
    name, key, value = _FOREIGN_AMBIENT[case]

    def edit(doc):
        doc[key] = value
    path = tmp_path / "banica-z2.json"
    path.write_text(json.dumps(_fixture_with("banica-z2.json", name, edit)))
    assert _run("qgal-banica", path, job="banica") == 2
    says = ("acts by another Hopf algebra" if key == "ambient_hopf"
            else "wrong carrier")
    assert capsys.readouterr().err == ("input error: /documents/gradeB:"
                                       f" Q_ambient action invalid: {says}\n")


# qgal-banica premises: B is a unital *-algebra and the action is over
# H^cop as a Hopf *-algebra, table for table.  One cell of banica-z2.json
# set to 1/2: (document, path to the cell, failing premise)
_BANICA_PREMISES = {
    "bz2.star[0][1]": ("bz2", ("star", 0, 1), "comodule algebra invalid"
                       " at star_involutive"),
    "bz2.star[1][0]": ("bz2", ("star", 1, 0), "comodule algebra invalid"
                       " at star_involutive"),
    "bz2.star[0][0]": ("bz2", ("star", 0, 0), "comodule algebra invalid"
                       " at star_involutive"),
    "bz2.unit[0]": ("bz2", ("unit", 0), "comodule algebra invalid at unit"),
    "cz2cop.antipode[1][0]": ("cz2cop", ("antipode", 1, 0),
                              "the smash product is not over H^cop"),
    "cz2cop.counit[1]": ("cz2cop", ("counit", 1),
                         "the smash product is not over H^cop"),
}


@pytest.mark.parametrize("case", sorted(_BANICA_PREMISES))
def test_banica_refuses_a_failed_premise_and_names_its_document(
        case, tmp_path, capsys):
    name, (*keys, last), says = _BANICA_PREMISES[case]

    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = [1, 2]
    path = tmp_path / "banica-z2.json"
    path.write_text(json.dumps(_fixture_with("banica-z2.json", name, edit)))
    assert _run("qgal-banica", path, job="banica") == 2
    assert capsys.readouterr().err \
        == f"input error: /documents/{name}: {says}\n"


def test_banica_refuses_a_coaction_that_is_not_a_star_map(tmp_path, capsys):
    # the comodule passes validate, whose four laws hold without the star;
    # qgal-banica tripped its fixed-point guard on it and now refuses it
    path = tmp_path / "banica-z2.json"
    path.write_text(json.dumps(_fixture_with("banica-z2.json", None,
                                             graded_by_conjugation)))
    assert _run("validate", path, job="check2") == 0
    capsys.readouterr()
    assert _run("qgal-banica", path, job="banica2") == 2
    assert capsys.readouterr().err == ("input error: /documents/beta2: the"
                                       " coaction is not a *-map (witness"
                                       " 0)\n")
    assert _run("qgal-banica", path, job="banica") == 0


def test_qgal_depth2_refuses_a_base_that_is_not_a_factor(tmp_path, capsys):
    # CZ2 translating the commutative C(Z2): the colinear endomorphisms
    # outnumber H*, so the certificate's premise fails; the input is
    # refused and the action named, not reported as a tripped guard
    def edit(docs):
        docs["qgal"] = {"kind": "job", "op": "qgal-depth2",
                        "action": "translation"}
    path = tmp_path / "translation-z2.json"
    path.write_text(json.dumps(_fixture_with("translation-z2.json", None,
                                             edit)))
    assert _run("qgal-depth2", path, job="qgal") == 2
    assert capsys.readouterr().err == (
        "input error: /documents/translation: the base algebra is not a"
        " factor: its center has dim 2\n")


def _banica_cyclic(m, n):
    """qgal-banica with B = CZ_m coacted on by H = CZ_n through g -> g (x)
    (g mod n), for n dividing m; A = C and the ambient is C, both acting
    trivially.  Every document is within the guards for m <= 64."""
    coact = [[[int(j == i and k == i % n) for k in range(n)]
              for j in range(m)] for i in range(m)]
    return {"documents": {
        "h": {"kind": "hopf", "group_table": _cyclic(n)},
        "b": {"kind": "hopf", "group_table": _cyclic(m)},
        "beta": {"kind": "comodule", "hopf": "h", "alg": "b",
                 "coact": coact},
        "c": {"kind": "algebra", "dim": 1, "mult": [[[1]]], "unit": [1],
              "star": [[1]], "state": [1]},
        "triv": {"kind": "action", "hopf": "h", "alg": "c",
                 "act": [[[1]]] * n},
        "one": {"kind": "hopf", "group_table": [[0]]},
        "onb": {"kind": "action", "hopf": "one", "alg": "b",
                "act": [[[int(a == b) for b in range(m)]
                         for a in range(m)]]},
        "banica": {"kind": "job", "op": "qgal-banica", "comodule": "beta",
                   "action": "triv", "ambient_hopf": "one",
                   "ambient_action": "onb"}}}


def test_qgal_banica_over_the_work_bound_is_refused_at_once(tmp_path,
                                                          capsys):
    # B (x) (A x| H^cop) of dim 32 * 32 would store a table of 1024^2
    # cells (seconds and hundreds of MB); it exceeds 64^3 and is refused
    # before anything is built, naming the comodule
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(_banica_cyclic(32, 32)))
    start = time.process_time()
    assert _run("qgal-banica", path, job="banica") == 2
    assert time.process_time() - start < 1
    assert capsys.readouterr().err == (
        "input error: /documents/beta: B (x) (A x| H^cop) has dim 1024: its"
        " table of 1024^2 cells exceeds the work bound HOPFGAL_MAX_DIM^3\n")


def test_qgal_banica_work_bound_edge(tmp_path, monkeypatch, capsys):
    # at HOPFGAL_MAX_DIM = 16 the bound is 16^3 = 64^2 cells: dim 64 runs,
    # dim 128 is refused
    monkeypatch.setenv("HOPFGAL_MAX_DIM", "16")
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(_banica_cyclic(8, 8)))
    assert _run("qgal-banica", path, job="banica") == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    path.write_text(json.dumps(_banica_cyclic(16, 8)))
    assert _run("qgal-banica", path, job="banica") == 2
    assert "has dim 128" in capsys.readouterr().err

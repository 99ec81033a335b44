"""Certificate emission and the CLI pass/fail verdict.

`serialize.emit` must write exactly the bytes of json.dumps(doc,
sort_keys=True, indent=2, separators=(",", ": ")) + "\\n".  It is checked
on the output document of every shipped fixture job and of every benchmark
job (built in-process from perfbench/workloads.py), and on hypothesis-drawn
nested documents.  The verdict, which reads only the reports at the top
level of a runner's output, is checked against the walk of every node in
tests/_oracles.py, and a failing report at each place a runner puts one
must make the CLI exit 1.
"""

import contextlib
import importlib.util
import io
import json
import math
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import report_passed
from hopfgal import cli, jones
from hopfgal.serialize import emit

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
FIXTURES = os.path.join(ROOT, "fixtures")
BENCH_SEED = 7


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def _assert_same(doc):
    try:
        want = _dumps(doc)
    except (TypeError, ValueError) as e:
        with pytest.raises(type(e)):
            emit(doc)
        return
    assert emit(doc) == want


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _fixture_argvs():
    for fname in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, fname)) as fh:
            docs = json.load(fh)["documents"]
        for name, body in sorted(docs.items()):
            if body.get("kind") == "job":
                yield (f"{fname}:{name}", body["op"],
                       [body["op"], "--workspace",
                        os.path.join(FIXTURES, fname), "--job", name])


def _run(argv):
    """(exit code, stdout, the document handed to emit) of one CLI call."""
    seen = []

    def recording_emit(doc):
        seen.append(doc)
        return emit(doc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "emit", recording_emit)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    return code, out.getvalue(), seen[0] if seen else None


@pytest.fixture(scope="module")
def job_documents(tmp_path_factory):
    """(label, op, exit code, stdout, document) of every job."""
    runs = []
    for label, op, argv in _fixture_argvs():
        runs.append((label, op, *_run(argv)))
    workloads = _workloads()
    for workload in ("jones-tower", "galois-cyclotomic", "measuring-ladder",
                     "cli-cold"):
        workdir = str(tmp_path_factory.mktemp(workload))
        for job in workloads.generate(workload, BENCH_SEED, ROOT, workdir):
            code, out, doc = _run(job.argv(workdir))
            assert job.check(code, out.encode()) is None, job.name
            runs.append((f"{workload}:{job.name}", job.op, code, out, doc))
    return runs


def test_emit_matches_json_dumps_on_every_job_document(job_documents):
    assert len(job_documents) == 13 + 26
    for label, _, _, out, doc in job_documents:
        assert out == _dumps(doc), label


def test_verdict_matches_the_full_walk(job_documents):
    for label, _, code, _, doc in job_documents:
        body = {k: v for k, v in doc.items() if k != "passed"}
        assert doc["passed"] is report_passed(body), label
        assert code == (0 if doc["passed"] else 1), label
    broken = [r for r in job_documents if r[0] == "broken-hopf.json:check"]
    assert [code for _, _, code, _, _ in broken] == [1]


# -- forced failures ----------------------------------------------------------

# (fixture, job, cli attribute to wrap, its Report, the report key it fills)
FORCED = [
    ("pauli.json", "check", "validate_action", lambda r: r, "report"),
    ("pauli.json", "dualize", "validate_hopf", lambda r: r, "report"),
    ("pauli.json", "smash", "validate_action", lambda r: r, "report"),
    ("pauli.json", "smash", "innerify_check", lambda r: r,
     "innerify_certificate"),
    ("jones-mat2-mat4.json", "jones", "basic_construction",
     lambda bc: bc.report, "report"),
    ("jones-mat2-mat4.json", "jones", "markov_check", lambda r: r,
     "markov_certificate"),
    ("jones-mat2-mat4.json", "jones", "bimodule_endos_report", lambda r: r,
     "bimodule_report"),
    ("pauli.json", "qgal", "canonical_qgal", lambda c: c.report, "report"),
    ("banica-z2.json", "banica", "product_coaction", lambda d: d.report,
     "fixed_point_report"),
    ("banica-z2.json", "banica", "qgal_banica", lambda r: r.report,
     "report"),
    ("s3-transposition.json", "centralizer", "hopf_subalgebra_report",
     lambda r: r, "report"),
    ("z2.json", "measure", "universal_measuring_within", lambda r: r.report,
     "report"),
]
# basic_construction keeps the Markov report that the runner emits, so the
# failure is forced where it is made
FORCED_IN = {"markov_check": jones}


def test_forced_failures_cover_every_emitted_report(job_documents):
    emitted = {(op, key) for _, op, _, _, doc in job_documents
               for key in cli.REPORT_KEYS if key in doc}
    forced = set()
    for fname, job, _, _, key in FORCED:
        with open(os.path.join(FIXTURES, fname)) as fh:
            forced.add((json.load(fh)["documents"][job]["op"], key))
    assert emitted == forced


@pytest.mark.parametrize("fname,job,attr,report_of,key", FORCED,
                         ids=[f"{f}:{j}-{a}" for f, j, a, _, _ in FORCED])
def test_a_failing_report_exits_one(fname, job, attr, report_of, key,
                                    monkeypatch):
    module = FORCED_IN.get(attr, cli)
    original = getattr(module, attr)

    def failing(*args, **kwargs):
        result = original(*args, **kwargs)
        report_of(result).add("forced failure", False)
        return result

    monkeypatch.setattr(module, attr, failing)
    with open(os.path.join(FIXTURES, fname)) as fh:
        op = json.load(fh)["documents"][job]["op"]
    code, out, doc = _run([op, "--workspace", os.path.join(FIXTURES, fname),
                           "--job", job])
    assert code == 1
    assert doc[key]["passed"] is False and doc["passed"] is False
    assert '\n  "passed": false,\n' in out


# -- the writer ---------------------------------------------------------------


def _scalar(den=1, num=(1, 0), order=4):
    return {"den": den, "num": list(num), "order": order}


@pytest.mark.parametrize("doc", [
    {},
    [],
    {"a": [], "b": {}, "c": [[], {}], "d": ()},
    ((1, 2), [3, (4,)]),
    {2: "x", 10: "y", -1: "z"},
    {1.5: 0, 2: 1, True: 2, 0.25: 3},
    {None: [None]},
    {"nan": math.nan, "inf": [math.inf, -math.inf], "f": [0.1, -0.0, 1e300]},
    {"é中\U0001f600": "\x00\x1f\"\\\t\n ", "": ""},
    {"x": _scalar(), "y": [_scalar(), [_scalar()]], "z": {"w": _scalar()}},
    [_scalar(1, [1]), _scalar(True, [1]), _scalar(1, [True]),
     _scalar(1, [1], True), _scalar(1, [1.0]),
     {"den": 1, "num": (1,), "order": 4}],
    [{"den": 1, "num": [1], "order": 1, "extra": 0}, {"den": 1, "num": [1]},
     _scalar(num=[]), _scalar(2**70, [-(2**80)], 3)],
], ids=["empty-dict", "empty-list", "nested-empty", "tuples", "int-keys",
        "number-keys", "none-key", "floats", "unicode", "scalar-depths",
        "scalar-fields", "scalar-shapes"])
def test_emit_matches_json_dumps(doc):
    _assert_same(doc)


@pytest.mark.parametrize("doc", [
    {1: 0, "a": 1},
    {None: 0, "a": 1},
    {(1, 2): 0},
    {"a": object()},
    [{1, 2}],
])
def test_emit_raises_type_error_as_json_dumps_does(doc):
    with pytest.raises(TypeError) as want:
        _dumps(doc)
    with pytest.raises(TypeError) as got:
        emit(doc)
    assert str(got.value) == str(want.value)


_small = st.integers(min_value=-2, max_value=2)
_fields = st.one_of(_small, _small, _small, st.booleans(),
                    st.floats(allow_nan=True), st.text(max_size=2))
_scalars = st.fixed_dictionaries({
    "den": _fields, "order": _fields,
    "num": st.one_of(st.lists(_fields, max_size=3),
                     st.lists(_small, max_size=3).map(tuple)),
})
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(allow_nan=True, allow_infinity=True), _scalars,
)
_documents = st.recursive(_leaves, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=3), children, max_size=4),
    st.dictionaries(st.one_of(st.integers(), st.booleans(),
                              st.floats(allow_nan=True)),
                    children, max_size=4),
    st.dictionaries(st.none(), children, max_size=1),
), max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_emit_matches_json_dumps_on_drawn_documents(doc):
    _assert_same(doc)

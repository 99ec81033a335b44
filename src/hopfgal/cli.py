"""hopfgal command line: certificate-emitting jobs over workspace files.

    hopfgal <subcommand> --workspace <file> [--job <name>] [--out <file>]

Subcommands: validate, dual, smash, commutant, jones, qgal-depth2,
qgal-banica, centralizer, measure.  Each consumes documents from the
workspace (selected through a job document, or the unique job of matching
op), emits a deterministic JSON report, and exits 0 when every certificate
passed, 1 on a certificate failure, 2 on bad input, 3 when an internal
consistency guard tripped.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from . import __version__
from .actions import (
    innerify_check,
    smash_product,
    validate_action,
)
from .algebra import relative_commutant, validate_algebra
from .banica import product_coaction, qgal_banica, validate_comodule
from .errors import ConsistencyError, HopfgalError, InputError
from .galois import canonical_qgal
from .hopf import dual_hopf, validate_hopf, validate_pairing
from .jones import (
    basic_construction,
    bimodule_endos_report,
    gns,
)
from .linalg import dense_row
from .measuring import (
    SpanConstraint,
    hopf_centralizer,
    hopf_subalgebra_report,
    largest_subcoalgebra,
    universal_measuring_within,
)
from .report import CHECKS_VERSION
from .serialize import (
    MAX_DIM_ENV,
    Fields,
    Workspace,
    emit,
    max_dim,
    parse_matrix,
    subspace_doc,
)

EXIT_OK = 0
EXIT_CERT_FAILED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _tool_header(op: str) -> dict:
    return {"tool": {"name": "hopfgal", "version": __version__,
                     "checks_version": CHECKS_VERSION},
            "op": op}


def _select_job(ws: Workspace, op: str, job_name: str | None) -> dict:
    if job_name is not None:
        job = ws.get(job_name, ("job",))
        if job.get("op") != op:
            raise InputError(
                f"job {job_name!r} has op {job.get('op')!r}, expected {op!r}"
            )
        return job
    names = ws.jobs_for(op)
    if len(names) == 1:
        return ws.get(names[0], ("job",))
    if not names:
        raise InputError(f"no job with op {op!r} in the workspace")
    raise InputError(
        f"multiple jobs with op {op!r}: {sorted(names)}; pass --job"
    )


# -- job runners --------------------------------------------------------------


def _doc(ws: Workspace, job: Fields, key: str, kinds: tuple | None = None):
    """The document that the job field key names; the field is a string."""
    return ws.get(job.typed(key, str), kinds)


@contextmanager
def _refusing(ws: Workspace, name: str):
    """Name the document name in an InputError raised in the block: the
    mathematics refused what the document states.  An error whose culprit
    is a document of ws names that document instead."""
    try:
        yield
    except InputError as e:
        if e.culprit is not None:
            name = next((doc for doc, obj in ws.objects.items()
                         if obj is e.culprit), name)
        raise InputError(f"/documents/{name}: {e}") from e


def run_validate(ws: Workspace, job: dict) -> dict:
    target = job.typed("target", str)
    kind = ws.kinds.get(target)
    obj = ws.get(target)
    if kind == "hopf":
        rep = validate_hopf(obj)
    elif kind == "algebra":
        rep = validate_algebra(obj)
    elif kind == "action":
        rep = validate_action(obj)
    elif kind == "comodule":
        rep = validate_comodule(obj)
    elif kind == "pairing":
        rep = validate_pairing(obj)
    else:
        raise InputError(f"cannot validate a document of kind {kind}")
    return {"target": target, "kind": kind, "report": rep.to_json()}


def run_dual(ws: Workspace, job: dict) -> dict:
    H = _doc(ws, job, "target", ("hopf",))
    dual = dual_hopf(H)
    rep = validate_hopf(dual)
    return {"target": job["target"], "dual": dual.to_json(),
            "report": rep.to_json()}


def run_smash(ws: Workspace, job: dict) -> dict:
    act = _doc(ws, job, "action", ("action",))
    rep = validate_action(act)
    if not rep.ok:
        return {"action": job["action"], "report": rep.to_json()}
    with _refusing(ws, job["action"]):
        sp = smash_product(act)
    inner = innerify_check(sp)
    out = {
        "action": job["action"],
        "report": rep.to_json(),
        "smash": sp.total.to_json(),
        "innerify_certificate": inner.to_json(),
    }
    return out


def run_commutant(ws: Workspace, job: dict) -> dict:
    alg = _doc(ws, job, "algebra")
    sub = _doc(ws, job, "subspace", ("subspace",))
    with _refusing(ws, job["subspace"]):
        comm = relative_commutant(sub, alg)
    return {"algebra": job["algebra"], "subspace": job["subspace"],
            "commutant": subspace_doc(comm)}


def run_jones(ws: Workspace, job: dict) -> dict:
    alg = _doc(ws, job, "algebra", ("algebra",))
    sub = _doc(ws, job, "subalgebra", ("subspace",))
    with _refusing(ws, job["algebra"]):
        space = gns(alg)
    with _refusing(ws, job["subalgebra"]):
        bc = basic_construction(space, sub)
    endo_rep = bimodule_endos_report(bc)
    dims = endo_rep["dimension_matches"].witness
    return {
        "algebra": job["algebra"],
        "subalgebra": job["subalgebra"],
        "index": {"num": bc.index.numerator, "den": bc.index.denominator},
        "markov_certificate": bc.markov.to_json(),
        "dims": {
            "m1": bc.m1.dim,
            "n_commutant_cap_m1": dims["n_comm_cap_m1"],
            "bimodule_endos": dims["endos"],
        },
        "report": bc.report.to_json(),
        "bimodule_report": endo_rep.to_json(),
    }


def run_qgal_depth2(ws: Workspace, job: dict) -> dict:
    act = _doc(ws, job, "action", ("action",))
    with _refusing(ws, job["action"]):
        cert = canonical_qgal(smash_product(act))
    out = {
        "action": job["action"],
        "qgal_dim": cert.qgal.dim,
        "qgal": cert.qgal.to_json(),
        "outer": cert.outer,
        "commutant_dim": cert.outer_witness.dim,
        "report": cert.report.to_json(),
    }
    return out


def run_qgal_banica(ws: Workspace, job: dict) -> dict:
    comodule = _doc(ws, job, "comodule", ("comodule",))
    act = _doc(ws, job, "action", ("action",))
    ambient = _doc(ws, job, "ambient_hopf", ("hopf",))
    ambient_act = _doc(ws, job, "ambient_action", ("action",))
    with _refusing(ws, job["action"]):
        sp = smash_product(act)
    # a premise that fails names the document at fault
    with _refusing(ws, job["comodule"]):
        # B (x) (A x| H^cop) stores a table of dim^2 cells, bounded like
        # the work of a measure job
        dim = comodule.alg.dim * sp.total.dim
        if dim * dim > max_dim() ** 3:
            raise InputError(
                f"B (x) (A x| H^cop) has dim {dim}: its table of {dim}^2"
                f" cells exceeds the work bound {MAX_DIM_ENV}^3")
        data = product_coaction(comodule, sp)
    # the ambient action names the ambient Hopf algebra and B
    with _refusing(ws, job["ambient_action"]):
        result = qgal_banica(data, ambient, ambient_act)
    c_dim = result.invariants_algebra.dim
    return {
        "comodule": job["comodule"],
        "ambient_hopf": job["ambient_hopf"],
        "centralizer_basis": subspace_doc(result.subspace),
        "centralizer_hopf": result.hopf.to_json(),
        "lifted_action": [
            [[v.to_json() for v in dense_row(cell, c_dim)] for cell in plane]
            for plane in result.lifted_action.act
        ],
        "fixed_point_report": data.report.to_json(),
        "report": result.report.to_json(),
    }


def run_centralizer(ws: Workspace, job: dict) -> dict:
    Q = _doc(ws, job, "hopf", ("hopf",))
    S = _doc(ws, job, "subspace", ("subspace",))
    with _refusing(ws, job["subspace"]):
        result = hopf_centralizer(Q, S)
    rep = hopf_subalgebra_report(Q, result)
    return {
        "hopf": job["hopf"],
        "subspace": job["subspace"],
        "centralizer": subspace_doc(result),
        "report": rep.to_json(),
    }


def run_measure(ws: Workspace, job: dict) -> dict:
    C = _doc(ws, job, "coalgebra", ("hopf",))
    if job.get("within") is not None:
        target = job.typed("within", str)
        sub = ws.get(target, ("subspace",))
        stabilizers = [C.antipode_vec, C.star_vec] \
            if job.typed("stabilize", bool, True) else []
        log: list[int] = []
        with _refusing(ws, target):
            result = largest_subcoalgebra(C.coalgebra, sub, stabilizers, log)
        return {
            "coalgebra": job["coalgebra"],
            "within": target,
            "subcoalgebra": subspace_doc(result),
            "iteration_dims": log,
        }
    act = _doc(ws, job, "action", ("action",))
    if act.hopf is not C:
        hopf = ws.raw[job["action"]]["hopf"]
        raise InputError(
            f"{job.where}.coalgebra: {job['coalgebra']!r} is not {hopf!r},"
            f" the Hopf algebra that the action {job['action']!r} acts by")
    C, carrier_dim = C.coalgebra, act.alg.dim * act.alg.dim
    # The row width of a span bounds nothing when carrier_dim is 1, nor
    # the terms of Delta^(m), so the work of evaluating the spans on every
    # basis element e_i is bounded before it starts, against one budget
    # for the job: Delta^(m)(e_i) has at most T_m[i] terms (T_1 = 1,
    # T_m[i] the sum of T_{m-1}[k] over (j, k) in supp Delta(e_i)), each
    # costing m legs and a sparse Kronecker power of at most carrier_dim**m
    # entries, and each of the m steps visits every e_i.  The count stops
    # as soon as the budget is spent, so a huge leg count costs nothing.
    budget = max_dim() ** 3
    extra = []
    for i, span_doc in enumerate(job.typed("spans", list, [])):
        where = f"{job.where}.spans[{i}]"
        span_doc = Fields(span_doc, where, job.order)
        span = SpanConstraint.from_matrices(
            span_doc.integer("l"), span_doc.integer("r"),
            parse_matrix(span_doc["left"], f"{where}.left", span_doc.scalar),
            parse_matrix(span_doc["right"], f"{where}.right",
                         span_doc.scalar),
            carrier_dim,
            name=where,
        )
        for legs in span.shape:
            terms = [1] * C.dim
            for m in range(1, legs + 1):
                if m > 1:
                    terms = [sum(terms[k] for _, k in plane)
                             for plane in C.comult]
                budget -= C.dim + sum(terms) * (m + carrier_dim ** m)
                if budget < 0:
                    raise InputError(
                        f"{where}: evaluating {legs} legs over {C.dim} basis"
                        f" elements exceeds the work bound {MAX_DIM_ENV}^3")
        extra.append(span)
    res = universal_measuring_within(
        C, act.alg, act.alg, act.to_hom_map(), extra=extra
    )
    return {
        "coalgebra": job["coalgebra"],
        "action": job["action"],
        "subcoalgebra": subspace_doc(res.subspace),
        "iteration_dims": res.log,
        "report": res.report.to_json(),
    }


RUNNERS = {
    "validate": run_validate,
    "dual": run_dual,
    "smash": run_smash,
    "commutant": run_commutant,
    "jones": run_jones,
    "qgal-depth2": run_qgal_depth2,
    "qgal-banica": run_qgal_banica,
    "centralizer": run_centralizer,
    "measure": run_measure,
}


# Every report a runner emits is the top-level value at one of these keys.
REPORT_KEYS = ("report", "markov_certificate", "bimodule_report",
               "innerify_certificate", "fixed_point_report")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hopfgal",
        description="exact Hopf *-algebra symmetry computations",
    )
    sub = parser.add_subparsers(dest="op", required=True)
    for op in RUNNERS:
        p = sub.add_parser(op)
        p.add_argument("--workspace", required=True)
        p.add_argument("--job", default=None)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        ws = Workspace.load(args.workspace)
        job = _select_job(ws, args.op, args.job)
        body = RUNNERS[args.op](ws, job)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ConsistencyError as e:
        print(f"internal consistency guard: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except HopfgalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT

    doc = _tool_header(args.op)
    doc.update(body)
    passed = all(body[key]["passed"] for key in REPORT_KEYS if key in body)
    doc["passed"] = passed
    text = emit(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if passed else EXIT_CERT_FAILED


if __name__ == "__main__":
    sys.exit(main())

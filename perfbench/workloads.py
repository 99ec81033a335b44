"""Seeded workspace generators and the known answer of every benchmark job.

Every workspace is built here from plain integers and fractions, without
importing hopfgal, so that the answer each job is checked against comes
from theory (group tables, representation dimensions, index formulas) and
not from the code under test.  The seed relabels the non-identity elements
of the cyclic and Klein groups, picks the centralized group elements and
orders the cli-cold jobs; no answer depends on it.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

FIXTURES_DIR = "fixtures"


# -- jobs ---------------------------------------------------------------------


@dataclass
class Job:
    """One CLI call: `hopfgal <op> --workspace <workspace> --job <job>`."""

    name: str
    op: str
    workspace: str  # file name inside the work directory
    job: str
    exit_code: int = 0
    # (description, extractor from the certificate document, expected value)
    answers: list = field(default_factory=list)

    def argv(self, workdir: str) -> list[str]:
        return [self.op, "--workspace", os.path.join(workdir, self.workspace),
                "--job", self.job]

    def check(self, code: int, out: bytes) -> str | None:
        """None when the verdict matches the known answer, else the reason."""
        if code != self.exit_code:
            return f"exit code {code}, expected {self.exit_code}"
        try:
            doc = json.loads(out)
        except ValueError:
            return "certificate is not JSON"
        if doc.get("passed") is not (self.exit_code == 0):
            return f"passed={doc.get('passed')!r} with exit code {code}"
        for what, get, want in self.answers:
            try:
                got = get(doc)
            except (KeyError, IndexError, TypeError):
                got = None
            if got != want:
                return f"{what}: got {got!r}, expected {want!r}"
        return None


def _at(*path):
    def get(doc):
        for key in path:
            doc = doc[key]
        return doc
    return get


# -- exact cyclotomic scalars -------------------------------------------------


def _poly_div(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q = num[i + len(den) - 1] // den[-1]
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    return out


def cyclotomic(n: int) -> list[int]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div(poly, cyclotomic(d))
    return poly


def zeta(n: int, k: int) -> list[int]:
    """zeta_n^k in the power basis of Q(zeta_n) modulo Phi_n."""
    phi = cyclotomic(n)
    deg = len(phi) - 1
    coeffs = [0] * max(deg, (k % n) + 1)
    coeffs[k % n] = 1
    for top in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[top]
        if c:
            for j, p in enumerate(phi):
                coeffs[top - deg + j] -= c * p
    return coeffs[:deg]


def scalar(order: int, num: list, den: int = 1):
    """Workspace JSON of (sum num[k] zeta^k) / den."""
    if all(a == 0 for a in num[1:]):
        f = Fraction(num[0], den)
        return f.numerator if f.denominator == 1 else [f.numerator,
                                                        f.denominator]
    return {"order": order, "num": list(num), "den": den}


def gauss(re: Fraction, im: Fraction):
    """Workspace JSON of re + i*im in Q(i)."""
    den = re.denominator * im.denominator
    return scalar(4, [int(re * den), int(im * den)], den)


# -- building blocks ----------------------------------------------------------


def mat_algebra(n: int) -> dict:
    """Mat_n on matrix units E_ab (index a*n + b), trace state."""
    dim = n * n
    mult = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a, b, d in itertools.product(range(n), repeat=3):
        mult[a * n + b][b * n + d][a * n + d] = 1
    unit = [1 if i // n == i % n else 0 for i in range(dim)]
    star = [[1 if j == (i % n) * n + i // n else 0 for j in range(dim)]
            for i in range(dim)]
    state = [[1, n] if i // n == i % n else 0 for i in range(dim)]
    return {"kind": "algebra", "dim": dim, "mult": mult, "unit": unit,
            "star": star, "state": state}


def relabel(n: int, rng: random.Random) -> list[int]:
    """A permutation of range(n) that fixes 0 (the identity element)."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def group_table(elements: list, compose: Callable) -> list[list[int]]:
    index = {g: i for i, g in enumerate(elements)}
    return [[index[compose(g, h)] for h in elements] for g in elements]


def centralizer_order(table: list[list[int]], g: int) -> int:
    return sum(1 for h in range(len(table)) if table[g][h] == table[h][g])


def _action(hopf: str, alg: str, planes: list) -> dict:
    return {"kind": "action", "hopf": hopf, "alg": alg, "act": planes}


def _job(op: str, **refs) -> dict:
    return {"kind": "job", "op": op, **refs}


# -- jones-tower --------------------------------------------------------------


def _dft_conjugated_mat2() -> dict:
    """Mat2 (x) 1 inside Mat4, conjugated by the DFT unitary (1/2)[i^(jk)]."""
    i_pow = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
             (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))]
    U = [[tuple(x / 2 for x in i_pow[(j * k) % 4]) for k in range(4)]
         for j in range(4)]
    Ustar = [[(U[k][j][0], -U[k][j][1]) for k in range(4)] for j in range(4)]

    def mul(A, B):
        out = []
        for r in range(4):
            row = []
            for c in range(4):
                re = sum(A[r][k][0] * B[k][c][0] - A[r][k][1] * B[k][c][1]
                         for k in range(4))
                im = sum(A[r][k][0] * B[k][c][1] + A[r][k][1] * B[k][c][0]
                         for k in range(4))
                row.append((re, im))
            out.append(row)
        return out

    basis = []
    for p, q in itertools.product(range(2), repeat=2):
        E = [[(Fraction(int(r // 2 == p and c // 2 == q and r % 2 == c % 2)),
               Fraction(0)) for c in range(4)] for r in range(4)]
        X = mul(mul(U, E), Ustar)
        basis.append([gauss(*X[r][c]) for r in range(4) for c in range(4)])
    return {"documents": {
        "mat4": mat_algebra(4),
        "n": {"kind": "subspace", "ambient_dim": 16, "basis": basis},
        "jones": _job("jones", algebra="mat4", subalgebra="n"),
    }}


def _scalars_in_mat3() -> dict:
    return {"documents": {
        "mat3": mat_algebra(3),
        "n": {"kind": "subspace", "ambient_dim": 9,
              "basis": [[1 if i in (0, 4, 8) else 0 for i in range(9)]]},
        "jones": _job("jones", algebra="mat3", subalgebra="n"),
    }}


def _jones_answers(k: int, m: int) -> list:
    """Mat_k in Mat_m: index (m/k)^2, basic construction of dim (m^2/k)^2."""
    return [("index", _at("index"), {"num": (m // k) ** 2, "den": 1}),
            ("dim M1", _at("dims", "m1"), (m * m // k) ** 2)]


def jones_tower(rng: random.Random, root: str) -> tuple[dict, list[Job]]:
    with open(os.path.join(root, FIXTURES_DIR, "jones-mat2-mat4.json")) as fh:
        shipped = json.load(fh)
    spaces = {"mat2-mat4.json": shipped,
              "c-mat3.json": _scalars_in_mat3(),
              "dft-mat2-mat4.json": _dft_conjugated_mat2()}
    jobs = [
        Job("mat2-in-mat4", "jones", "mat2-mat4.json", "jones",
            answers=_jones_answers(2, 4)),
        Job("c-in-mat3", "jones", "c-mat3.json", "jones",
            answers=_jones_answers(1, 3)),
        Job("dft-mat2-in-mat4", "jones", "dft-mat2-mat4.json", "jones",
            answers=_jones_answers(2, 4)),
    ]
    return spaces, jobs


# -- galois-cyclotomic --------------------------------------------------------


def _cyclic_clock(n: int, size: int, exponents: list[int],
                  rng: random.Random) -> dict:
    """Z_n acting on Mat_size by Ad diag(zeta_n^e).

    g acts on the matrix unit E_ab by the scalar zeta_n^(g (e_a - e_b)).
    """
    label = relabel(n, rng)
    table = [[0] * n for _ in range(n)]
    for j, k in itertools.product(range(n), repeat=2):
        table[label[j]][label[k]] = label[(j + k) % n]
    dim = size * size
    planes = [None] * n
    for g in range(n):
        plane = []
        for a, b in itertools.product(range(size), repeat=2):
            line = [0] * dim
            line[a * size + b] = scalar(n, zeta(n, g * (exponents[a]
                                                        - exponents[b])))
            plane.append(line)
        planes[label[g]] = plane
    return {"documents": {
        "g": {"kind": "hopf", "group_table": table},
        "mat": mat_algebra(size),
        "act": _action("g", "mat", planes),
        "qgal": _job("qgal-depth2", action="act"),
    }}


def _pauli(rng: random.Random) -> dict:
    """K4 = Z2 x Z2 acting on Mat2 by Ad of 1, X, Z, XZ (bit pattern of g)."""
    X = [[0, 1], [1, 0]]
    Z = [[1, 0], [0, -1]]
    eye = [[1, 0], [0, 1]]

    def mm(A, B):
        return [[sum(A[r][k] * B[k][c] for k in range(2)) for c in range(2)]
                for r in range(2)]

    units = [eye, X, Z, mm(X, Z)]
    label = relabel(4, rng)
    table = [[0] * 4 for _ in range(4)]
    for j, k in itertools.product(range(4), repeat=2):
        table[label[j]][label[k]] = label[j ^ k]
    planes = [None] * 4
    for g, u in enumerate(units):
        # u E_ab u^T has (c, d) entry u[c][a] u[d][b]; each u is real
        # orthogonal, so u^T = u*
        planes[label[g]] = [
            [u[c][a] * u[d][b] for c in range(2) for d in range(2)]
            for a in range(2) for b in range(2)]
    return {"documents": {
        "g": {"kind": "hopf", "group_table": table},
        "mat": mat_algebra(2),
        "act": _action("g", "mat", planes),
        "qgal": _job("qgal-depth2", action="act"),
    }}


def galois_cyclotomic(rng: random.Random, root: str) -> tuple[dict, list[Job]]:
    spaces = {"pauli-k4.json": _pauli(rng),
              "clock-z3.json": _cyclic_clock(3, 3, [0, 1, 2], rng),
              "diag-z5.json": _cyclic_clock(5, 2, [0, 1], rng),
              "diag-z6.json": _cyclic_clock(6, 2, [0, 1], rng)}
    jobs = [Job(name.removesuffix(".json"), "qgal-depth2", name, "qgal",
                answers=[("qgal_dim = |G|", _at("qgal_dim"), order)])
            for name, order in (("pauli-k4.json", 4), ("clock-z3.json", 3),
                                ("diag-z5.json", 5), ("diag-z6.json", 6))]
    return spaces, jobs


# -- measuring-ladder ---------------------------------------------------------


def _perm_group(points: int, with_z2: bool):
    """S4 (x Z2) as permutations of `points` points, the identity first.

    S4 moves 0..3 and the Z2 factor swaps points 4 and 5.  The elements keep
    this fixed order: relabeling them by the seed moved the time of
    `measure --within` on C(S4) by a factor of two through the pivot order of
    the elimination, which would drown every other difference between runs.
    """
    elements = []
    for p in itertools.permutations(range(4)):
        for z in ((0, 1) if with_z2 else (0,)):
            tail = ((5, 4) if z else (4, 5)) if with_z2 else ()
            elements.append(tuple(p) + tail)
    table = group_table(elements, lambda p, q: tuple(p[q[x]]
                                                     for x in range(points)))
    return elements, table


def _sign(p) -> int:
    inversions = sum(1 for i, j in itertools.combinations(range(4), 2)
                     if p[i] > p[j])
    return -1 if inversions % 2 else 1


def _rank(vectors: list[list]) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# element indices that carry the measuring noise, one pair per vector
NOISE_SUPPORT = ((1, 2), (3, 5))


def _measure_within(points: int, with_z2: bool):
    """C(G) with W = permutation-representation coefficients + 2 noise vectors.

    Each noise vector is the indicator of two fixed group elements.  Drawing
    them from the seed (their support or their signs) moved the time of the
    job by up to a third through the pivot order of the elimination, which
    would drown every other difference between runs.

    The coefficient space of the permutation representation is a stabilized
    subcoalgebra of dim 1 + 9 (trivial + standard of S4), plus the sign
    character of the Z2 factor.  C(G) is cosemisimple, so the largest
    subcoalgebra inside W is the sum of the matrix-coefficient blocks lying in
    W.  The blocks outside the coefficient space are orthogonal to it, so
    with two noise vectors only a one-dimensional block (a character) could
    join; the check below shows that none lies in W.
    """
    elements, table = _perm_group(points, with_z2)
    coeffs = [[int(g[j] == i) for g in elements]
              for i in range(points) for j in range(points)]
    expected = _rank(coeffs)
    z_sign = [-1 if with_z2 and g[4] == 5 else 1 for g in elements]
    outside = [[_sign(g) for g in elements]]
    if with_z2:
        outside.append([_sign(g) * z for g, z in zip(elements, z_sign)])
    noise = [[int(k in picks) for k in range(len(elements))]
             for picks in NOISE_SUPPORT]
    base = _rank(coeffs + noise)
    if base != expected + 2 or any(
            _rank(coeffs + noise + [chi]) != base + 1 for chi in outside):
        raise RuntimeError("noise vectors would change the known answer")
    return {
        "cg": {"kind": "hopf", "group_table": table, "dual": True},
        "w": {"kind": "subspace", "ambient_dim": len(elements),
              "basis": coeffs + noise},
        "measure": _job("measure", coalgebra="cg", within="w"),
    }, expected


def _centralizer(points: int, with_z2: bool, cycle: int,
                 rng: random.Random):
    """Hopf centralizer of span{g} in CG, which is C[C_G(g)].

    g is a seeded element moving exactly `cycle` of the points 0..3 in one
    cycle (and swapping 4 and 5 when G has the Z2 factor), so g is never
    central.
    """
    elements, table = _perm_group(points, with_z2)
    candidates = [
        i for i, g in enumerate(elements)
        if sum(1 for x in range(4) if g[x] != x) == cycle
        and all(g[x] == x or _cycle_len(g, x) == cycle for x in range(4))
        and (not with_z2 or g[4] == 5)]
    g = rng.choice(candidates)
    n = len(elements)
    return {
        "cg": {"kind": "hopf", "group_table": table},
        "s": {"kind": "subspace", "ambient_dim": n,
              "basis": [[int(k == g) for k in range(n)]]},
        "centralizer": _job("centralizer", hopf="cg", subspace="s"),
    }, centralizer_order(table, g)


def _cycle_len(g, x) -> int:
    n, y = 1, g[x]
    while y != x:
        n, y = n + 1, g[y]
    return n


def measuring_ladder(rng: random.Random, root: str) -> tuple[dict, list[Job]]:
    m_s4, dim_s4 = _measure_within(4, False)
    m_s4z2, dim_s4z2 = _measure_within(6, True)
    c_s4z2, cent_s4z2 = _centralizer(6, True, 2, rng)
    c_s4, cent_s4 = _centralizer(4, False, 2, rng)
    _, s4_table = _perm_group(4, False)
    with open(os.path.join(root, FIXTURES_DIR, "banica-z2.json")) as fh:
        banica = json.load(fh)
    spaces = {
        "measure-s4.json": {"documents": m_s4},
        "measure-s4z2.json": {"documents": m_s4z2},
        "centralizer-s4z2.json": {"documents": c_s4z2},
        "centralizer-s4.json": {"documents": c_s4},
        "cs4.json": {"documents": {
            "cs4": {"kind": "hopf", "group_table": s4_table},
            "validate": _job("validate", target="cs4"),
            "dual": _job("dual", target="cs4"),
        }},
        "banica-z2.json": banica,
    }
    within = ("subcoalgebra dim", _at("subcoalgebra", "dim"))
    cent = ("centralizer dim = |C_G(g)|", _at("centralizer", "dim"))
    jobs = [
        Job("measure-within-s4", "measure", "measure-s4.json", "measure",
            answers=[within + (dim_s4,)]),
        Job("measure-within-s4xz2", "measure", "measure-s4z2.json", "measure",
            answers=[within + (dim_s4z2,)]),
        Job("centralizer-s4xz2", "centralizer", "centralizer-s4z2.json",
            "centralizer", answers=[cent + (cent_s4z2,)]),
        Job("centralizer-s4", "centralizer", "centralizer-s4.json",
            "centralizer", answers=[cent + (cent_s4,)]),
        Job("validate-cs4", "validate", "cs4.json", "validate"),
        Job("dual-cs4", "dual", "cs4.json", "dual",
            answers=[("dual dim", _at("dual", "dim"), 24)]),
        Job("qgal-banica", "qgal-banica", "banica-z2.json", "banica",
            answers=[("centralizer Hopf dim = |Z2|",
                      _at("centralizer_hopf", "dim"), 2)]),
    ]
    return spaces, jobs


# -- cli-cold -----------------------------------------------------------------

# Known answers of the shipped fixtures, from theory: the quantum Galois
# group of an outer G-action is C(G), the Hopf centralizer of a group
# element is C[C_G(g)], the commutant of Mat2 (x) 1 in Mat4 is 1 (x) Mat2, and
# a group algebra with the identity as antipode fails the antipode axiom.
FIXTURE_ANSWERS = {
    ("pauli.json", "qgal"): (0, [("qgal_dim = |K4|", _at("qgal_dim"), 4)]),
    ("z2.json", "qgal"): (0, [("qgal_dim = |Z2|", _at("qgal_dim"), 2)]),
    ("s3-transposition.json", "centralizer"):
        (0, [("centralizer dim = |C_S3((01))|",
              _at("centralizer", "dim"), 2)]),
    ("jones-mat2-mat4.json", "commutant"):
        (0, [("commutant dim", _at("commutant", "dim"), 4)]),
    ("banica-z2.json", "banica"):
        (0, [("centralizer Hopf dim = |Z2|",
              _at("centralizer_hopf", "dim"), 2)]),
    ("broken-hopf.json", "check"): (1, []),
}


def fixture_jobs(root: str) -> list[tuple[str, str, str]]:
    """(file, job name, op) of every shipped fixture job, jones excluded."""
    out = []
    directory = os.path.join(root, FIXTURES_DIR)
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".json"):
            continue
        with open(os.path.join(directory, fname)) as fh:
            docs = json.load(fh)["documents"]
        for name, body in sorted(docs.items()):
            if body.get("kind") == "job" and body.get("op") != "jones":
                out.append((fname, name, body["op"]))
    return out


def cli_cold(rng: random.Random, root: str) -> tuple[dict, list[Job]]:
    spaces = {}
    jobs = []
    for fname, name, op in fixture_jobs(root):
        with open(os.path.join(root, FIXTURES_DIR, fname)) as fh:
            spaces[fname] = json.load(fh)
        code, answers = FIXTURE_ANSWERS.get((fname, name), (0, []))
        jobs.append(Job(f"{fname.removesuffix('.json')}:{name}", op, fname,
                        name, exit_code=code, answers=answers))
    rng.shuffle(jobs)
    return spaces, jobs


WORKLOADS = {
    "jones-tower": jones_tower,
    "galois-cyclotomic": galois_cyclotomic,
    "measuring-ladder": measuring_ladder,
    "cli-cold": cli_cold,
}

# Workloads whose jobs each run in a fresh `python -m hopfgal.cli` process.
COLD = {"cli-cold"}


def generate(workload: str, seed: int, root: str, workdir: str) -> list[Job]:
    """Write the workload's workspaces into workdir and return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    spaces, jobs = WORKLOADS[workload](rng, root)
    os.makedirs(workdir, exist_ok=True)
    for fname, doc in spaces.items():
        with open(os.path.join(workdir, fname), "w") as fh:
            json.dump(doc, fh, sort_keys=True)
    return jobs

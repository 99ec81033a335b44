"""Golden certificates: the exact CLI output of every shipped fixture job.

Each entry is (workspace, job, op, exit code, SHA-256 of stdout).  Any change
to a certificate byte, including the Scalar orders inside emitted bases,
shows up here; a change that is meant to alter output must update the hash
and say why.
"""

import hashlib
import json
import os

import pytest

from hopfgal.cli import main
from hopfgal.scalars import Scalar

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

GOLDEN = [
    ("banica-z2.json", "banica", "qgal-banica", 0,
     "e0073d28bea567c19c00e286ad5a4d51ea0ecb44139a3eccce8fa297df2b6eb6"),
    ("broken-hopf.json", "check", "validate", 1,
     "1cf3b9498a08522f6d32d752b766a5d031384cdf999aae00cdc5e7f285bddda8"),
    ("jones-mat2-mat4.json", "commutant", "commutant", 0,
     "e7bedf770aab2801067950a055782631221d39d6df54e46fa7913bcbcd8c118f"),
    ("jones-mat2-mat4.json", "jones", "jones", 0,
     "ed249e0af49aa330bad9ce0e3fe4f9b3fc3182f1d8a52f48bdd3a75b29a2a04e"),
    ("pauli.json", "check", "validate", 0,
     "c5102f877c593fe205ca98b5042995b484e576decc9398edf944656047d6e206"),
    ("pauli.json", "dualize", "dual", 0,
     "3f26a40565af5769459c5b0ab0a81f53b998698f36c1f50296945b04629d2022"),
    ("pauli.json", "qgal", "qgal-depth2", 0,
     "ad94274cece6e59eb06f569419f7b4a94957a1b061933064fd141c550e48b87e"),
    ("pauli.json", "smash", "smash", 0,
     "3b261f7d88f49b5c58fe70766781ec7ee4cbf3687b331a81881ac62c095b051b"),
    ("s3-transposition.json", "centralizer", "centralizer", 0,
     "afe1fa0c842f8d304be563df2069c6445ee845940757a67bd8118e8a0633d528"),
    ("translation-z2.json", "smash", "smash", 0,
     "67da519ac6b9f97a4b89ca91e1468fe2d6f28b1d07494a67f47bb9ebba47ea73"),
    ("z2.json", "measure", "measure", 0,
     "a76f137695fbc18c9b59c695a821ba332c4ef15a3c228e6debd1050404f69156"),
    ("z2.json", "qgal", "qgal-depth2", 0,
     "5090376d1af8e526cea40ff6f22d64102bb423bde3d27f7a0fae273d754e5d85"),
    ("z2.json", "smash", "smash", 0,
     "6fb4e805193fbd64058f1cd7d8555367ea4d4df34169c64032d41ca9f9874ebe"),
]


def test_every_fixture_job_has_a_golden_hash():
    jobs = set()
    for fname in os.listdir(FIXTURES):
        with open(os.path.join(FIXTURES, fname)) as fh:
            docs = json.load(fh)["documents"]
        jobs |= {(fname, name) for name, d in docs.items()
                 if d.get("kind") == "job"}
    assert jobs == {(f, j) for f, j, _, _, _ in GOLDEN}


@pytest.mark.parametrize("fname,job,op,code,digest", GOLDEN,
                         ids=[f"{f}:{j}" for f, j, _, _, _ in GOLDEN])
def test_fixture_job_output_is_byte_identical(fname, job, op, code, digest,
                                              capsys):
    path = os.path.join(FIXTURES, fname)
    assert main([op, "--workspace", path, "--job", job]) == code
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


# -- qgal-depth2 with phi(N) > 1 ----------------------------------------------


def _mat_algebra_doc(n):
    dim = n * n
    mult = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            for d in range(n):
                mult[a * n + b][b * n + d][a * n + d] = 1
    return {"kind": "algebra", "dim": dim, "mult": mult,
            "unit": [1 if i // n == i % n else 0 for i in range(dim)],
            "star": [[1 if j == (i % n) * n + i // n else 0
                      for j in range(dim)] for i in range(dim)],
            "state": [[1, n] if i // n == i % n else 0 for i in range(dim)]}


def _diagonal_action_workspace(n, exponents):
    """Z_n acting on Mat_size by Ad diag(zeta_n^e): g . E_ab is
    zeta_n^(g (e_a - e_b)) E_ab."""
    size = len(exponents)
    dim = size * size
    planes = []
    for g in range(n):
        plane = []
        for a in range(size):
            for b in range(size):
                k = g * (exponents[a] - exponents[b]) % n
                line = [0] * dim
                line[a * size + b] = (
                    1 if k == 0 else Scalar.root_of_unity(n, k).to_json())
                plane.append(line)
        planes.append(plane)
    table = [[(j + k) % n for k in range(n)] for j in range(n)]
    return {"documents": {
        "g": {"kind": "hopf", "group_table": table},
        "mat": _mat_algebra_doc(size),
        "act": {"kind": "action", "hopf": "g", "alg": "mat", "act": planes},
        "qgal": {"kind": "job", "op": "qgal-depth2", "action": "act"},
    }}


# Recorded before the action and algebra validators moved to the sparse
# structure constants; the shipped fixtures only reach Q(zeta_N) with
# phi(N) = 1 through the Pauli action.
CYCLOTOMIC_GOLDEN = [
    ("clock-z3-mat3", 3, [0, 1, 2],
     "cb5a04307e5d75f9f747f40fedc29c772246124eea667305a9102c06cc5770a5"),
    ("diag-z5-mat2", 5, [0, 1],
     "010a4f728a51360557d082d0ed837f9963bf0bd7de6c4165cb4e2371d71cf65b"),
]


@pytest.mark.parametrize("name,n,exponents,digest", CYCLOTOMIC_GOLDEN,
                         ids=[c[0] for c in CYCLOTOMIC_GOLDEN])
def test_cyclotomic_qgal_output_is_byte_identical(name, n, exponents, digest,
                                                  tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_diagonal_action_workspace(n, exponents)))
    assert main(["qgal-depth2", "--workspace", str(path), "--job", "qgal"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest

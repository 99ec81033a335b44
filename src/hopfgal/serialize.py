"""JSON document schema: parsing, validation, canonical emission.

A workspace file is one JSON object {"documents": {name: document}}.  Every
document carries a "kind" from {algebra, hopf, action, comodule, pairing,
subspace, job} and may reference other documents by name.  Scalars appear
as integers, [num, den] pairs, or {"order", "num", "den"} objects; all
scalars in a workspace are lifted to the lcm of the orders present.
Emission is deterministic: `emit`, a direct recursive writer, writes exactly
the bytes of json.dumps(doc, sort_keys=True, indent=2, separators=(",",
": ")) + "\n", so identical inputs give byte-identical reports.
"""

from __future__ import annotations

import json
import math
import os

from .actions import ModuleAlgebraAction
from .algebra import StarAlgebra
from .banica import ComoduleAlgebra
from .errors import InputError
from .hopf import HopfPairing, HopfStarAlgebra, group_algebra
from .linalg import Subspace
from .scalars import Scalar

KINDS = ("algebra", "hopf", "action", "comodule", "pairing", "subspace",
         "job")

MAX_DIM_ENV = "HOPFGAL_MAX_DIM"
DEFAULT_MAX_DIM = 64
# Q(zeta_N) keeps 2N power rows of length phi(N), so a workspace whose
# scalar orders, or their lcm, exceed this is refused before any is built
MAX_ORDER = 1024


def max_dim() -> int:
    raw = os.environ.get(MAX_DIM_ENV)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        return int(raw)
    except ValueError as e:
        raise InputError(f"{MAX_DIM_ENV} must be an integer") from e


def check_orders(documents) -> None:
    """Refuse raw documents whose scalar orders lift above MAX_ORDER."""
    target, stack = 1, [documents]
    while stack:
        obj = stack.pop()
        if isinstance(obj, list):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
            if "order" in obj:
                try:
                    target = math.lcm(target, max(1, int(obj["order"])))
                except (TypeError, ValueError, OverflowError) as e:
                    raise InputError(f"scalar order {obj['order']!r} is not"
                                     " an integer") from e
                if target > MAX_ORDER:
                    raise InputError(f"scalar orders lift to {target}, above"
                                     f" the maximum order {MAX_ORDER}")


def scalar_from(doc, where: str) -> Scalar:
    try:
        return Scalar.from_json(doc)
    except InputError as e:
        raise InputError(f"{where}: {e}") from e


def _vector(doc, where: str) -> list:
    if not isinstance(doc, list):
        raise InputError(f"{where}: expected an array")
    return [scalar_from(v, f"{where}[{i}]") for i, v in enumerate(doc)]


def _matrix(doc, where: str) -> list:
    if not isinstance(doc, list):
        raise InputError(f"{where}: expected an array of rows")
    return [_vector(r, f"{where}[{i}]") for i, r in enumerate(doc)]


def _sized(doc, dim: int, where: str, what: str) -> list:
    if not isinstance(doc, list) or len(doc) != dim:
        raise InputError(f"{where}: expected {dim} {what}")
    return doc


def _square(doc, dim: int, where: str) -> list:
    """A dim x dim matrix, each row checked before it is read."""
    return [_vector(_sized(row, dim, f"{where}[{i}]", "entries"),
                    f"{where}[{i}]")
            for i, row in enumerate(_sized(doc, dim, where, "rows"))]


def _cube(doc, dim: int, where: str):
    """The nonzero entries (i, j, k, s) of a dim x dim x dim table."""
    for i, plane in enumerate(_sized(doc, dim, where, "planes")):
        for j, line in enumerate(_sized(plane, dim, f"{where}[{i}]", "rows")):
            line = _sized(line, dim, f"{where}[{i}][{j}]", "entries")
            for k, v in enumerate(line):
                s = scalar_from(v, f"{where}[{i}][{j}][{k}]")
                if s:
                    yield i, j, k, s


def _tensor3_sparse(doc, dim: int, where: str):
    out = [[{} for _ in range(dim)] for _ in range(dim)]
    for i, j, k, s in _cube(doc, dim, where):
        out[i][j][k] = s
    return out


def _comult_sparse(doc, dim: int, where: str):
    out = [{} for _ in range(dim)]
    for i, j, k, s in _cube(doc, dim, where):
        out[i][(j, k)] = s
    return out


# -- document parsers -----------------------------------------------------------


def parse_algebra(body: dict, where: str) -> StarAlgebra:
    try:
        dim = int(body["dim"])
    except KeyError as e:
        raise InputError(f"{where}: missing field {e}") from e
    if dim > max_dim():
        raise InputError(f"{where}: dim {dim} exceeds {MAX_DIM_ENV}")
    mult = _tensor3_sparse(body["mult"], dim, f"{where}.mult")
    unit = _vector(body["unit"], f"{where}.unit")
    star = _square(body["star"], dim, f"{where}.star")
    state = None
    if body.get("state") is not None:
        state = _vector(body["state"], f"{where}.state")
    return StarAlgebra(dim, mult, unit, star, state,
                       name=body.get("name", ""))


def parse_hopf(body: dict, where: str) -> HopfStarAlgebra:
    if "group_table" in body:
        table = body["group_table"]
        H = group_algebra(table, name=body.get("name", ""))
        if body.get("dual"):
            from .hopf import function_algebra

            return function_algebra(table, name=body.get("name", ""))
        return H
    alg = parse_algebra(body, where)
    comult = _comult_sparse(body["comult"], alg.dim, f"{where}.comult")
    counit = _vector(body["counit"], f"{where}.counit")
    antipode = _square(body["antipode"], alg.dim, f"{where}.antipode")
    return HopfStarAlgebra(alg, comult, counit, antipode,
                           name=body.get("name", ""))


class JobDoc(dict):
    """A job document; reading a field it lacks is an input error."""

    __slots__ = ("where",)

    def __init__(self, body: dict, where: str):
        super().__init__(body)
        self.where = where

    def __missing__(self, key):
        raise InputError(f"{self.where}: missing field {key!r}")


class Workspace:
    """Resolved object graph of a workspace file."""

    def __init__(self, documents: dict):
        self.raw = documents
        self.objects: dict = {}
        self.kinds: dict = {}
        check_orders(documents)
        self._parse_all()

    @staticmethod
    def load(path: str) -> "Workspace":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as e:
            raise InputError(f"cannot read workspace: {e}") from e
        except json.JSONDecodeError as e:
            raise InputError(f"workspace is not valid JSON: {e}") from e
        if not isinstance(doc, dict) or "documents" not in doc:
            raise InputError('workspace must be {"documents": {...}}')
        return Workspace(doc["documents"])

    def _parse_all(self):
        for name, body in self.raw.items():
            if not isinstance(body, dict) or "kind" not in body:
                raise InputError(f"/documents/{name}: missing kind")
            kind = body["kind"]
            if kind not in KINDS:
                raise InputError(f"/documents/{name}: unknown kind {kind!r}")
            self.kinds[name] = kind
        order = ("algebra", "hopf", "subspace", "action", "comodule",
                 "pairing", "job")
        for kind in order:
            for name, body in self.raw.items():
                if self.kinds[name] != kind:
                    continue
                where = f"/documents/{name}"
                self.objects[name] = self._parse_one(kind, body, where)

    def _ref(self, body: dict, key: str, kinds: tuple, where: str):
        try:
            ref = body[key]
        except KeyError as e:
            raise InputError(f"{where}: missing reference {key!r}") from e
        if ref not in self.objects:
            raise InputError(f"{where}.{key}: dangling reference {ref!r}")
        if self.kinds[ref] not in kinds:
            raise InputError(
                f"{where}.{key}: {ref!r} has kind {self.kinds[ref]},"
                f" expected one of {kinds}"
            )
        return self.objects[ref]

    def _parse_one(self, kind: str, body: dict, where: str):
        if kind == "algebra":
            return parse_algebra(body, where)
        if kind == "hopf":
            return parse_hopf(body, where)
        if kind == "subspace":
            ambient = int(body["ambient_dim"])
            basis = _matrix(body.get("basis", []), f"{where}.basis")
            return Subspace.from_vectors(basis, ambient)
        if kind == "action":
            hopf = self._ref(body, "hopf", ("hopf",), where)
            alg_ref = body.get("alg", body.get("algebra"))
            if alg_ref is None:
                raise InputError(f"{where}: missing reference 'alg'")
            body2 = dict(body)
            body2["alg"] = alg_ref
            target = self._ref(body2, "alg", ("algebra", "hopf"), where)
            if isinstance(target, HopfStarAlgebra):
                target = target.algebra
            act = _tensor3_rect(body["act"], hopf.dim, target.dim,
                                f"{where}.act")
            if hopf.dim * target.dim > max_dim():
                raise InputError(
                    f"{where}: total dimension exceeds {MAX_DIM_ENV}"
                )
            return ModuleAlgebraAction(hopf, target, act,
                                       name=body.get("name", ""))
        if kind == "comodule":
            hopf = self._ref(body, "hopf", ("hopf",), where)
            body2 = dict(body)
            body2["alg"] = body.get("alg", body.get("algebra"))
            target = self._ref(body2, "alg", ("algebra", "hopf"), where)
            if isinstance(target, HopfStarAlgebra):
                target = target.algebra
            coact = _comult_rect(body["coact"], target.dim, hopf.dim,
                                 f"{where}.coact")
            return ComoduleAlgebra(hopf, target, coact,
                                   name=body.get("name", ""))
        if kind == "pairing":
            Q = self._ref(body, "q", ("hopf",), where)
            H = self._ref(body, "h", ("hopf",), where)
            matrix = _matrix(body["matrix"], f"{where}.matrix")
            return HopfPairing(Q, H, matrix)
        if kind == "job":
            return JobDoc(body, where)
        raise InputError(f"{where}: unhandled kind {kind}")

    def lift_orders(self):
        """Lift every scalar in every parsed object to the common order."""
        orders = set()

        def scan(x):
            if isinstance(x, Scalar):
                orders.add(x.order)

        self._walk(scan)
        if not orders:
            return 1
        target = 1
        for n in orders:
            target = math.lcm(target, n)
        if target > 1:
            def lift(x):
                if isinstance(x, Scalar) and x.order != target:
                    return x.lift(target)
                return x

            self._rewrite(lift)
        return target

    def _walk(self, fn):
        seen = set()

        def rec(obj):
            if isinstance(obj, Scalar):
                fn(obj)
            elif isinstance(obj, dict):
                for v in obj.values():
                    rec(v)
            elif isinstance(obj, (list, tuple)):
                for v in obj:
                    rec(v)
            elif hasattr(obj, "__dict__") and id(obj) not in seen:
                seen.add(id(obj))
                for attr in vars(obj):
                    rec(getattr(obj, attr))

        for obj in self.objects.values():
            rec(obj)

    def _rewrite(self, fn):
        seen = set()

        def rec(obj):
            if isinstance(obj, list):
                for i, v in enumerate(obj):
                    if isinstance(v, Scalar):
                        obj[i] = fn(v)
                    else:
                        rec(v)
            elif isinstance(obj, dict):
                for k, v in obj.items():
                    if isinstance(v, Scalar):
                        obj[k] = fn(v)
                    else:
                        rec(v)
            elif hasattr(obj, "__dict__") and id(obj) not in seen:
                seen.add(id(obj))
                for attr, val in vars(obj).items():
                    if isinstance(val, Scalar):
                        setattr(obj, attr, fn(val))
                    else:
                        rec(val)

        for obj in self.objects.values():
            rec(obj)

    def get(self, name: str, kinds: tuple | None = None):
        if name not in self.objects:
            raise InputError(f"no document named {name!r}")
        if kinds and self.kinds[name] not in kinds:
            raise InputError(
                f"document {name!r} has kind {self.kinds[name]},"
                f" expected {kinds}"
            )
        return self.objects[name]

    def jobs_for(self, op: str) -> list[str]:
        return [name for name, kind in self.kinds.items()
                if kind == "job" and self.objects[name].get("op") == op]


def _tensor3_rect(doc, d1: int, d2: int, where: str):
    if len(doc) != d1:
        raise InputError(f"{where}: expected {d1} planes")
    out = []
    for i, plane in enumerate(doc):
        if len(plane) != d2:
            raise InputError(f"{where}[{i}]: expected {d2} rows")
        row = []
        for j, line in enumerate(plane):
            cell = {}
            for k, v in enumerate(line):
                s = scalar_from(v, f"{where}[{i}][{j}][{k}]")
                if s:
                    cell[k] = s
            row.append(cell)
        out.append(row)
    return out


def _comult_rect(doc, d1: int, d2: int, where: str):
    if len(doc) != d1:
        raise InputError(f"{where}: expected {d1} planes")
    out = []
    for i, plane in enumerate(doc):
        cell = {}
        for j, line in enumerate(plane):
            for k, v in enumerate(line):
                s = scalar_from(v, f"{where}[{i}][{j}][{k}]")
                if s:
                    cell[(j, k)] = s
        out.append(cell)
    return out


# -- canonical emission -------------------------------------------------------------


def emit(doc: dict) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline.

    json.dumps with indent set always runs the pure-Python encoder; _text
    writes the same text directly.
    """
    return _text(doc, 0, {}) + "\n"


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}
_SCALAR_KEYS = {"den", "num", "order"}
_INT = {int}


def _text(node, depth: int, scalars: dict) -> str:
    """The JSON text of node at indent depth, as json.dumps writes it.

    The text of a Scalar's {"den", "num", "order"} dict with int fields is
    kept in scalars under (depth, den, order, *num).
    """
    key = None
    if type(node) is dict and len(node) == 3 and node.keys() == _SCALAR_KEYS:
        den, num, order = node["den"], node["num"], node["order"]
        if type(den) is int is type(order) and type(num) is list \
                and {*map(type, num)} <= _INT:
            key = (depth, den, order, *num)
            if key in scalars:
                return scalars[key]
    elif type(node) is str:
        return _encode_str(node)
    elif type(node) is int:
        return int.__repr__(node)
    elif node is None or node is True or node is False:
        return _CONSTANTS[node]
    elif isinstance(node, (list, tuple)):
        return _items("[]", [_text(v, depth + 1, scalars) for v in node],
                      depth)
    elif not isinstance(node, dict):  # floats, str and int subclasses, errors
        return json.dumps(node, sort_keys=True, indent=2,
                          separators=(",", ": "))
    text = _items("{}", [_encode_str(_key(k)) + ": "
                         + _text(v, depth + 1, scalars)
                         for k, v in sorted(node.items())], depth)
    if key is not None:
        scalars[key] = text
    return text


def _key(key) -> str:
    # json sorts the keys first, then writes the non-string ones as JSON
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _items(brackets: str, parts: list, depth: int) -> str:
    if not parts:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return (brackets[0] + inner + ("," + inner).join(parts) + "\n"
            + "  " * depth + brackets[1])


def subspace_doc(sub: Subspace) -> dict:
    return {**sub.to_json(), "dim": sub.dim}


parse_matrix = _matrix
parse_vector = _vector

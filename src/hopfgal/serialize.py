"""JSON document schema: parsing, validation, canonical emission.

A workspace file is one JSON object {"documents": {name: document}}.  Every
document carries a "kind" from {algebra, hopf, action, comodule, pairing,
subspace, job} and may reference other documents by name.  Scalars appear
as integers, [num, den] pairs, or {"order", "num", "den"} objects.  The
workspace order is the lcm of every order the raw documents declare, the
spans of a measure job included, and each scalar is lifted to it as it is
read, so every parsed object lives in one field Q(zeta_N).
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
from .hopf import (
    HopfPairing,
    HopfStarAlgebra,
    function_algebra,
    group_algebra,
)
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


def check_orders(documents) -> int:
    """The lcm of the orders of the scalars in the raw documents, the
    objects with order, num and den; refuses one above MAX_ORDER.  An
    order key elsewhere, in a field no parser reads, is not a scalar's."""
    target, stack = 1, [documents]
    while stack:
        obj = stack.pop()
        if isinstance(obj, list):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
            if {"order", "num", "den"} <= obj.keys():
                try:
                    target = math.lcm(target, max(1, int(obj["order"])))
                except (TypeError, ValueError, OverflowError) as e:
                    raise InputError(f"scalar order {obj['order']!r} is not"
                                     " an integer") from e
                if target > MAX_ORDER:
                    raise InputError(f"scalar orders lift to {target}, above"
                                     f" the maximum order {MAX_ORDER}")
    return target


def scalar_from(doc, where: str, order: int) -> Scalar:
    """The scalar doc lifted to order, a multiple of its own; the integer
    0, most entries of a table, is the cached Scalar.zero(order)."""
    if type(doc) is int and not doc:
        return Scalar.zero(order)
    try:
        return Scalar.from_json(doc).lift(order)
    except InputError as e:
        raise InputError(f"{where}: {e}") from e


def integer(doc, where: str) -> int:
    """An integer field: a JSON integer, not a float, a string or a bool."""
    if type(doc) is not int:
        raise InputError(f"{where}: expected an integer")
    return doc


def _vector(doc, where: str, read) -> list:
    if not isinstance(doc, list):
        raise InputError(f"{where}: expected an array")
    return [read(v, f"{where}[{i}]") for i, v in enumerate(doc)]


def _matrix(doc, where: str, read) -> list:
    if not isinstance(doc, list):
        raise InputError(f"{where}: expected an array of rows")
    return [_vector(r, f"{where}[{i}]", read) for i, r in enumerate(doc)]


def _sized(doc, dim: int, where: str, what: str) -> list:
    if not isinstance(doc, list) or len(doc) != dim:
        raise InputError(f"{where}: expected {dim} {what}")
    return doc


def _rows(doc, width: int, where: str, read) -> list:
    """An array of rows of width entries, each row checked before it is
    read.  read(doc, where) reads one entry: a scalar (Fields.scalar) or
    an integer."""
    if not isinstance(doc, list):
        raise InputError(f"{where}: expected an array of rows")
    return [_vector(_sized(row, width, f"{where}[{i}]", "entries"),
                    f"{where}[{i}]", read)
            for i, row in enumerate(doc)]


def _square(doc, dim: int, where: str, read) -> list:
    """A dim x dim matrix, each row checked before it is read."""
    return _rows(_sized(doc, dim, where, "rows"), dim, where, read)


def _cube(doc, d1: int, d2: int, d3: int, where: str, read):
    """The nonzero entries (i, j, k, s) of a d1 x d2 x d3 table."""
    for i, plane in enumerate(_sized(doc, d1, where, "planes")):
        for j, line in enumerate(_sized(plane, d2, f"{where}[{i}]", "rows")):
            line = _sized(line, d3, f"{where}[{i}][{j}]", "entries")
            for k, v in enumerate(line):
                s = read(v, f"{where}[{i}][{j}][{k}]")
                if s:
                    yield i, j, k, s


def _tensor3_sparse(doc, d1: int, d2: int, d3: int, where: str, read):
    """out[i][j] maps k to the entry (i, j, k): mult and act."""
    out = [[{} for _ in range(d2)] for _ in range(d1)]
    for i, j, k, s in _cube(doc, d1, d2, d3, where, read):
        out[i][j][k] = s
    return out


def _comult_sparse(doc, d1: int, d2: int, d3: int, where: str, read):
    """out[i] maps (j, k) to the entry (i, j, k): comult and coact."""
    out = [{} for _ in range(d1)]
    for i, j, k, s in _cube(doc, d1, d2, d3, where, read):
        out[i][(j, k)] = s
    return out


# -- document parsers -----------------------------------------------------------


_JSON_TYPES = {str: "a string", list: "an array", bool: "true or false"}


class Fields(dict):
    """A document body; reading a field it lacks is an input error naming
    the document.  An integer field is read through integer(), a string,
    array or boolean field through typed(), and a scalar through scalar(),
    at order, the workspace order."""

    __slots__ = ("where", "order")

    def __init__(self, body, where: str, order: int):
        if not isinstance(body, dict):
            raise InputError(f"{where}: expected an object")
        super().__init__(body)
        self.where = where
        self.order = order

    def __missing__(self, key):
        raise InputError(f"{self.where}: missing field {key!r}")

    def integer(self, key: str) -> int:
        return integer(self[key], f"{self.where}.{key}")

    def scalar(self, doc, where: str) -> Scalar:
        return scalar_from(doc, where, self.order)

    def typed(self, key: str, kind: type, *default):
        """A field of one JSON type: str, list or bool (not a 0 or 1 for
        a bool).  A default, when given, stands for an absent field."""
        value = self.get(key, *default) if default else self[key]
        if type(value) is not kind:
            raise InputError(f"{self.where}.{key}: expected"
                             f" {_JSON_TYPES[kind]}")
        return value


def parse_algebra(body: Fields) -> StarAlgebra:
    where, dim, read = body.where, body.integer("dim"), body.scalar
    if dim > max_dim():
        raise InputError(f"{where}: dim {dim} exceeds {MAX_DIM_ENV}")
    mult = _tensor3_sparse(body["mult"], dim, dim, dim, f"{where}.mult", read)
    unit = _vector(body["unit"], f"{where}.unit", read)
    star = _square(body["star"], dim, f"{where}.star", read)
    state = None
    if body.get("state") is not None:
        state = _vector(body["state"], f"{where}.state", read)
    return StarAlgebra(dim, mult, unit, star, state,
                       name=body.get("name", ""))


def parse_hopf(body: Fields) -> HopfStarAlgebra:
    where, read = body.where, body.scalar
    if "group_table" in body:
        where, table = f"{where}.group_table", body["group_table"]
        size = len(table) if isinstance(table, list) else 0
        if size > max_dim():
            raise InputError(f"{where}: order {size} exceeds {MAX_DIM_ENV}")
        make = function_algebra if body.typed("dual", bool, False) \
            else group_algebra
        table = _rows(table, size, where, integer)
        try:
            return make(table, name=body.get("name", ""), order=body.order)
        except InputError as e:  # a table that is not a group's
            raise InputError(f"{where}: {e}") from e
    alg = parse_algebra(body)
    n = alg.dim
    comult = _comult_sparse(body["comult"], n, n, n, f"{where}.comult", read)
    counit = _vector(body["counit"], f"{where}.counit", read)
    antipode = _square(body["antipode"], n, f"{where}.antipode", read)
    return HopfStarAlgebra(alg, comult, counit, antipode,
                           name=body.get("name", ""))


class Workspace:
    """Resolved object graph of a workspace file, every scalar read at
    order, the lcm of the orders the documents declare."""

    def __init__(self, documents: dict):
        self.raw = documents
        self.objects: dict = {}
        self.kinds: dict = {}
        self.order = check_orders(documents)
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
        if not isinstance(doc, dict) \
                or not isinstance(doc.get("documents"), dict):
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
                body = Fields(body, f"/documents/{name}", self.order)
                self.objects[name] = self._parse_one(kind, body)

    def _ref(self, body: Fields, key: str, kinds: tuple):
        ref, where = body[key], f"{body.where}.{key}"
        if not isinstance(ref, str) or ref not in self.objects:
            raise InputError(f"{where}: dangling reference {ref!r}")
        if self.kinds[ref] not in kinds:
            raise InputError(
                f"{where}: {ref!r} has kind {self.kinds[ref]},"
                f" expected one of {kinds}"
            )
        return self.objects[ref]

    def _carrier(self, body: Fields) -> StarAlgebra:
        """The algebra an action or a coaction lives on, named by its alg
        (or algebra) field."""
        key = "algebra" if "alg" not in body and "algebra" in body else "alg"
        return self._ref(body, key, ("algebra", "hopf"))

    def _parse_one(self, kind: str, body: Fields):
        where, read = body.where, body.scalar
        if kind == "algebra":
            return parse_algebra(body)
        if kind == "hopf":
            return parse_hopf(body)
        if kind == "subspace":
            ambient = body.integer("ambient_dim")
            basis = _rows(body.get("basis", []), ambient, f"{where}.basis",
                          read)
            return Subspace.from_vectors(basis, ambient)
        if kind == "action":
            hopf = self._ref(body, "hopf", ("hopf",))
            target = self._carrier(body)
            act = _tensor3_sparse(body["act"], hopf.dim, target.dim,
                                  target.dim, f"{where}.act", read)
            if hopf.dim * target.dim > max_dim():
                raise InputError(
                    f"{where}: total dimension exceeds {MAX_DIM_ENV}"
                )
            return ModuleAlgebraAction(hopf, target, act,
                                       name=body.get("name", ""))
        if kind == "comodule":
            hopf = self._ref(body, "hopf", ("hopf",))
            target = self._carrier(body)
            coact = _comult_sparse(body["coact"], target.dim, target.dim,
                                   hopf.dim, f"{where}.coact", read)
            return ComoduleAlgebra(hopf, target, coact,
                                   name=body.get("name", ""))
        if kind == "pairing":
            Q = self._ref(body, "q", ("hopf",))
            H = self._ref(body, "h", ("hopf",))
            matrix = _rows(_sized(body["matrix"], Q.dim, f"{where}.matrix",
                                  "rows"), H.dim, f"{where}.matrix", read)
            return HopfPairing(Q, H, matrix)
        if kind == "job":
            return body
        raise InputError(f"{where}: unhandled kind {kind}")

    def lift_orders(self) -> int:
        """The workspace order: every scalar was lifted to it as it was
        read, so nothing is left to lift."""
        return self.order

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

"""Pass/fail reports for axiom checks, with witnesses.

Every validator in the package returns a Report: an ordered list of named
checks, each either passing or failing with a witness (typically the basis
indices at which the identity first broke).  Reports serialize to JSON with
deterministic key order so that identical inputs give byte-identical output.

An axiom is stated with Report.law: the validator passes an iterable of the
cases where the identity breaks, in the order the cases are tried, usually
a generator expression over the basis.  Only its first item is read, so
the cases after the first failure are never computed, and that item is the
witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field


CHECKS_VERSION = "1"


@dataclass
class Check:
    name: str
    passed: bool
    witness: object = None
    note: str | None = None

    def to_json(self):
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note is not None:
            out["note"] = self.note
        return out


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, passed: bool, witness=None, note=None) -> bool:
        self.checks.append(Check(name, bool(passed), witness, note))
        return bool(passed)

    def law(self, name: str, failures, note=None) -> bool:
        """Record the law name, with the first of its failures as witness;
        it passes when there is none."""
        witness = next(iter(failures), None)
        return self.add(name, witness is None, witness, note)

    def require(self, error, text: str, **kwargs):
        """Raise error(f"{text} {name}"), kwargs passed on, naming the
        first failed check; return when every check passed."""
        if not self.ok:
            raise error(f"{text} {self.first_failure().name}", **kwargs)

    def merge(self, other: "Report", prefix: str = ""):
        for c in other.checks:
            self.checks.append(Check(prefix + c.name, c.passed, c.witness, c.note))
        self.notes.extend(other.notes)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def first_failure(self) -> Check | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self):
        return {
            "title": self.title,
            "version": CHECKS_VERSION,
            "passed": self.ok,
            "checks": [c.to_json() for c in self.checks],
            "notes": list(self.notes),
        }

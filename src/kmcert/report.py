"""Check-report container shared by the verifier modules."""

from __future__ import annotations


class CheckReport:
    """Named checks with tried/failed counts plus free-form data."""

    def __init__(self, name):
        self.name = name
        self.checks = []
        self.data = {}

    def add(self, name, tried, failed, witness=None):
        entry = {"name": name, "tried": tried, "failed": failed}
        if witness is not None:
            entry["witness"] = witness
        self.checks.append(entry)

    def merge(self, other):
        self.checks.extend(dict(c) for c in other.checks)
        self.data.update(other.data)

    @property
    def ok(self):
        return all(c["failed"] == 0 for c in self.checks)

    def as_dict(self):
        return {
            "report": self.name,
            "ok": self.ok,
            "checks": self.checks,
            **self.data,
        }

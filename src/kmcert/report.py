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

    def tally(self, name, outcomes):
        """Add a check from one outcome per case tried.

        True passes and False fails without a witness; any other value
        fails and is a witness.  The first witness is kept.
        """
        tried = failed = 0
        witness = None
        for outcome in outcomes:
            tried += 1
            if outcome is not True:
                failed += 1
                if witness is None and outcome is not False:
                    witness = outcome
        self.add(name, tried, failed, witness)

    def merge(self, other):
        self.checks.extend(dict(c) for c in other.checks)
        self.data.update(other.data)
        return self

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

"""CheckReport.tally: the one place a verify check counts its cases."""

from kmcert.report import CheckReport


def _tallied(outcomes):
    rep = CheckReport("t")
    rep.tally("c", outcomes)
    return rep.checks[0]


def test_true_false_and_witness_outcomes():
    assert _tallied([True, True]) == {"name": "c", "tried": 2, "failed": 0}
    assert _tallied([True, False, True]) == {"name": "c", "tried": 3, "failed": 1}
    assert _tallied([True, {"r": 2}]) == {
        "name": "c", "tried": 2, "failed": 1, "witness": {"r": 2},
    }


def test_first_witness_kept_when_later_ones_differ():
    got = _tallied([False, True, {"stage": "E"}, "second", {"stage": "A1"}])
    assert got == {"name": "c", "tried": 5, "failed": 4, "witness": {"stage": "E"}}


def test_empty_outcomes_give_tried_zero():
    rep = CheckReport("t")
    rep.tally("c", iter(()))
    assert rep.checks == [{"name": "c", "tried": 0, "failed": 0}]
    assert rep.ok


def test_only_true_passes():
    # a truthy value other than True is a witness, not a pass
    assert _tallied([1, "ok"]) == {"name": "c", "tried": 2, "failed": 2, "witness": 1}


def test_matches_the_equivalent_add():
    outcomes = [True, False, (1, 2), True, (3, 4)]
    tallied = CheckReport("t")
    tallied.tally("c", iter(outcomes))
    added = CheckReport("t")
    added.add("c", 5, 3, (1, 2))
    assert tallied.as_dict() == added.as_dict()
    assert not tallied.ok

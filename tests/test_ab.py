"""tools/ab.py's summary of paired benchmark runs, on fixed numbers."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_summary_counts_wins_ties_for_neither_and_takes_inclusive_quartiles():
    pairs = [({"wall_s": 4.0, "rate": 1.0, "traced_only": 9.0}, {"wall_s": 3.0, "rate": 2.0}),
             ({"wall_s": 2.0, "rate": 5.0}, {"wall_s": 2.0, "rate": 5.0}),   # a tie
             ({"wall_s": 1.0, "rate": 3.0}, {"wall_s": 1.5, "rate": 1.0}),
             ({"wall_s": 3.0, "rate": 2.0}, {"wall_s": 0.5, "rate": 4.0})]
    better = {"wall_s": "lower", "rate": "higher", "traced_only": "lower", "absent": "lower"}
    out = ab.summarize(pairs, better)
    assert sorted(out) == ["rate", "wall_s"]   # only metrics every run reports
    wall = out["wall_s"]
    assert (wall["better"], wall["pairs"], wall["change_wins"]) == ("lower", 4, 2)
    assert wall["parent"] == {"values": [4.0, 2.0, 1.0, 3.0], "q1": 1.75, "median": 2.5,
                              "q3": 3.25}
    assert wall["change"] == {"values": [3.0, 2.0, 1.5, 0.5], "q1": 1.25, "median": 1.75,
                              "q3": 2.25}
    rate = out["rate"]
    assert (rate["better"], rate["change_wins"]) == ("higher", 2)
    assert (rate["parent"]["median"], rate["change"]["median"]) == (2.5, 3.0)


def test_summary_of_one_pair_and_of_none():
    one = ab.summarize([({"wall_s": 2.0}, {"wall_s": 1.0})], {"wall_s": "lower"})
    assert one["wall_s"]["change"] == {"values": [1.0], "q1": 1.0, "median": 1.0, "q3": 1.0}
    assert one["wall_s"]["change_wins"] == 1
    assert ab.summarize([], {"wall_s": "lower"}) == {}


def test_seed_ranges():
    assert ab._seeds("41-44") == [41, 42, 43, 44]
    assert ab._seeds("7") == [7]
    assert ab._seeds("3,9") == [3, 9]


def _rules(parent, change, way="lower", bound=0.25):
    pairs = [({"m": p}, {"m": c}) for p, c in zip(parent, change)]
    out = ab.summarize(pairs, {"m": way}, {"m": bound})["m"]
    return out["gain_rule"], out["within_bound"]


def test_gain_rule_needs_9_of_10_wins():
    assert _rules([10.0] * 10, [9.0] * 9 + [11.0]) == (True, True)
    assert _rules([10.0] * 10, [9.0] * 8 + [11.0] * 2) == (False, True)
    assert _rules([10.0] * 10, [11.0] * 9 + [9.0], way="higher") == (True, True)


def test_gain_rule_needs_a_median_gap_beyond_the_parent_iqr():
    # the parent's quartiles are 9 and 11, so its IQR is 2
    parent = [8.0, 9.0, 10.0, 11.0, 12.0] * 2
    assert _rules(parent, [x - 1.5 for x in parent]) == (False, True)
    assert _rules(parent, [x - 2.5 for x in parent]) == (True, True)
    assert _rules(parent, [x + 2.5 for x in parent], way="higher") == (True, True)
    # all wins, yet the gap is the IQR exactly: not beyond it
    assert _rules(parent, [x - 2.0 for x in parent]) == (False, True)


def test_within_bound_allows_the_bound_fraction_and_no_more():
    parent = [10.0] * 4
    assert _rules(parent, [12.5] * 4) == (False, True)
    assert _rules(parent, [12.6] * 4) == (False, False)
    assert _rules(parent, [7.5] * 4, way="higher") == (False, True)
    assert _rules(parent, [7.4] * 4, way="higher") == (False, False)
    assert _rules(parent, [10.5] * 4, bound=0.1) == (False, True)
    assert _rules(parent, [11.5] * 4, bound=0.1) == (False, False)


def test_metrics_without_a_bound_get_no_rules():
    pairs = [({"wall_s": 2.0, "calls": 5}, {"wall_s": 1.0, "calls": 5})]
    out = ab.summarize(pairs, {"wall_s": "lower", "calls": "lower"}, {"wall_s": 0.25})
    assert "gain_rule" in out["wall_s"] and "within_bound" in out["wall_s"]
    assert "gain_rule" not in out["calls"] and "within_bound" not in out["calls"]
    assert "gain_rule" not in ab.summarize(pairs, {"wall_s": "lower"})["wall_s"]

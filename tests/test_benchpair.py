import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "benchpair.py"
_spec = importlib.util.spec_from_file_location("benchpair", _PATH)
benchpair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpair)


def result_line(round_index, side, wall, rss=50.0, failed=0, correct=True):
    return {"round": round_index, "side": side, "workload": "oracle-gate", "seed": 9,
            "trace": 0, "correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "setup_s": {"value": 0.25, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MiB"}}}


def rows(parent, change, twin, **kw):
    out = []
    for i, values in enumerate(zip(parent, change, twin)):
        out += [result_line(i, side, v, **kw) for side, v in zip(benchpair.SIDES, values)]
    return out


PARENT = [0.094, 0.089, 0.099, 0.090, 0.095, 0.088, 0.101, 0.094, 0.095, 0.100]
TWIN = [p + 0.001 for p in PARENT]


def test_summary_medians_quartiles_wins_and_twin_gap():
    change = [0.070, 0.071, 0.069, 0.072, 0.070, 0.093, 0.072, 0.070, 0.069, 0.072]
    s = benchpair.summarize(rows(PARENT, change, TWIN), claim=("oracle-gate", "wall_s"))
    wall = s["oracle-gate seed 9"]["wall_s"]
    # Sorted, the parent reads .088 .089 .090 .094 .094 .095 .095 .099 .100
    # .101: the inclusive quartiles sit a quarter and three quarters of the
    # way from .090 to .094 and from .095 to .099.
    assert wall["parent"] == {"median": 0.0945, "q1": 0.091, "q3": 0.098, "n": 10}
    assert wall["change"] == {"median": 0.0705, "q1": 0.07, "q3": 0.072, "n": 10}
    assert wall["twin-p"]["median"] == 0.0955
    assert wall["twin_gap"] == 0.001
    assert wall["change_wins"] == "9/10"  # round 5: 0.093 against 0.088
    assert wall["claim_met"] is True
    assert "claim_met" not in s["oracle-gate seed 9"]["setup_s"]
    assert s["oracle-gate seed 9"]["setup_s"]["change_wins"] == "0/10"  # ties count for neither
    assert s["oracle-gate seed 9"]["ops_failed"] == {"parent": "0/1000", "change": "0/1000",
                                                     "twin-p": "0/1000"}
    assert s["oracle-gate seed 9"]["correct"] is True


@pytest.mark.parametrize("change, why", [
    ([0.070] * 8 + [0.120, 0.120], "wins only 8 of 10"),
    ([p - 0.0005 for p in PARENT], "gains less than the parent's IQR"),
])
def test_claim_not_met(change, why):
    s = benchpair.summarize(rows(PARENT, change, TWIN), claim=("oracle-gate", "wall_s"))
    assert s["oracle-gate seed 9"]["wall_s"]["claim_met"] is False, why


def test_claim_must_beat_the_twin_gap():
    parent = [0.0900] * 5 + [0.0902] * 5
    change = [p - 0.001 for p in parent]
    far_twin = [0.0920] * 10
    met = lambda twin: benchpair.summarize(rows(parent, change, twin), ("oracle-gate", "wall_s"))[
        "oracle-gate seed 9"]["wall_s"]["claim_met"]
    assert met(parent) is True
    assert met(far_twin) is False


def test_failures_and_incorrect_runs_are_reported():
    r = rows(PARENT, PARENT, TWIN)
    r[1] = result_line(0, "change", 0.08, failed=3, correct=False)
    s = benchpair.summarize(r)["oracle-gate seed 9"]
    assert s["ops_failed"]["change"] == "3/1000" and s["correct"] is False
    assert "claim_met" not in s["wall_s"]


def test_rotation_starts_each_round_one_side_later():
    assert [benchpair.rotation(i) for i in range(4)] == [
        ("parent", "change", "twin-p"), ("change", "twin-p", "parent"),
        ("twin-p", "parent", "change"), ("parent", "change", "twin-p")]
    assert len({len(side) for side in benchpair.SIDES}) == 1

import importlib.util
import json
import os
import pathlib
import subprocess
import types

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


def test_raw_medians_read_and_summarized(tmp_path):
    # perfbench writes its full report beside the export; the run keeps the
    # unscaled medians and the host speed, and the summary their quartiles.
    report = {"wall_raw_s": {"n": 3, "p50": 0.061}, "setup_raw_s": {"n": 4, "p50": 0.31},
              "wall_s": {"n": 3, "p50": 0.05}, "host_speed": 0.82}
    (tmp_path / ".perfbench").mkdir()
    (tmp_path / ".perfbench" / "report-oracle-gate-seed9-trace0.json").write_text(
        json.dumps(report))
    assert benchpair.raw_medians(str(tmp_path), "oracle-gate", 9, 0) == {
        "raw": {"wall_s": 0.061, "setup_s": 0.31}, "host_speed": 0.82}
    r = rows(PARENT, PARENT, TWIN)
    for line in r:
        scaled = line["metrics"]["wall_s"]["value"]
        speed = 0.8 if line["side"] == "change" else 1.0
        line.update(raw={"wall_s": scaled / speed, "setup_s": 0.25 / speed}, host_speed=speed)
    s = benchpair.summarize(r)["oracle-gate seed 9"]
    assert s["wall_s"]["change"] == s["wall_s"]["parent"]
    assert s["wall_s"]["raw"]["parent"] == {"median": 0.0945, "q1": 0.091, "q3": 0.098, "n": 10}
    assert s["wall_s"]["raw"]["change"]["median"] == round(0.0945 / 0.8, 4)
    assert s["setup_s"]["raw"]["change"] == {"median": 0.3125, "q1": 0.3125, "q3": 0.3125,
                                             "n": 10}
    assert s["wall_s"]["raw_ratio"]["change"] == {"median": 1.25, "q1": 1.25, "q3": 1.25, "n": 10}
    assert s["wall_s"]["raw_ratio"]["twin-p"]["n"] == 10
    assert "raw" not in s["peak_rss_mb"] and "raw_ratio" not in s["peak_rss_mb"]
    assert s["host_speed"]["twin-p"]["median"] == 1.0 and s["host_speed"]["change"]["q1"] == 0.8
    # Result lines without them (a failed run) leave the summary as before.
    assert "raw" not in benchpair.summarize(rows(PARENT, PARENT, TWIN))["oracle-gate seed 9"][
        "wall_s"]


def test_raw_ratio_pairs_each_round():
    # The host drifts 1.5x across rounds, so each side's raw medians spread
    # alike, but in every round the change reads 0.9 of its parent.
    drift = [1.0 + 0.5 * i / 9 for i in range(10)]
    r = rows([0.05 * d for d in drift], [0.045 * d for d in drift], [0.05 * d for d in drift])
    for line in r:
        line["raw"] = {m: line["metrics"][m]["value"] for m in ("wall_s", "setup_s")}
    wall = benchpair.summarize(r)["oracle-gate seed 9"]["wall_s"]
    assert wall["raw"]["parent"]["q3"] - wall["raw"]["parent"]["q1"] > 0.01
    assert wall["raw_ratio"]["change"] == {"median": 0.9, "q1": 0.9, "q3": 0.9, "n": 10}
    assert wall["raw_ratio"]["twin-p"]["median"] == 1.0
    assert benchpair.summarize(r)["oracle-gate seed 9"]["setup_s"]["raw_ratio"]["change"][
        "median"] == 1.0


def test_rotation_starts_each_round_one_side_later():
    assert [benchpair.rotation(i) for i in range(4)] == [
        ("parent", "change", "twin-p"), ("change", "twin-p", "parent"),
        ("twin-p", "parent", "change"), ("parent", "change", "twin-p")]
    assert len({len(side) for side in benchpair.SIDES}) == 1


WORKLOADS = ["plan-allpairs", "trace-fleet", "oracle-gate"]


@pytest.mark.parametrize("spec, lengths", [
    ("8", {"plan-allpairs": 8.0, "trace-fleet": 8.0, "oracle-gate": 8.0}),
    ("oracle-gate=30,plan-allpairs=15,trace-fleet=15",
     {"plan-allpairs": 15.0, "trace-fleet": 15.0, "oracle-gate": 30.0}),
    ("oracle-gate=30,12.5", {"plan-allpairs": 12.5, "trace-fleet": 12.5, "oracle-gate": 30.0}),
])
def test_run_lengths_per_workload(spec, lengths):
    assert benchpair.run_lengths(spec, WORKLOADS) == lengths


@pytest.mark.parametrize("spec, message", [
    ("oracle-gate=30", "no run length for"),
    ("oracle-gat=30,15", "not among"),
    ("oracle-gate=x,15", "could not convert"),
])
def test_run_lengths_rejected(spec, message):
    with pytest.raises(ValueError, match=message):
        benchpair.run_lengths(spec, WORKLOADS)


def test_env_pad_rotates_per_round_and_is_recorded(tmp_path, monkeypatch):
    # Every child of round i gets (i mod 4) KiB of padding, whatever its side;
    # the pad is written into each result line.
    def export(rev, dest):
        os.makedirs(dest)
        return rev

    pads = []

    def run(cmd, cwd, env, **kwargs):
        pads.append((os.path.basename(cwd), cmd[cmd.index("--trace") + 1],
                     len(env[benchpair.ENV_PAD])))
        assert {k: v for k, v in env.items() if k != benchpair.ENV_PAD} == dict(os.environ)
        return subprocess.CompletedProcess(cmd, 1, "", "stubbed")

    monkeypatch.setattr(benchpair, "export", export)
    monkeypatch.setattr(benchpair, "subprocess", types.SimpleNamespace(run=run))
    out = tmp_path / "bench.json"
    assert benchpair.main(["--parent", "p", "--change", "c", "--workloads", "oracle-gate",
                           "--seed", "9", "--rounds", "6", "--traced", "1", "--seconds", "1",
                           "--workdir", str(tmp_path / "work"), "--out", str(out)]) == 0
    expected = [(side, "0", 1024 * (i % 4)) for i in range(6) for side in benchpair.rotation(i)]
    assert pads == expected + [(side, "1", 0) for side in benchpair.SIDES]
    runs = json.loads(out.read_text())["runs"]
    assert [(r["side"], str(r["trace"]), r["env_pad"]) for r in runs] == pads

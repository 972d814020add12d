import csv
import io
import os
import subprocess
import sys

import pytest

import starsketch
from starsketch.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_generate_sketch_distance_pipeline(tmp_path, capsys):
    s1 = tmp_path / "u.stream"
    s2 = tmp_path / "z.stream"
    code, _ = run_cli(capsys, "generate", "--family", "uniform", "--n", "500",
                      "--m", "20000", "--seed", "1", "--out", str(s1))
    assert code == 0
    code, _ = run_cli(capsys, "generate", "--family", "zipf", "--alpha", "1",
                      "--n", "500", "--m", "20000", "--seed", "2", "--out", str(s2))
    assert code == 0

    k1 = tmp_path / "u.sketch"
    k2 = tmp_path / "z.sketch"
    for stream, out in ((s1, k1), (s2, k2)):
        code, _ = run_cli(capsys, "sketch", "build", "--in", str(stream),
                          "--k", "32", "--t", "4", "--seed", "9", "--out", str(out))
        assert code == 0

    code, out = run_cli(capsys, "distance", "--phi", "js", "--a", str(k1), "--b", str(k2))
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "phi,mode,k,t,value,argmax,seed,alpha_smoothing"
    rec = dict(zip(header.split(","), row.split(",")))
    assert rec["phi"] == "js"
    assert rec["mode"] == "approximate"
    assert rec["k"] == "32" and rec["t"] == "4"
    assert rec["seed"] == "9"
    assert 0.0 < float(rec["value"]) <= 1.0
    assert rec["argmax"].startswith("row")


def test_distance_requires_matching_families(tmp_path, capsys):
    s1 = tmp_path / "a.stream"
    run_cli(capsys, "generate", "--family", "uniform", "--n", "100", "--m", "1000",
            "--seed", "1", "--out", str(s1))
    k1, k2 = tmp_path / "a.sketch", tmp_path / "b.sketch"
    run_cli(capsys, "sketch", "build", "--in", str(s1), "--k", "8", "--t", "2",
            "--seed", "1", "--out", str(k1))
    run_cli(capsys, "sketch", "build", "--in", str(s1), "--k", "8", "--t", "2",
            "--seed", "2", "--out", str(k2))
    with pytest.raises(Exception, match="families"):
        main(["distance", "--phi", "js", "--a", str(k1), "--b", str(k2)])


def test_ingest_and_stats(tmp_path, capsys):
    log = tmp_path / "access_log"
    log.write_text(
        'h1 - - [01/Jul/1995:00:00:01 -0400] "GET /a HTTP/1.0" 200 1\n'
        'h2 - - [01/Jul/1995:00:00:02 -0400] "GET /b HTTP/1.0" 200 1\n'
        'h1 - - [01/Jul/1995:00:00:03 -0400] "GET /a HTTP/1.0" 200 1\n'
        "malformed\n",
        encoding="latin-1",
    )
    stream = tmp_path / "log.stream"
    stats_csv = tmp_path / "stats.csv"
    code, _ = run_cli(capsys, "ingest", "--in", str(log), "--out", str(stream),
                      "--stats", str(stats_csv))
    assert code == 0
    stats = dict(row for row in csv.reader(io.StringIO(stats_csv.read_text())) if row)
    assert stats["items"] == "3"
    assert stats["distinct"] == "2"
    assert stats["max_frequency"] == "2"
    assert stats["malformed"] == "1"

    hist = tmp_path / "hist.csv"
    ranks = tmp_path / "ranks.csv"
    code, out = run_cli(capsys, "stats", "--in", str(stream),
                        "--histogram", str(hist), "--ranks", str(ranks))
    assert code == 0
    assert "3 items, 2 distinct" in out
    assert hist.read_text().startswith("# total=3\n")
    assert ranks.read_text().splitlines()[1] == "1,2"


def test_experiment_run_and_summarize(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "pair = uniform | pascal(r=3)\n"
        "divergences = js\n"
        "k = 16\n"
        "t = 2\n"
        "trials = 2\n"
        "m = 2000\n"
        "n = 100\n"
        "seed = 3\n"
    )
    out_dir = tmp_path / "out"
    code, _ = run_cli(capsys, "experiment", "run", "--plan", str(plan),
                      "--out-dir", str(out_dir))
    assert code == 0

    summary2 = tmp_path / "summary2.csv"
    code, _ = run_cli(capsys, "experiment", "summarize",
                      "--rows", str(out_dir / "results.csv"), "--out", str(summary2))
    assert code == 0
    assert summary2.read_bytes() == (out_dir / "summary.csv").read_bytes()


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "starsketch" in capsys.readouterr().out


def test_cli_import_needs_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(starsketch.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, starsketch.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "False"

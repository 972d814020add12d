import csv
import gzip
import hashlib
import io
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import starsketch
from starsketch import divergence
from starsketch.cli import main
from starsketch.divergence import FGenerator, from_f_generator, register
from starsketch.generators import read_stream
from starsketch.sketch import FamilyMismatchError, load_sketch


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_readme_cli_example_prints_what_it_shows(tmp_path, capsys, monkeypatch):
    # The README's first sh block that calls starsketch (generate, sketch
    # build, distance), run command by command; its "# " lines are what the
    # last command, distance, prints.
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = next(b for b in blocks if "starsketch " in b).splitlines()
    commands = [line for line in lines if line.startswith("starsketch ")]
    shown = [line[2:] for line in lines if line.startswith("# ")]
    assert commands[-1].startswith("starsketch distance ") and len(shown) == 2
    monkeypatch.chdir(tmp_path)
    for command in commands:
        code, out = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0, command
    assert out.splitlines() == shown


def test_generate_sketch_distance_pipeline(tmp_path, capsys):
    s1 = tmp_path / "u.stream"
    s2 = tmp_path / "z.stream"
    code, _ = run_cli(capsys, "generate", "--family", "uniform", "--n", "500",
                      "--m", "20000", "--seed", "1", "--out", str(s1))
    assert code == 0
    code, _ = run_cli(capsys, "generate", "--family", "zipf(alpha=1)",
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


def build_two_sketches(tmp_path, capsys):
    """Sketches of a uniform and a zipf stream under one family."""
    sketches = []
    for name, family in (("u", "uniform"), ("z", "zipf(alpha=1)")):
        stream, sketch = tmp_path / f"{name}.stream", tmp_path / f"{name}.sketch"
        run_cli(capsys, "generate", "--family", family, "--n", "200", "--m", "5000",
                "--seed", "3", "--out", str(stream))
        run_cli(capsys, "sketch", "build", "--in", str(stream), "--k", "16", "--t", "4",
                "--seed", "7", "--out", str(sketch))
        sketches.append(str(sketch))
    return sketches


@pytest.mark.parametrize("args,swap,row", [
    (("--phi", "js"), False, "js,approximate,16,4,0.17756683967099102,row1,7,0.0"),
    (("--phi", "kl", "--alpha", "1e-9"), True, "kl,approximate,16,4,0.7477352579695157,row1,7,1e-09"),
])
def test_distance_stdout_pinned(tmp_path, capsys, args, swap, row):
    # The eight result columns, byte for byte: k, t and seed come from the
    # sketch files, argmax names the winning row, alpha is echoed by repr.
    a, b = build_two_sketches(tmp_path, capsys)
    if swap:
        a, b = b, a
    code, out = run_cli(capsys, "distance", *args, "--a", a, "--b", b)
    assert code == 0
    assert out == f"phi,mode,k,t,value,argmax,seed,alpha_smoothing\n{row}\n"


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_distance_rejects_non_finite_alpha(tmp_path, capsys, alpha):
    a, b = build_two_sketches(tmp_path, capsys)
    with pytest.raises(ValueError, match="alpha"):
        main(["distance", "--phi", "kl", "--a", a, "--b", b, "--alpha", alpha])


def test_distance_with_registered_f_divergence(tmp_path, capsys, monkeypatch):
    # A private copy of the registry keeps the custom divergence out of the
    # other tests; register() itself runs unchanged on it.
    monkeypatch.setattr(divergence, "_REGISTRY", dict(divergence._REGISTRY))
    chi2 = FGenerator(lambda u: (u - 1.0) ** 2, limit_zero=1.0, limit_ratio_inf=math.inf,
                      name="(t-1)^2")
    register(from_f_generator("chi2", chi2))
    a, b = build_two_sketches(tmp_path, capsys)
    code, out = run_cli(capsys, "distance", "--phi", "chi2", "--a", a, "--b", b)
    assert code == 0
    rec = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
    # The Pearson chi-square sum (p - q)^2 / q, maximized over the rows.
    sa, sb = load_sketch(a), load_sketch(b)
    P, Q = sa.counts / sa.total, sb.counts / sb.total
    rows = ((P - Q) ** 2 / Q).sum(axis=1)
    assert rec["phi"] == "chi2" and rec["argmax"] == f"row{int(np.argmax(rows))}"
    assert float(rec["value"]) == pytest.approx(rows.max(), rel=1e-12)


def test_distance_rejects_unknown_divergence(tmp_path, capsys):
    a, b = build_two_sketches(tmp_path, capsys)
    with pytest.raises(ValueError, match="unknown divergence 'renyi'"):
        main(["distance", "--phi", "renyi", "--a", a, "--b", b])


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


CLF_LOG = (
    'h1 - - [01/Jul/1995:00:00:01 -0400] "GET /a HTTP/1.0" 200 1\n'
    'h2 - - [01/Jul/1995:00:00:02 -0400] "GET /b HTTP/1.0" 200 1\n'
    'h1 - - [01/Jul/1995:00:00:03 -0400] "GET /a HTTP/1.0" 200 1\n'
    "malformed\n"
)

# sha256 of the files `generate`, `ingest` and `sketch build` wrote before
# `--family` took family descriptors (the parameters were separate flags then),
# and of the `ingest --stats` and `stats --ranks` CSVs written for CLF_LOG.
GENERATED_SHA256 = {
    "uniform": "bbb4ec8fc3cd3bf8943e3a7ba930de90c92742c596ace03e4e686c175ea2911a",
    "zipf(alpha=1.5)": "a3194efa66a5f694cb1b8200505cfe632fb256d8bfa82379665c8bd16d48c9bc",
    "pascal(r=3)": "4bc9f900fa57207ca95f40935167e96f1f4177472ff126c59bbc25d5edac0beb",
    "pascal(r=2,p=0.4)": "d1fcd6411befb6beb382c3bceb88b7129ffc0f0888d882540b1d75f05885eb22",
    "binomial(p=0.3)": "4827378669a0b334a5f11e938a8d1757384d6a8c00673e5dfc725dc159d87e91",
    "poisson(lam=40)": "bce52b943e400563924770c75b766c521abe2f56a3cb46e8c7c1e11a0baf5b75",
}
INGESTED_SHA256 = "9c2271706ef3c213a2be5793daa91ffb4a3501f59c767be73c2db2b7ceb80722"
INGEST_STATS_SHA256 = "62ea32f307153370a8f73868bdaa34ecfde66e7bf9e51d285349dc9cfb1a8359"
RANKS_SHA256 = "916fe1245228bdda504a695e03ebdd49b7a9198649d56fadfdec012a7bb926ad"
SKETCH_SHA256 = {
    "zipf(alpha=1.5)": "5261d931e6bde7eda5865285c0ca7d620f3fe20b15f22b41410aec14b816016f",
    "ingested": "b27caab1c04702bff49cba0c2c88f84b18da283de6dfd9956f3fc5549970dec5",
}


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("family", sorted(GENERATED_SHA256))
def test_generated_stream_bytes_pinned(tmp_path, capsys, family):
    out = tmp_path / "s.stream"
    code, _ = run_cli(capsys, "generate", "--family", family, "--n", "300", "--m", "4000",
                      "--seed", "5", "--out", str(out))
    assert code == 0
    assert sha256_of(out) == GENERATED_SHA256[family]
    if family == "zipf(alpha=1.5)":
        sketch = tmp_path / "s.sketch"
        run_cli(capsys, "sketch", "build", "--in", str(out), "--k", "32", "--t", "4",
                "--seed", "9", "--out", str(sketch))
        assert sha256_of(sketch) == SKETCH_SHA256[family]


def test_ingested_stream_bytes_pinned(tmp_path, capsys, monkeypatch):
    # The descriptor records the log path as given, so run beside the log.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "access_log").write_text(CLF_LOG, encoding="latin-1")
    run_cli(capsys, "ingest", "--in", "access_log", "--out", "log.stream",
            "--stats", "log.stats")
    assert sha256_of("log.stream") == INGESTED_SHA256
    assert sha256_of("log.stats") == INGEST_STATS_SHA256
    run_cli(capsys, "stats", "--in", "log.stream", "--ranks", "log.ranks")
    assert sha256_of("log.ranks") == RANKS_SHA256
    run_cli(capsys, "sketch", "build", "--in", "log.stream", "--k", "32", "--t", "4",
            "--seed", "9", "--out", "log.sketch")
    assert sha256_of("log.sketch") == SKETCH_SHA256["ingested"]


# A log at the edges of text-mode reading: separators that str.split breaks a
# latin-1 request at (\xa0, \x1c, \x1f, \x85, tab) but bytes.split would not,
# a lone \r and a \r\n line end (universal newlines end a line at both, so the
# quoted field of the /x line is cut by its \r), an unterminated quote, an
# empty "", two quoted fields on one line, latin-1 bytes, repeats and a last
# line with no newline.
EDGE_LOG = (
    b'h - - [d] "GET /a\xa0b HTTP/1.0" 200 1\n'
    b'h - - [d] "GET /c\x1cd HTTP/1.0" 200 1\n'
    b'h - - [d] "GET /e\x1ff HTTP/1.0" 200 1\n'
    b'h - - [d] "GET /g\x85h HTTP/1.0" 200 1\n'
    b'h - - [d] "GET\t/tab HTTP/1.0" 200 1\n'
    b'h - - [d] "GET /lone HTTP/1.0" 200 1\r'
    b'h - - [d] "GET /crlf HTTP/1.0" 200 1\r\n'
    b'h - - [d] "GET /x\r/y HTTP/1.0" 200 1\n'
    b'h - - [d] "GET /unterminated HTTP/1.0 200 1\n'
    b'h - - [d] "" 400 0\n'
    b'h - - [d] "GET /first HTTP/1.0" 200 1 "-" "agent /second"\n'
    b'h - - [d] "GET /caf\xe9?q=\xff HTTP/1.0" 200 1\n'
    b'h - - [d] "GET /a\xa0b HTTP/1.0" 200 1\n'
    b'h - - [d] "GET /a HTTP/1.1" 304 0\n'
    b'h - - [d] "GET /lone HTTP/1.0" 200 1\r'
    b'h - - [d] "GET /caf\xe9?q=\xff HTTP/1.0" 200 1'
)
EDGE_STREAM_SHA256 = "a828745fc05f7d27c2b7d090ef57b9d3b1c0354c1d1ade3f5c4a7a0dab79e349"
EDGE_STATS_SHA256 = "2e54210a987783c3663c7dd00bba6fb33b49001f4a2701147fd18d76b6633993"


def test_ingest_edge_log_pinned(tmp_path, capsys, monkeypatch):
    # The pins hold what parse_clf_line gives on each whole line.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "access_log").write_bytes(EDGE_LOG)
    run_cli(capsys, "ingest", "--in", "access_log", "--out", "log.stream",
            "--stats", "log.stats")
    assert sha256_of("log.stream") == EDGE_STREAM_SHA256
    assert sha256_of("log.stats") == EDGE_STATS_SHA256
    # A gzip twin gives the same items and stats; only the descriptor names it.
    with gzip.open(tmp_path / "access_log.gz", "wb") as fh:
        fh.write(EDGE_LOG)
    run_cli(capsys, "ingest", "--in", "access_log.gz", "--out", "gz.stream",
            "--stats", "gz.stats")
    items, n, descriptor = read_stream("log.stream")
    gz_items, gz_n, gz_descriptor = read_stream("gz.stream")
    assert (descriptor, gz_descriptor) == ("clf:access_log", "clf:access_log.gz")
    assert gz_n == n == 0
    assert gz_items.tolist() == items.tolist()
    assert sha256_of("gz.stats") == EDGE_STATS_SHA256


def test_universe_bound_makes_sketches_comparable(tmp_path, capsys):
    # A synthetic stream (n = 500) and an ingested one (n = 0) get different
    # default bounds, hence different primes and families.
    synthetic, ingested = tmp_path / "u.stream", tmp_path / "log.stream"
    run_cli(capsys, "generate", "--family", "uniform", "--n", "500", "--m", "2000",
            "--seed", "1", "--out", str(synthetic))
    (tmp_path / "access_log").write_text(CLF_LOG, encoding="latin-1")
    run_cli(capsys, "ingest", "--in", str(tmp_path / "access_log"), "--out", str(ingested))

    def build(stream, out, *bound):
        code, _ = run_cli(capsys, "sketch", "build", "--in", str(stream), "--k", "16",
                          "--t", "3", "--seed", "4", "--out", str(out), *bound)
        assert code == 0
        return str(out)

    a, b = build(synthetic, tmp_path / "a.sketch"), build(ingested, tmp_path / "b.sketch")
    with pytest.raises(FamilyMismatchError, match="families"):
        main(["distance", "--phi", "js", "--a", a, "--b", b])

    shared = ("--universe-bound", str(2 ** 64))
    a = build(synthetic, tmp_path / "a2.sketch", *shared)
    b = build(ingested, tmp_path / "b2.sketch", *shared)
    code, out = run_cli(capsys, "distance", "--phi", "js", "--a", a, "--b", b)
    assert code == 0
    rec = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
    assert 0.0 < float(rec["value"]) <= 1.0


@pytest.mark.parametrize("verb,removed", [
    ("generate", ("--alpha", "--r ", "--p ", "--lam")),
    ("ingest", ("--format",)),
])
def test_removed_options_absent_from_help(capsys, verb, removed):
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    text = capsys.readouterr().out
    assert not [opt for opt in removed if opt in text]


def test_ingest_and_stats(tmp_path, capsys):
    log = tmp_path / "access_log"
    log.write_text(CLF_LOG, encoding="latin-1")
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


def fresh_python(code):
    """stdout of ``code`` run in a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(starsketch.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    return proc.stdout.strip()


def test_cli_import_needs_no_scipy():
    assert fresh_python("import sys, starsketch.cli; print('scipy' in sys.modules)") == "False"


def test_cli_import_loads_no_numpy_random():
    # numpy 1.x imports numpy.random eagerly; only a load by the package counts.
    out = fresh_python("import sys, numpy; eager = 'numpy.random' in sys.modules\n"
                       "import starsketch.cli; print(eager, 'numpy.random' in sys.modules)")
    eager, loaded = out.split()
    assert loaded == eager

import csv
import hashlib
import math
import os
import pathlib
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsketch import generators, harness
from starsketch.generators import DistributionFamily, sample_histogram, sample_stream, write_stream
from starsketch.harness import (
    ExperimentPlan,
    ResultRow,
    SandwichViolationError,
    _check_sandwich,
    derive_seed,
    load_plan,
    parse_plan,
    parse_source,
    read_results,
    run_plan,
    run_plan_to_dir,
    sweep_summary,
    write_results,
)
from starsketch.histogram import dump_histogram, from_stream

PLANS = os.path.join(os.path.dirname(__file__), os.pardir, "plans")

TINY_PLAN = """
# uniform against a skewed stream, small scale
pair = uniform | zipf(alpha=1)
pair = uniform | uniform
divergences = js, bhattacharyya
k = 8, 16
t = 2
trials = 2
m = 2000
n = 100
seed = 7
"""


class TestPlanParsing:
    def test_grammar(self):
        plan = parse_plan(TINY_PLAN)
        assert len(plan.pairs) == 2
        assert plan.divergences == ["js", "bhattacharyya"]
        assert plan.k_values == [8, 16]
        assert plan.t_values == [2]
        assert plan.trials == 2
        assert plan.m == 2000 and plan.n == 100
        assert plan.master_seed == 7
        assert plan.alpha == 0.0

    def test_defaults(self):
        plan = parse_plan("pair = uniform | poisson\n")
        assert plan.k_values == [200] and plan.t_values == [4]
        assert plan.m == 200_000 and plan.n == 4000
        assert plan.divergences == ["js"]

    def test_rejects_missing_pair(self):
        with pytest.raises(ValueError):
            parse_plan("divergences = js\n")

    def test_rejects_bad_pair_line(self):
        with pytest.raises(ValueError):
            parse_plan("pair = uniform\n")

    def test_rejects_unknown_divergence(self):
        with pytest.raises(ValueError, match="unknown divergence 'renyi'"):
            parse_plan("pair = uniform | uniform\ndivergences = renyi\n")

    def test_rejects_bad_syntax(self):
        with pytest.raises(ValueError):
            parse_plan("pair = uniform | uniform\njust some words\n")

    def test_file_source(self, tmp_path):
        stream = tmp_path / "a.stream"
        write_stream(str(stream), sample_stream(DistributionFamily.uniform(50), 100, 1), 50, "x")
        src = parse_source("file:a.stream", 50, base_dir=str(tmp_path))
        assert src == str(stream)
        assert harness._pair_label(src, DistributionFamily.uniform(50)) == "file:a.stream|uniform"
        with pytest.raises(FileNotFoundError):
            parse_source("file:missing.stream", 50, base_dir=str(tmp_path))

    def test_load_plan_resolves_relative_sources(self, tmp_path):
        stream = tmp_path / "trace.stream"
        write_stream(str(stream), sample_stream(DistributionFamily.uniform(50), 100, 1), 50, "x")
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text("pair = file:trace.stream | uniform\nn = 50\nm = 100\n")
        plan = load_plan(str(plan_file))
        assert plan.pairs[0] == (str(stream), DistributionFamily.uniform(50))


SHIPPED_PLANS = [pathlib.Path(PLANS, name).read_text() for name in sorted(os.listdir(PLANS))]
PAIR = "pair = uniform | zipf(alpha=1)\n"


@pytest.mark.parametrize("text,what", [
    ("pair = uniform | zipf\n", "alpha"),
    ("pair = uniform | zipf(beta=1)\n", "alpha"),
    ("pair = uniform(x=1) | uniform\n", "'x'"),
    ("pair = uniform | binomial(p=0.5,q=3)\n", "'q'"),
    ("pair = uniform | pascal(r=2.5)\n", "r must be an integer"),
    (PAIR + "trails = 5\n", "unknown key 'trails'"),
    (PAIR + "k = 8\nk = 16\n", "'k' is already set"),
    (PAIR + "m = 0\n", "m and n must be >= 1"),
    (PAIR + "m = -3\n", "m and n must be >= 1"),
    (PAIR + "n = 0\n", "n must lie in"),
    pytest.param("pair = uniform | poisson\nn = 1" + "0" * 400 + "\n", "n must lie in",
                 id="n-beyond-float-range"),
    (PAIR + "alpha = nan\n", "alpha must be finite"),
    (PAIR + "alpha = inf\n", "alpha must be finite"),
    (PAIR + "divergences = js, renyi\n", "unknown divergence 'renyi'"),
    ("pair = file:. | uniform\n", "not a regular file"),
    (PAIR + "k = 8, x\n", r"^plan line 2: k = '8, x': invalid literal for int\(\)"),
    (PAIR + "alpha = fast\n", r"^plan line 2: alpha = 'fast': could not convert"),
    (PAIR + "k =\n", r"^plan line 2: k = '': invalid literal for int\(\)"),
    (PAIR + "n = 1e3\n", r"^plan line 2: n = '1e3': invalid literal for int\(\)"),
    ("\npair = uniform |\n", r"^plan line 2: pair = 'uniform \|': cannot parse family"),
    ("pair = uniform | zipf(alpha=x)\n",
     r"^plan line 1: pair = 'uniform \| zipf\(alpha=x\)': could not convert"),
    ("pair = uniform\n", r"^plan line 1: pair = 'uniform': pair needs two sources"),
    (PAIR + "divergences = js, js\n", "plan lists divergence 'js' twice"),
    (PAIR + "k = 20, 20\n", "plan lists k value 20 twice"),
    (PAIR + "t = 2, 2\n", "plan lists t value 2 twice"),
    (PAIR + "pair = uniform | uniform\n" + PAIR,
     r"plan lists pair 'uniform\|zipf\(alpha=1\)' twice"),
])
def test_plan_rejection_names_the_fault(text, what):
    with pytest.raises(ValueError, match=what):
        parse_plan(text)


def test_plan_missing_file_source_names_its_line(tmp_path):
    text = "pair = uniform | uniform\npair = file:missing.stream | uniform\n"
    with pytest.raises(FileNotFoundError,
                       match=r"^plan line 2: pair = 'file:missing.stream \| uniform': stream source"):
        parse_plan(text, base_dir=str(tmp_path))


def test_plan_rejects_file_sources_sharing_a_basename(tmp_path):
    # The label keeps only the basename, so both pairs would key the same rows.
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        write_stream(str(tmp_path / sub / "trace.stream"), [1, 2], 50, "x")
    text = "pair = file:a/trace.stream | uniform\npair = file:b/trace.stream | uniform\n"
    with pytest.raises(ValueError, match=r"plan lists pair 'file:trace.stream\|uniform' twice"):
        parse_plan(text, base_dir=str(tmp_path))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_plan_text_parses_or_raises_value_error(data):
    grammar = "abcdiklmnoprstuzfx()=,.|:#_ \n0123456789-+"
    if data.draw(st.booleans()):
        text = data.draw(st.one_of(st.text(max_size=120), st.text(grammar, max_size=120)))
    else:
        plan = data.draw(st.sampled_from(SHIPPED_PLANS))
        start = data.draw(st.integers(0, len(plan)))
        end = data.draw(st.integers(start, min(len(plan), start + 12)))
        text = plan[:start] + data.draw(st.text(grammar, max_size=12)) + plan[end:]
    try:
        plan = parse_plan(text)
    except (ValueError, FileNotFoundError):
        return
    assert isinstance(plan, ExperimentPlan) and plan.pairs


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "stream", 0, 0, 0) == derive_seed(1, "stream", 0, 0, 0)
    seeds = {derive_seed(1, "stream", i, j, t) for i in range(4) for j in range(2) for t in range(8)}
    assert len(seeds) == 64


class TestRunPlan:
    def test_row_grid(self):
        plan = parse_plan(TINY_PLAN)
        rows = run_plan(plan)
        assert len(rows) == 2 * 2 * 2 * 1 * 2  # pairs * phis * k * t * trials
        keys = [(r.pair, r.phi, r.k, r.t, r.trial) for r in rows]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_sketch_below_reference(self):
        rows = run_plan(parse_plan(TINY_PLAN))
        for r in rows:
            if r.phi == "js" and not r.infinite:
                assert r.sketch <= r.ref + 1e-12

    def test_same_distribution_pair_near_zero(self):
        rows = run_plan(parse_plan(TINY_PLAN))
        same = [r for r in rows if r.pair == "uniform|uniform" and r.phi == "js"]
        assert same
        for r in same:
            assert r.ref < 0.05
            assert r.sketch < 0.05

    def test_determinism(self, tmp_path):
        plan_a = parse_plan(TINY_PLAN)
        plan_b = parse_plan(TINY_PLAN)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(run_plan(plan_a), str(a))
        write_results(run_plan(plan_b), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_file_sources(self, tmp_path):
        s1 = tmp_path / "one.stream"
        s2 = tmp_path / "two.stream"
        write_stream(str(s1), sample_stream(DistributionFamily.uniform(64), 500, 1), 64, "u")
        write_stream(str(s2), sample_stream(DistributionFamily.zipf(64, 1.0), 700, 2), 64, "z")
        plan_text = f"pair = file:one.stream | file:two.stream\ndivergences = js\nk = 8\nt = 2\n"
        plan = parse_plan(plan_text, base_dir=str(tmp_path))
        rows = run_plan(plan)
        assert len(rows) == 1
        assert math.isfinite(rows[0].ref)
        assert rows[0].sketch <= rows[0].ref + 1e-12


class TestFixedParts:
    """run_plan computes each source's cdf or file histogram once per call, and no longer."""

    @staticmethod
    def _counting(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_pmf_per_family_per_call(self, monkeypatch):
        with open(os.path.join(PLANS, "allpairs.plan")) as fh:
            text = fh.read()
        text = re.sub(r"(?m)^trials = .*$", "trials = 2", text)
        text = re.sub(r"(?m)^m = .*$", "m = 2000", text)
        plan = parse_plan(text)
        calls = self._counting(monkeypatch, generators, "pmf")
        run_plan(plan)
        assert len(calls) == 7
        assert len({d for (d,) in calls}) == 7
        run_plan(plan)
        assert len(calls) == 14

    def test_file_read_once_per_call(self, tmp_path, monkeypatch):
        write_stream(str(tmp_path / "one.stream"),
                     sample_stream(DistributionFamily.uniform(64), 500, 1), 64, "u")
        plan = parse_plan("pair = file:one.stream | uniform\ndivergences = js\nk = 8\nt = 2\n"
                          "trials = 3\nm = 1000\nn = 64\n", base_dir=str(tmp_path))
        calls = self._counting(monkeypatch, harness, "read_stream")
        rows = run_plan(plan)
        assert len(calls) == 1
        assert len({r.ref for r in rows}) == 3  # the uniform side is drawn afresh per trial
        run_plan(plan)
        assert len(calls) == 2

    def test_one_source_on_both_sides(self, monkeypatch):
        # uniform is both sides of one pair and a side of another: one cdf serves
        # all three, and each side of a trial still draws with its own seed.
        plan = parse_plan("pair = uniform | uniform\npair = zipf(alpha=1) | uniform\n"
                          "divergences = js\nk = 8\nt = 2\ntrials = 2\nm = 2000\nn = 100\n")
        calls = self._counting(monkeypatch, generators, "pmf")
        drawn = {}
        real = harness._draw_histogram

        def recorded(cdf, u, seed):
            drawn[seed] = real(cdf, u, seed)
            return drawn[seed]

        monkeypatch.setattr(harness, "_draw_histogram", recorded)
        for runs in (1, 2):
            run_plan(plan)
            assert len(calls) == 2 * runs
            assert {d.kind for (d,) in calls[-2:]} == {"uniform", "zipf"}
        uniform = DistributionFamily.uniform(plan.n)
        for pair_index, sides in ((0, (0, 1)), (1, (1,))):
            for trial in range(plan.trials):
                seeds = [derive_seed(plan.master_seed, "stream", pair_index, side, trial)
                         for side in sides]
                for seed in seeds:
                    want = sample_histogram(uniform, plan.m, seed)
                    assert drawn[seed].ids.tobytes() == want.ids.tobytes()
                    assert drawn[seed].counts.tobytes() == want.counts.tobytes()
                if pair_index == 0:
                    a, b = (drawn[seed] for seed in seeds)
                    assert (a.ids.tobytes(), a.counts.tobytes()) != (b.ids.tobytes(), b.counts.tobytes())

    def test_run_draws_equal_sample_histogram(self, monkeypatch):
        drawn = []
        real = harness._draw_histogram

        def recorded(cdf, u, seed):
            got = real(cdf, u, seed)
            drawn.append((u.size, seed, got))
            return got

        monkeypatch.setattr(harness, "_draw_histogram", recorded)
        plan = parse_plan(TINY_PLAN)
        run_plan(plan)
        expected = [(src, derive_seed(plan.master_seed, "stream", i, side, trial))
                    for i, pair in enumerate(plan.pairs) for trial in range(plan.trials)
                    for side, src in enumerate(pair)]

        def trials(draws):  # a trial's two sides are drawn at once, in either order
            return [sorted(draws[i:i + 2]) for i in range(0, len(draws), 2)]

        assert (trials([(m, seed) for m, seed, _ in drawn])
                == trials([(plan.m, seed) for _, seed in expected]))
        drawn_by_seed = {seed: got for _, seed, got in drawn}
        for family, seed in expected:
            got = drawn_by_seed[seed]
            want = sample_histogram(family, plan.m, seed)
            assert got.ids.dtype == want.ids.dtype and got.counts.dtype == want.counts.dtype
            assert got.ids.tobytes() == want.ids.tobytes()
            assert got.counts.tobytes() == want.counts.tobytes()


@pytest.mark.parametrize("failing_side", [0, 1])
def test_failed_draw_raises_and_leaves_no_thread(monkeypatch, failing_side):
    # Side 1 is drawn in a worker thread, side 0 in the calling one; a draw
    # that raises on either side surfaces from run_plan, with the worker joined.
    plan = parse_plan(TINY_PLAN)
    bad_seed = derive_seed(plan.master_seed, "stream", 0, failing_side, 0)
    real = harness._draw_histogram

    class DrawFailed(Exception):
        pass

    def failing(cdf, u, seed):
        if seed == bad_seed:
            raise DrawFailed(seed)
        return real(cdf, u, seed)

    monkeypatch.setattr(harness, "_draw_histogram", failing)
    threads = threading.active_count()
    with pytest.raises(DrawFailed, match=f"^{bad_seed}$"):
        run_plan(plan)
    assert threading.active_count() == threads


class TestSandwichCheck:
    def _row(self, ref, sketch):
        return ResultRow(pair="p", phi="js", k=4, t=2, trial=0, family_seed=1,
                         ref=ref, sketch=sketch)

    def test_passes_below(self):
        _check_sandwich(self._row(0.5, 0.3))

    def test_infinite_reference_allows_anything(self):
        _check_sandwich(self._row(math.inf, 5.0))

    def test_violation_raises(self):
        with pytest.raises(SandwichViolationError):
            _check_sandwich(self._row(0.3, 0.5))
        with pytest.raises(SandwichViolationError):
            _check_sandwich(self._row(0.3, math.inf))

    def test_run_plan_guards_bhattacharyya(self, monkeypatch):
        real = harness.sketch_star_metric

        def inflated(spec, a, b):
            result = real(spec, a, b)
            if spec.name == "bhattacharyya":
                result.value += 1.0
            return result

        monkeypatch.setattr(harness, "sketch_star_metric", inflated)
        with pytest.raises(SandwichViolationError, match="bhattacharyya"):
            run_plan(parse_plan(TINY_PLAN))


class TestSummary:
    def test_single_trial(self):
        rows = [ResultRow("p", "js", 4, 2, 0, 1, ref=0.5, sketch=0.4)]
        (s,) = sweep_summary(rows)
        assert s.trials == 1
        assert s.mean_ref == 0.5
        assert s.mean_abs_error == pytest.approx(0.1)
        assert s.stdev_abs_error == 0.0
        assert s.infinite_rows == 0

    def test_infinite_rows_separated(self):
        rows = [
            ResultRow("p", "kl", 4, 2, 0, 1, ref=math.inf, sketch=0.4),
            ResultRow("p", "kl", 4, 2, 1, 2, ref=1.0, sketch=0.5),
        ]
        (s,) = sweep_summary(rows)
        assert s.infinite_rows == 1
        assert s.mean_ref == 1.0
        assert s.mean_abs_error == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sweep_summary([])

    def test_groups_sorted(self):
        plan = parse_plan(TINY_PLAN)
        summaries = sweep_summary(run_plan(plan))
        keys = [(s.pair, s.phi, s.k, s.t) for s in summaries]
        assert keys == sorted(keys)
        assert all(s.trials == 2 for s in summaries)

    def test_close_parameters_stay_distinct_pairs(self):
        # Two zipf exponents that agree to six significant digits label
        # apart, so a one-trial plan summarizes to one row per pair.
        plan = parse_plan("pair = zipf(alpha=1.0000001) | uniform\n"
                          "pair = zipf(alpha=1.0000004) | uniform\n"
                          "divergences = tv\nk = 16\nt = 2\nm = 2000\nn = 100\n")
        summaries = sweep_summary(run_plan(plan))
        assert [s.pair for s in summaries] == ["zipf(alpha=1.0000001)|uniform",
                                               "zipf(alpha=1.0000004)|uniform"]
        assert all(s.trials == 1 for s in summaries)


def test_results_roundtrip(tmp_path):
    rows = run_plan(parse_plan("pair = uniform | binomial\ndivergences = js,kl\nk = 8\nt = 2\nm = 1000\nn = 50\n"))
    path = tmp_path / "rows.csv"
    write_results(rows, str(path))
    loaded = read_results(str(path))
    assert len(loaded) == len(rows)
    for a, b in zip(loaded, rows):
        assert (a.pair, a.phi, a.k, a.t, a.trial, a.family_seed) == \
               (b.pair, b.phi, b.k, b.t, b.trial, b.family_seed)
        assert a.ref == b.ref and a.sketch == b.sketch


def test_run_plan_to_dir(tmp_path):
    plan = parse_plan(TINY_PLAN)
    out = tmp_path / "results"
    rows = run_plan_to_dir(plan, str(out), TINY_PLAN)
    for name in ("results.csv", "summary.csv", "timings.csv", "manifest.txt"):
        assert (out / name).exists()
    manifest = (out / "manifest.txt").read_text()
    assert "master_seed = 7" in manifest
    assert "pair = uniform | zipf(alpha=1)" in manifest
    timings = (out / "timings.csv").read_text().splitlines()
    assert timings[0].startswith("pair,phi,k,t,trial,build_seconds")
    assert len(timings) == len(rows) + 1


def test_timings_rate_counts_materialized_file_items(tmp_path):
    # file: streams are 500 and 700 items long, whatever the plan's m says
    write_stream(str(tmp_path / "one.stream"),
                 sample_stream(DistributionFamily.uniform(64), 500, 1), 64, "u")
    write_stream(str(tmp_path / "two.stream"),
                 sample_stream(DistributionFamily.zipf(64, 1.0), 700, 2), 64, "z")
    plan_text = "pair = file:one.stream | file:two.stream\ndivergences = js, tv\nk = 8\nt = 2\n"
    plan = parse_plan(plan_text, base_dir=str(tmp_path))
    assert plan.m == 200_000
    out = tmp_path / "results"
    rows = run_plan_to_dir(plan, str(out), plan_text)
    with open(out / "timings.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == len(rows) == 2
    for row, rec in zip(rows, records):
        assert row.build_items == 1200
        assert int(rec["updates_per_second"]) == round(1200 / row.build_seconds)


def test_plan_validation():
    src = DistributionFamily.uniform(ExperimentPlan.n)
    with pytest.raises(ValueError):
        ExperimentPlan(pairs=[], divergences=["js"], k_values=[4], t_values=[2])
    with pytest.raises(ValueError, match="at least one divergence"):
        ExperimentPlan(pairs=[(src, src)], divergences=[], k_values=[4], t_values=[2])
    with pytest.raises(ValueError):
        ExperimentPlan(pairs=[(src, src)], divergences=["js"], k_values=[0], t_values=[2])
    with pytest.raises(ValueError):
        ExperimentPlan(pairs=[(src, src)], divergences=["js"], k_values=[4], t_values=[2], trials=0)
    # A source is a stream file path or a family over the plan's universe 1..n;
    # a uniform(n = 10) side of a plan over n = 5 would fail only inside run_plan.
    for bad in (None, DistributionFamily.uniform(10), b"a.stream"):
        with pytest.raises(ValueError, match=re.escape(
                f"a source is a stream file path or a family over n = 5, got {bad!r}")):
            ExperimentPlan(pairs=[(bad, DistributionFamily.uniform(5))], n=5)


@pytest.mark.parametrize("field_name, value", [
    ("trials", True), ("trials", 1.5), ("trials", 2.0), ("m", 100.0), ("m", False),
    ("n", 50.0), ("n", True), ("k_values", [4, True]), ("k_values", [2.5]),
    ("t_values", [True]), ("t_values", [2, np.float64(3)]),
])
def test_plan_rejects_non_integral_counts(field_name, value):
    # A bool t ran as t = 1 and wrote True into results.csv; a float trials or
    # m failed only inside run_plan, with a TypeError.
    bad = value[-1] if isinstance(value, list) else value
    n = value if field_name == "n" else 50
    src = DistributionFamily.uniform(50)
    with pytest.raises(ValueError, match=f"^{field_name}: {re.escape(repr(bad))} is not an integer$"):
        ExperimentPlan(pairs=[(src, src)], **{"n": n, field_name: value})


def test_plan_accepts_numpy_integers():
    src = DistributionFamily.uniform(50)
    plan = ExperimentPlan(pairs=[(src, src)], k_values=[np.int64(4)], t_values=[np.int32(2)],
                          trials=np.int64(1), m=np.int64(100), n=np.int64(50))
    rows = run_plan(plan)
    assert [(row.k, row.t) for row in rows] == [(4, 2)]


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_output_bytes_pinned(tmp_path):
    # The shipped allpairs plan at one trial of 20000 items, and the histogram
    # file of one generated stream, must keep their exact bytes: every
    # reference value, estimate and count is fixed by the plan and its seed.
    with open(os.path.join(PLANS, "allpairs.plan")) as fh:
        text = fh.read()
    text = re.sub(r"(?m)^trials = .*$", "trials = 1", text)
    text = re.sub(r"(?m)^m = .*$", "m = 20000", text)
    out = tmp_path / "allpairs"
    run_plan_to_dir(parse_plan(text), str(out))
    assert _sha256(out / "results.csv") == \
        "4f89107c40c3b27ae2aa9762efd0c60656803f06dce400988b3bdd91dfe2e1ed"
    assert _sha256(out / "summary.csv") == \
        "fa3331b8bf839d93b253ae437e898fdca0bebd67fe444c07214ac35ef5f467a2"
    hist = tmp_path / "hist.csv"
    dump_histogram(from_stream(sample_stream(DistributionFamily.zipf(4000, 1.0), 20000, 3)),
                   str(hist))
    assert _sha256(hist) == "e7e2b0ead927ea1ecc1926e74367b7447e85872e0b94fb6dd115f84ae45e5673"


def test_multi_trial_output_bytes_pinned(tmp_path):
    # Three trials of the shipped allpairs plan draw each family again per
    # trial and per pair; every one of those draws is fixed by the seed.
    with open(os.path.join(PLANS, "allpairs.plan")) as fh:
        text = fh.read()
    text = re.sub(r"(?m)^trials = .*$", "trials = 3", text)
    text = re.sub(r"(?m)^m = .*$", "m = 20000", text)
    out = tmp_path / "allpairs"
    run_plan_to_dir(parse_plan(text), str(out))
    assert _sha256(out / "results.csv") == \
        "edf2cf7ff61a9b1b2b0df98253cbaf198e75707f1fd95f1a3d134a1cd0d9ec0a"
    assert _sha256(out / "summary.csv") == \
        "7e3828ce33c9e1aeee79d127aca1afd60a13d1000b40c04ca60a2081bfb29bb9"


def test_file_source_output_bytes_pinned(tmp_path):
    # A file: source is read for every trial of every pair it appears in.
    write_stream(str(tmp_path / "one.stream"),
                 sample_stream(DistributionFamily.uniform(64), 500, 1), 64, "u")
    write_stream(str(tmp_path / "two.stream"),
                 sample_stream(DistributionFamily.zipf(64, 1.0), 700, 2), 64, "z")
    plan_text = ("pair = file:one.stream | file:two.stream\n"
                 "pair = file:one.stream | zipf(alpha=1)\n"
                 "divergences = js, bhattacharyya\nk = 8, 16\nt = 2\n"
                 "trials = 3\nm = 1000\nn = 64\nseed = 5\n")
    out = tmp_path / "files"
    run_plan_to_dir(parse_plan(plan_text, base_dir=str(tmp_path)), str(out))
    assert _sha256(out / "results.csv") == \
        "f702ee9ca8a29b49bccd60564390c9f70cf564f78fd3e7764d0870b8b30cfa02"
    assert _sha256(out / "summary.csv") == \
        "158a94d10cf016f6439be6bab8d58af919d080ba7d148ffc569a131d0afa0e8e"


# Full sha256 of (results.csv, summary.csv) for each shipped plan as it stands.
# Like the pins above, these bytes hold for one numpy version and SIMD dispatch
# level (numpy 2.4, AVX-512); on a CPU without AVX-512 the floats differ by a
# few ulp and so do the digests (ROADMAP item 4).
SHIPPED_PLAN_DIGESTS = {
    "allpairs.plan": ("5a9560656242c21ade6a27bc83d457c608a62d63d898b9b7180ffe7a50572206",
                      "620e636e79120b6a3c614b4e073e9fe7e27237e9e38fc0c97e8e971f4c37880e"),
    "k-sweep.plan": ("0917c03cdc908f68947da481f9b2fb2e2313889e379c93945155a2c2d865dd74",
                     "31e2722cc68b51b3148e28fbf4711566bd1d8e9c457e017e948cdc4469182528"),
    "r-sweep.plan": ("e5e62ec79c37dedb7501ff09b7084b3cb6205ad086b4fc1fb6b09f2b895506d0",
                     "b2823a818f68b634b9fd337ca9430242ea0331beee3e9bd6abf4787842a59a4a"),
    "t-sweep.plan": ("0ed2ed3806994fcb708346187dfe6163572a1b7da1b114762b83aaebe3461355",
                     "6d7a92dadd48c6ea5752b681155876049bfb7c5e7e943cd735483c9457ba9e9e"),
}


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(PLANS) if n.endswith(".plan")))
def test_shipped_plan_bytes_pinned(name, tmp_path):
    run_plan_to_dir(load_plan(os.path.join(PLANS, name)), str(tmp_path))
    assert (_sha256(tmp_path / "results.csv"),
            _sha256(tmp_path / "summary.csv")) == SHIPPED_PLAN_DIGESTS[name]

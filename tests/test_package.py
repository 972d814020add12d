import importlib.util
import pathlib
import types

import starsketch
import numpy as np

from starsketch import sketch
from starsketch.divergence import get_divergence
from starsketch.hashing import new_family
from starsketch.starmetric import exact_star_metric, sketch_star_metric

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(starsketch).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(starsketch.__all__) - {"__version__"}
    assert len(starsketch.__all__) == len(set(starsketch.__all__))
    for name in starsketch.__all__:
        assert hasattr(starsketch, name), name


def test_benchmark_tracer_finds_every_name_it_wraps():
    # The benchmark's tracer replaces program functions by module attribute
    # and raises KeyError on entry when one of them no longer exists.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = sketch.evaluate_batch
    with tracer.patched(tracer.Tracer()):
        assert sketch.evaluate_batch is not original
    assert sketch.evaluate_batch is original
    t = tracer.Tracer()
    kl = get_divergence("kl")
    p, q = [0.5, 0.5], [0.25, 0.75]
    timed = t.timed_spec(kl)
    assert timed(p, q) == kl(p, q)
    assert t.counts["divergence.rows"] == 1
    # The oracle and the sketch query reach the kernel through eval_rows,
    # the field the tracer swaps in: one row per partition or sketch row.
    rng = np.random.default_rng(0)
    p5, q5 = (v / v.sum() for v in rng.random((2, 5)) + 0.05)
    assert exact_star_metric(timed, p5, q5, 3).value == exact_star_metric(kl, p5, q5, 3).value
    assert t.counts["divergence.rows"] == 1 + 25
    family = new_family(4, 8, 100, 1)
    a = sketch.sketch_stream(family, range(1, 50))
    b = sketch.sketch_stream(family, range(20, 90))
    assert sketch_star_metric(timed, a, b).value == sketch_star_metric(kl, a, b).value
    assert t.counts["divergence.rows"] == 1 + 25 + 4

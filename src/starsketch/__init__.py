"""starsketch: compare large data streams through compact counter sketches.

Two streams are summarized online into t x k counter matrices built on a
shared 2-universal hash family; any registered divergence between the streams
is then estimated from the matrices alone as the maximum over the t row
pairs.  An exact partition-enumeration oracle computes the same
partition-maximized divergence by brute force on small universes, which makes
every metric axiom and divergence property testable against ground truth.
"""

__version__ = "0.1.0"

from .divergence import (
    BregmanGenerator,
    DivergenceSpec,
    FGenerator,
    available,
    from_bregman_generator,
    from_f_generator,
    get_divergence,
    register,
    smoothed,
)
from .generators import (
    DistributionFamily,
    pmf,
    read_stream,
    sample_histogram,
    sample_stream,
    write_stream,
)
from .harness import (
    ExperimentPlan,
    ResultRow,
    StreamSource,
    load_plan,
    parse_plan,
    run_plan,
    run_plan_to_dir,
    sweep_summary,
)
from .hashing import (
    HashFamily,
    HashFunction,
    evaluate_batch,
    new_family,
)
from .histogram import (
    EmpiricalDistribution,
    PartitionBudgetError,
    aggregate,
    as_distribution,
    assignment_blocks,
    from_stream,
    normalize,
    stirling,
)
from .ingest import LogRecord, TraceStats, parse_clf_line, target_to_item, trace_stats
from .sketch import FamilyMismatchError, SketchMatrix, load_sketch, sketch_stream
from .starmetric import (
    PreservationReport,
    StarMetricResult,
    exact_star_metric,
    preservation_suite,
    reference_distance,
    sketch_star_metric,
)

__all__ = [
    "__version__",
    "BregmanGenerator", "DivergenceSpec", "FGenerator",
    "available", "from_bregman_generator", "from_f_generator", "get_divergence",
    "register", "smoothed",
    "DistributionFamily", "pmf", "read_stream", "sample_histogram", "sample_stream",
    "write_stream",
    "ExperimentPlan", "ResultRow", "StreamSource", "load_plan", "parse_plan",
    "run_plan", "run_plan_to_dir", "sweep_summary",
    "HashFamily", "HashFunction", "evaluate_batch", "new_family",
    "EmpiricalDistribution", "PartitionBudgetError", "aggregate",
    "as_distribution", "assignment_blocks", "from_stream", "normalize", "stirling",
    "LogRecord", "TraceStats", "parse_clf_line", "target_to_item", "trace_stats",
    "FamilyMismatchError", "SketchMatrix", "load_sketch", "sketch_stream",
    "PreservationReport", "StarMetricResult", "exact_star_metric",
    "preservation_suite", "reference_distance", "sketch_star_metric",
]

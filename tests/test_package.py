"""The package's public surface: `rangewalk.__all__`, pinned, and what its first calls import."""

import subprocess
import sys

import pytest

import rangewalk

PUBLIC = [
    "AggregateReport",
    "AnalysisReport",
    "ClassRAssumptionError",
    "CoordinateOverflowError",
    "DegeneratePlanError",
    "DimensionMismatchError",
    "ExactRangeStats",
    "ExcursionCheck",
    "MarkovIncrementChain",
    "MemoryGuardError",
    "MetricAggregate",
    "NoReturnEstimate",
    "RangeTracker",
    "ReducibleChainError",
    "ReturnTimes",
    "TailEstimate",
    "TrialSpec",
    "WalkMetadata",
    "WalkStream",
    "ZigzagPlan",
    "analyze_stream",
    "arith_checkpoints",
    "check_excursion_bound",
    "check_maximal_range",
    "check_range_sandwich_1d",
    "compare",
    "dyadic_checkpoints",
    "estimate_no_return",
    "exact_range_speed",
    "gen_birth_death",
    "gen_ergodic_walk",
    "gen_linear_drift",
    "gen_simple_rw",
    "gen_spiral2d",
    "gen_tau_tent",
    "gen_zigzag",
    "make_walk",
    "mix_seed",
    "ratio_series",
    "return_times",
    "run_trials",
    "stationary_distribution",
    "track_extrema",
    "track_range",
    "validate_increment_bound",
    "walk_from_path",
]


def test_all_is_pinned_and_resolves():
    assert len(PUBLIC) == 46
    assert sorted(rangewalk.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(rangewalk, name) is not None


def test_internal_steps_stay_unexported():
    # Each of these is reached through a public name: plan.n0, gen_zigzag,
    # AnalysisReport.tails.
    for name in ("LatticePoint", "compute_n0", "zigzag_plan", "tail_limit_estimate"):
        assert not hasattr(rangewalk, name), name


def test_first_calls_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, 8-14 ms of a one-shot run.
    code = """
import sys
import numpy
if "numpy.ma" in sys.modules:
    print("preloaded")
    raise SystemExit
from rangewalk import make_walk, track_range
stream = make_walk({"gen": "ergodic", "preset": "switch:0.1,0.3", "steps": 100}, seed=1)
track_range(stream, 100, [100, 3, 3, 0])
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    if out.stdout.strip() == "preloaded":
        pytest.skip("import numpy loads numpy.ma with this numpy")
    assert out.stdout.strip() == "False"

import time

T0 = time.perf_counter()

# One fresh process per call, so that ru_maxrss belongs to this workload
# alone.  setup_s runs from the statement above through `import rangewalk`
# and the construction of the workload's specs, up to the first timed call;
# the benchmark's own module imports and input generation are subtracted.
#
# Usage: python3 bench/child.py '<json args>'; prints one JSON object.

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import rangewalk as rw  # noqa: E402

T_IMPORTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
from workloads import Workload, digests, sizes_for  # noqa: E402

#: Operations each child times at least, however long they take.
MIN_OPS = 2

_CAL_FLOATS = np.random.Generator(np.random.PCG64(12345)).random(1 << 16)
_CAL_SMALL = np.arange(16, dtype=np.int64)
_CAL_KEYS = np.random.Generator(np.random.PCG64(12346)).integers(0, 1 << 40, size=1 << 13)


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work.

    A shared host can change speed by a third for tens of seconds at a
    time, and interpreter-bound and numpy-bound code slow down together.
    Timing this kernel between operations measures the host's current
    speed, so an operation's time can be expressed at a fixed speed.
    """
    t = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i
    {i: (i, str(i)) for i in range(3_000)}
    for _ in range(400):
        np.cumsum(_CAL_SMALL)
        np.maximum.accumulate(_CAL_SMALL)
    for i in range(100):
        np.random.Generator(np.random.PCG64(i)).random(10)
    np.sort(_CAL_FLOATS)
    np.cumsum(_CAL_FLOATS)
    np.union1d(_CAL_KEYS, _CAL_KEYS[::2])
    return time.perf_counter() - t


def main(args: dict) -> dict:
    if not os.path.abspath(rw.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"rangewalk imported from {rw.__file__}, not from this checkout")
    wl = Workload(args["workload"], args["seed"], sizes_for(args["smoke"]), args["workdir"])
    wl.make_inputs()
    t_setup = time.perf_counter()
    wl.setup(rw)
    setup_s = (T_IMPORTED - T0) + (time.perf_counter() - t_setup)

    budget = args["seconds"]
    times, op_digests, first = [], [], None
    tracer = layers.Tracer() if args["trace"] else None
    traced_times, scaled, cal = [], [], [calibrate()]
    start = time.perf_counter()
    while True:
        # With tracing, operations alternate untraced / traced; the traced
        # ones feed the overhead ratio only.
        traced = tracer is not None and len(times) > len(traced_times)
        t = time.perf_counter()
        if traced:
            with tracer.span("op." + wl.name):
                result = wl.op(rw, tracer)
        else:
            result = wl.op(rw)
        dt = time.perf_counter() - t
        cal.append(calibrate())
        (traced_times if traced else times).append(dt)
        if not traced:
            # the operation's time in units of the kernel timed around it
            scaled.append(dt / ((cal[-2] + cal[-1]) / 2))
        texts = wl.outputs(result)
        if first is None:
            first = texts
        op_digests.append(digests(texts))
        if time.perf_counter() - start >= budget and len(times) >= MIN_OPS:
            if tracer is None or traced_times:
                break

    doc = {
        "setup_s": setup_s,
        "times": times,
        "scaled": scaled,
        "calibration_s": statistics.median(cal),
        "digests": op_digests,
        "outputs": first,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        doc["traced_times"] = traced_times
        doc["per_layer"] = layers.probe_all(rw, tracer, wl, 1 if args["smoke"] else layers.PROBE_REPS)
        tracer.write(args["trace_file"])
    return doc


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite takes about a minute on a laptop.  Monte Carlo
criteria use fixed master seeds, so results are reproducible bit-for-bit.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

import rangewalk as rw
from rangewalk.cli import run_command
from rangewalk.suites import (
    maximal_range_suite,
    sandwich_suite,
    spiral_distinct_suite,
)


def _report(num, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} - {title}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {title} ({detail})"


def test_criterion_01_range_speed_equals_walk_speed(capsys):
    code = run_command([
        "mc", "--gen", "srw", "--p", "0.7", "--steps", "200000",
        "--trials", "200", "--seed", "42", "--json",
    ])
    doc = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        r = doc["per_metric"]["range_speed"]["mean"]
        w = doc["per_metric"]["walk_speed"]["mean"]
        ok = (
            code == 0
            and abs(r - 0.4) <= 0.02
            and abs(w - 0.4) <= 0.02
            and abs(r - w) <= 0.02
        )
        _report(
            1,
            "range speed equals walk speed at |2p-1| (p=0.7)",
            ok,
            f"R/N {r:.5f}, |X|/N {w:.5f}, cross {abs(r - w):.2e}",
        )


def test_criterion_02_zero_speed_symmetric_walk(capsys):
    spec = rw.TrialSpec(
        config={"gen": "srw", "p": 0.5, "steps": 10**6},
        horizon=10**6,
        metrics=("range_speed", "walk_speed"),
        trials=100,
        master_seed=7,
    )
    report = rw.run_trials(spec, workers=4)
    r = report.per_metric["range_speed"].mean
    w = report.per_metric["walk_speed"].mean
    with capsys.disabled():
        _report(
            2,
            "symmetric walk has zero speed at N=10^6",
            r < 0.01 and w < 0.01,
            f"R/N {r:.5f}, |X|/N {w:.5f}",
        )


def test_criterion_03_no_return_frequency(capsys):
    est = rw.estimate_no_return(0.7, 10**4, 10**4, master_seed=42, horizons=(100, 1000, 10**4))
    in_band = 0.39 <= est.frequency <= 0.43
    nested_ok = est.per_trial_monotone
    indicators = [est.indicators(h) for h in est.horizons]
    literal = all(
        all(a >= b for a, b in zip(lo, hi))
        for lo, hi in zip(indicators, indicators[1:])
    )
    with capsys.disabled():
        _report(
            3,
            "no-return frequency in [0.39, 0.43] with monotone truncation",
            in_band and nested_ok and literal,
            f"freq {est.frequency:.4f}, nested {est.frequencies}",
        )


def test_criterion_04_exhaustive_oracle(capsys):
    frozen = {0.5: 1323 / 2560, 0.3: 15869000543 / 25e9, 0.7: 15869000543 / 25e9}
    details = []
    ok = True
    for p in (0.3, 0.5, 0.7):
        exact = rw.exact_range_speed(p, 10)
        assert exact.mean == pytest.approx(frozen[p], abs=1e-12)
        spec = rw.TrialSpec(
            config={"gen": "srw", "p": p, "steps": 10},
            horizon=10,
            metrics=("range_speed",),
            trials=10**5,
            master_seed=11,
        )
        mc = rw.run_trials(spec).per_metric["range_speed"].mean
        band = 3 * exact.std / np.sqrt(10**5)
        ok &= abs(mc - exact.mean) <= band
        details.append(f"p={p}: |mc-exact| {abs(mc - exact.mean):.5f} <= {band:.5f}")
    with capsys.disabled():
        _report(4, "Monte Carlo matches the 2^10-path enumeration", ok, "; ".join(details))


def test_criterion_05_zigzag_exactness(capsys):
    stream, plan = rw.gen_zigzag(0.5, 10**6)
    x = stream.path_array(10**6)
    taus = [t for t in plan.tau if t <= 10**6]
    iter_ok = all(x[t] == 0 for t in taus)
    peaks = [t for t in plan.t[1:] if t <= 10**6]
    iter_ok &= all(2 * x[t] == t for t in peaks)
    formula_ok = all(
        plan.position_at(plan.tau_at(n)) == 0 and plan.peak_ratio(n) == Fraction(1, 2)
        for n in range(1, 31)
    )
    with capsys.disabled():
        _report(
            5,
            "zigzag(1/2): x_tau = 0 and x_t/t = 1/2 exactly",
            iter_ok and formula_ok,
            f"{len(taus)} return times below 10^6; formula checked to n=30",
        )


def test_criterion_06_general_ell_zigzag(capsys):
    ok = True
    details = []
    for ell in (0.1, 0.3, 0.9):
        _, plan = rw.gen_zigzag(ell, 1000)  # construction validates the plan
        best = max(float(plan.peak_ratio(n)) for n in range(1, 21))
        ok &= best >= ell
        details.append(f"ell={ell}: max ratio {best:.4f}")
    _, p3 = rw.gen_zigzag(0.3, 12)
    ok &= p3.tau[:3] == (2, 6, 12)
    with capsys.disabled():
        _report(6, "general-ell plans validate and reach ell", ok, "; ".join(details))


def test_criterion_07_maximal_range_inequality(capsys):
    results = maximal_range_suite(paths=10**4, length=10**3, m_values=(1, 2, 3, 5), seed=7)
    ok = all(r.passed for r in results)
    with capsys.disabled():
        _report(
            7,
            "maximal range inequality over 10^4 paths, generators, and Z^2",
            ok,
            "; ".join(r.detail for r in results if not r.passed) or f"{len(results)} property groups",
        )


def test_criterion_08_sandwich_and_oracle_equivalence(capsys):
    results = sandwich_suite(paths=10**4, length=10**3, seed=7)
    ok = all(r.passed for r in results)
    with capsys.disabled():
        _report(
            8,
            "1-D sandwich plus extent/set range oracle equivalence on 10^4 paths",
            ok,
            "; ".join(r.detail for r in results),
        )


def test_criterion_09_return_ratio_zero_speed(capsys):
    horizon = 2 * 10**5
    tent = rw.gen_tau_tent("squares", horizon)
    x = tent.path_array(horizon)
    n = np.arange(10**4, horizon + 1)
    worst = float(np.max(np.abs(x[10**4:]) / n))
    ratios = rw.ratio_series(rw.return_times(tent, horizon))
    last = float(ratios[-1])
    with capsys.disabled():
        _report(
            9,
            "tau_k/tau_{k-1} -> 1 forces zero speed (squares schedule)",
            worst <= 0.011 and last <= 1.01,
            f"max |x_n|/n for n >= 10^4: {worst:.6f}; last ratio {last:.6f}",
        )


def test_criterion_10_excursion_bound(capsys):
    zz, _ = rw.gen_zigzag(0.5, 10**4)
    zz_chk = rw.check_excursion_bound(zz, 10**4)
    sq_chk = rw.check_excursion_bound(rw.gen_tau_tent("squares", 10**4), 10**4)
    srw_ok = True
    for i in range(100):
        stream = rw.gen_simple_rw(0.5, 10**4, rw.mix_seed(7, i))
        srw_ok &= rw.check_excursion_bound(stream, 10**4).holds
    ok = zz_chk.holds and sq_chk.holds and srw_ok and zz_chk.tight == zz_chk.n_excursions
    with capsys.disabled():
        _report(
            10,
            "excursion bound with equality at tent peaks",
            ok,
            f"zigzag tight {zz_chk.tight}/{zz_chk.n_excursions}; "
            f"squares {sq_chk.n_excursions} excursions; 100 srw seeds",
        )


def test_criterion_11_ergodic_increments(capsys):
    spec = rw.TrialSpec(
        config={"gen": "ergodic", "preset": "switch:0.1,0.3", "steps": 2 * 10**5},
        horizon=2 * 10**5,
        metrics=("range_speed", "walk_speed"),
        trials=200,
        master_seed=42,
    )
    report = rw.run_trials(spec, workers=4)
    r = report.per_metric["range_speed"].mean
    theory = report.per_metric["range_speed"].theory
    with capsys.disabled():
        _report(
            11,
            "ergodic-increment walk: R_N/N matches |E(increment)| = 0.5",
            theory == pytest.approx(0.5) and abs(r - 0.5) <= 0.02,
            f"R/N {r:.5f} vs stationary mean {theory:.3f}",
        )


def test_criterion_12_birth_death_zero_speed(capsys):
    spec = rw.TrialSpec(
        config={"gen": "birth-death", "preset": "symmetric", "steps": 10**6},
        horizon=10**6,
        metrics=("walk_speed",),
        trials=50,
        master_seed=7,
    )
    report = rw.run_trials(spec, workers=4)
    w = report.per_metric["walk_speed"].mean
    with capsys.disabled():
        _report(12, "recurrent birth-death chain has zero speed", w < 0.01, f"|X|/N {w:.6f}")


def test_criterion_13_spiral_remark(capsys):
    results = spiral_distinct_suite(steps=10**5)
    ok = all(r.passed for r in results)
    with capsys.disabled():
        _report(
            13,
            "Z^2 spiral: r_n = n + 1 with vanishing ||x_n||/n",
            ok,
            "; ".join(r.detail for r in results),
        )

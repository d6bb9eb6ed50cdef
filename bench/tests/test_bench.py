"""Tests of the benchmark's own logic: oracles, span self time, tail selection, failure counts.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import threading
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import dunkl_oscillator as pkg  # noqa: E402
import dunkl_oscillator.cli  # noqa: E402,F401
import oracles  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from summary import LayerTotals, OpRecord, failed_share, tail_percentile  # noqa: E402
from workloads import SpectrumWorkload, TabulateWorkload, VerifyWorkload  # noqa: E402

# ----------------------------------------------------------------- spectrum oracle


def test_spectrum_oracle_six_states_up_to_e3_at_mu_zero():
    want = oracles.spectrum_oracle(3.0, 0.0, 0.0)
    assert want["count"] == 6
    assert sorted(want["energy"]) == [1.0, 2.0, 2.0, 3.0, 3.0, 3.0]
    labels = sorted(zip(want["s1"].tolist(), want["s2"].tolist(), want["two_m"].tolist(), want["nr"].tolist()))
    assert labels == [(-1, -1, 2, 0), (-1, 1, 1, 0), (1, -1, 1, 0), (1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 2, 0)]


@pytest.mark.parametrize("mu", [(0.0, 0.0), (0.3, 1.2), (-0.45, -0.4)])
def test_spectrum_oracle_level_n_plus_1_holds_n_plus_1_states(mu):
    want = oracles.spectrum_oracle(40.0, *mu)
    levels, counts = np.unique(np.round(want["energy"] - sum(mu), 9), return_counts=True)
    assert levels.tolist() == list(range(1, len(levels) + 1))
    assert counts.tolist() == list(range(1, len(levels) + 1))


def test_spectrum_oracle_is_empty_below_the_ground_state():
    assert oracles.spectrum_oracle(0.5, 0.0, 0.0)["count"] == 0


def _spectrum_text(fmt, emax=12.5, mu=(0.3, -0.2)):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pkg.cli.main(["spectrum", "--emax", repr(emax), "--mu1", repr(mu[0]), "--mu2", repr(mu[1]),
                             "--format", fmt])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_check_spectrum_accepts_the_cli_output(fmt):
    want = oracles.spectrum_oracle(12.5, 0.3, -0.2)
    assert oracles.check_spectrum(_spectrum_text(fmt), fmt, want, 0.3, -0.2) == []


def test_check_spectrum_reports_a_missing_state_and_a_wrong_energy():
    want = oracles.spectrum_oracle(12.5, 0.3, -0.2)
    text = _spectrum_text("csv")
    lines = text.splitlines()
    dropped = "\n".join(lines[:-1]) + "\n"
    assert oracles.check_spectrum(dropped, "csv", want, 0.3, -0.2)
    doc = json.loads(_spectrum_text("json"))
    doc["states"][3]["energy"] += 1.0
    assert "energy does not match its own label" in oracles.check_spectrum(json.dumps(doc), "json", want, 0.3, -0.2)


# --------------------------------------------------------------------- self time


def test_self_time_subtracts_the_union_of_children_across_threads():
    spans = [
        Span(0, "run_checks", "verify", 0, 100, None, thread=1),
        Span(1, "a", "specfun", 10, 30, 0, thread=1),
        Span(2, "b", "specfun", 20, 50, 0, thread=2),  # overlaps a on another thread
        Span(3, "c", "specfun", 90, 120, 0, thread=2),  # runs past the parent: clipped
        Span(4, "d", "specfun", 12, 20, 1, thread=1),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 100 - 40 - 10, 1: 20 - 8, 2: 30, 3: 30, 4: 8}


def test_pool_thread_spans_take_run_checks_as_parent():
    tracer = Tracer()

    # Both workers stay alive together, as in a pool, so their thread ids differ.
    barrier = threading.Barrier(2, timeout=10)
    leaf = tracer._wrap("leaf", "specfun", barrier.wait)

    def run_checks():
        threads = [threading.Thread(target=leaf) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
        assert not any(th.is_alive() for th in threads)
        return []

    tracer._wrap("run_checks", "verify", run_checks)()
    spans = tracer.take()
    root = next(sp for sp in spans if sp.name == "run_checks")
    leaves = [sp for sp in spans if sp.name == "leaf"]
    assert len(leaves) == 2 and all(sp.parent == root.sid for sp in leaves)
    totals = LayerTotals()
    totals.add(spans)
    assert totals.c["threads_seen"] == 2


def test_install_wraps_every_binding_and_uninstall_restores():
    original = pkg.specfun.laguerre
    tracer = Tracer()
    tracer.install(pkg)
    try:
        assert pkg.profiles.laguerre is pkg.specfun.laguerre is pkg.laguerre
        assert pkg.laguerre is not original
        q = pkg.RadialQuantum.from_m(3, Fraction(1, 2), pkg.DeformationParams(0.2, 0.1))
        pkg.radial_sturmian(q, pkg.DeformationParams(0.2, 0.1))(np.linspace(0.1, 3.0, 7))
    finally:
        tracer.uninstall()
    assert pkg.specfun.laguerre is original and pkg.profiles.laguerre is original
    names = [sp.name for sp in tracer.take()]
    assert names.count("laguerre") == 1 and "GaussLaguerreSum._evaluate" in names


# ------------------------------------------------------------------- tail choice


def test_tail_percentile_leaves_ten_samples_beyond():
    value, pct, n = tail_percentile([float(v) for v in range(1, 1001)])
    assert (value, n) == (990.0, 1000) and pct == pytest.approx(99.0)
    value, pct, n = tail_percentile([float(v) for v in range(20, 0, -1)])
    assert (value, n) == (10.0, 20) and pct == pytest.approx(50.0)


def test_tail_percentile_small_samples():
    value, pct, n = tail_percentile([3.0, 1.0, 2.0] + [0.5] * 8)
    assert (value, n) == (0.5, 11) and pct == pytest.approx(100.0 / 11)
    value, pct, _ = tail_percentile([2.0, 7.0, 1.0])
    assert value == 7.0 and pct == pytest.approx(100.0)


# ------------------------------------------------------------------- run length


def test_run_length_is_whole_rounds_set_by_seconds_alone():
    wl = VerifyWorkload(pkg, Path("."))
    assert wl.ops_for(wl.round_seconds * 3.2) == 3 * wl.round_size
    assert wl.ops_for(0.01) == wl.round_size


def test_same_seed_gives_the_same_operations():
    wl = SpectrumWorkload(pkg, Path("."))

    def ops(seed):
        stream = wl.ops(np.random.default_rng([seed, 1]))
        return [next(stream) for _ in range(wl.ops_for(60.0))]

    assert ops(7) == ops(7)
    assert ops(7) != ops(8)


# ---------------------------------------------------------------- failure counts


def test_failed_share_sums_units():
    records = [OpRecord(0.1, units=32, failed=2, work=32), OpRecord(0.2, units=32, failed=0, work=32)]
    assert failed_share(records) == (64, 2, 2 / 64)


def _verify_report(records, exit_code, summary, tmp_path, mu=(0.5, 0.5)):
    """Run VerifyWorkload.run against a CLI stand-in that writes the given report."""

    def main(argv):
        Path(argv[argv.index("--out") + 1]).write_text(json.dumps(records))
        print(summary)
        return exit_code

    fake = SimpleNamespace(cli=SimpleNamespace(main=main))
    return VerifyWorkload(fake, tmp_path).run({"mu1": mu[0], "mu2": mu[1], "seed": 0})


def _records(n=32):
    return [{"name": f"check_{i:02d}", "suite": "radial", "residual": 0.0, "tolerance": 1e-9,
             "passed": True, "error": None} for i in range(n)]


def test_verify_counts_a_raised_check_and_flags_an_unknown_one(tmp_path):
    recs = _records()
    recs[0].update(name="casimir_scalar", residual=None, passed=False,
                   error="DomainError: angular eigenvalue l2 must be non-negative, got -0.4")
    recs.sort(key=lambda r: r["name"])
    known = _verify_report(recs, 1, "FAIL: 1/32 checks failed", tmp_path, mu=(-0.31, -0.39))
    assert (known.units, known.failed, known.unexplained) == (32, 1, 0)
    unknown = _verify_report(recs, 1, "FAIL: 1/32 checks failed", tmp_path, mu=(0.5, 0.5))
    assert (unknown.failed, unknown.unexplained) == (1, 1)


def test_verify_flags_an_inconsistent_report(tmp_path):
    recs = _records()
    recs[5]["residual"] = 1.0  # above tolerance but reported as passed
    rec = _verify_report(recs, 0, "PASS: 32 checks", tmp_path)
    assert rec.failed == 0 and rec.unexplained == 1
    rec = _verify_report(_records(31), 0, "PASS: 31 checks", tmp_path)
    assert rec.units == 32 and rec.failed == 1 and rec.unexplained >= 1


def _radial_op(values_fn, nr=3, rmax=45.0, turning=5.0):
    s, r = oracles.radial_grid(rmax, 2001)
    op = {"kind": "radial", "mu1": 0.25, "mu2": 0.5, "nr": nr, "two_m": 1, "turning": turning,
          "rmax": rmax, "s": s, "r": r}
    fake = SimpleNamespace(
        DeformationParams=pkg.DeformationParams,
        RadialQuantum=pkg.RadialQuantum,
        radial_sturmian=lambda q, mu: values_fn,
    )
    return TabulateWorkload(fake, Path(".")).run(op)


def _true_radial(r):
    mu = pkg.DeformationParams(0.25, 0.5)
    return pkg.radial_sturmian(pkg.RadialQuantum.from_m(3, Fraction(1, 2), mu), mu)(r)


def test_tabulate_passes_a_correct_function():
    rec = _radial_op(_true_radial)
    assert (rec.units, rec.failed, rec.unexplained, rec.work) == (1, 0, 0, 2001)


def test_tabulate_counts_non_finite_values_known_only_past_the_underflow_radius():
    far = _radial_op(lambda r: np.where(r > 38.0, np.nan, _true_radial(r)))
    assert (far.failed, far.unexplained) == (1, 0)
    near = _radial_op(lambda r: np.where(np.abs(r - 2.0) < 0.05, np.inf, _true_radial(r)))
    assert (near.failed, near.unexplained) == (1, 1)


def test_tabulate_counts_an_oracle_mismatch():
    rec = _radial_op(lambda r: 1.01 * _true_radial(r))
    assert (rec.failed, rec.unexplained) == (1, 1)


# ------------------------------------------------------------ oracle quadrature


@pytest.mark.parametrize("mu", [(-0.49, -0.45), (0.0, 0.0), (0.3, 1.2), (2.9, 2.7)])
def test_radial_norm_integrates_a_closed_form(mu):
    sigma = 1.0 + 2.0 * sum(mu)
    s, r = oracles.radial_grid(14.0, 4001)
    got = oracles.radial_norm(s, 14.0, np.exp(-0.5 * r * r), *mu)
    assert got == pytest.approx(0.5 * math.gamma(0.5 * (sigma + 1.0)), rel=1e-6)


@pytest.mark.parametrize("mu", [(-0.49, 0.0), (-0.3, 2.2), (0.5, 0.5), (3.0, -0.45)])
def test_angular_norm_integrates_the_weight(mu):
    t, phi = oracles.angular_grid(400)
    got = oracles.angular_norm(t, np.ones_like(phi), *mu)
    want = 2.0 * math.gamma(mu[0] + 0.5) * math.gamma(mu[1] + 0.5) / math.gamma(mu[0] + mu[1] + 1.0)
    assert got == pytest.approx(want, rel=1e-5)

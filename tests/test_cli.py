"""Command-line interface: parsing, output formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunkl_oscillator import basis, cli, entry, verify
from dunkl_oscillator.basis import (
    AngularQuantum,
    RadialQuantum,
    angular_wavefunction,
    enumerate_states,
    radial_sturmian,
)
from dunkl_oscillator.cli import _fmt, main
from dunkl_oscillator.coherent import CoherentParams, EvolutionParams, coherent_evolved
from dunkl_oscillator.specfun import DeformationParams


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_body(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def _csv_meta(text):
    meta = {}
    for ln in text.splitlines():
        if ln.startswith("# "):
            key, _, value = ln[2:].partition(" = ")
            meta[key] = value
    return meta


# --- spectrum ----------------------------------------------------------------


def test_spectrum_csv_frozen_level_structure(capsys):
    code, out, err = _run(capsys, ["spectrum", "--emax", "3", "--format", "csv"])
    assert code == 0 and err == ""
    header, rows = _csv_body(out)
    assert header == ["s1", "s2", "m", "nr", "k", "l2", "energy"]
    assert len(rows) == 6
    energies = [float(r[-1]) for r in rows]
    assert energies == [1.0, 2.0, 2.0, 3.0, 3.0, 3.0]
    assert _csv_meta(out)["count"] == "6"
    assert {r[0] for r in rows} <= {"+1", "-1"}


def test_spectrum_csv_has_half_integer_rows(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--emax", "2", "--format", "csv"])
    assert code == 0
    _, rows = _csv_body(out)
    ms = sorted(float(r[2]) for r in rows)
    assert ms == [0.0, 0.5, 0.5]


def test_spectrum_json_matches_library(capsys):
    code, out, _ = _run(
        capsys,
        ["spectrum", "--emax", "5", "--mu1", "0.25", "--mu2", "0.75", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    states = enumerate_states(5.0, DeformationParams(0.25, 0.75))
    assert doc["command"] == "spectrum"
    assert doc["count"] == len(states) == len(doc["states"])
    for rec, st in zip(doc["states"], states):
        assert rec["energy"] == st.energy
        assert rec["m"] == float(st.m)
        assert (rec["s1"], rec["s2"], rec["nr"]) == (st.s1, st.s2, st.nr)


def test_spectrum_empty_below_ground(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--emax", "0.5", "--format", "csv"])
    assert code == 0
    _, rows = _csv_body(out)
    assert rows == []
    assert _csv_meta(out)["count"] == "0"


def test_spectrum_out_file(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    code, out, _ = _run(capsys, ["spectrum", "--emax", "3", "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().startswith("# command = spectrum")


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--emax", "3"], ["verify", "--suite", "algebra"]],
    ids=["spectrum", "verify"],
)
def test_unwritable_out_is_an_input_error(tmp_path, capsys, argv):
    # For verify, exit 1 means failed checks; a path that cannot be written
    # must not read as that, nor print a PASS/FAIL line.
    target = tmp_path / "missing" / "report.txt"
    code, out, err = _run(capsys, argv + ["--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err
    assert not target.exists()


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--emax", "1e9"], "more than 1000000 states"),
        (["spectrum", "--emax", "20", "--format", "json"], "non-finite number inf"),
    ],
    ids=["state-cap", "non-finite-k"],
)
def test_refused_spectrum_writes_nothing(tmp_path, capsys, monkeypatch, argv, message, to_file):
    # k turns infinite from m = 3, first reached on level 6, so a refusal
    # made while writing would come after the first levels.
    finite_k = basis._k
    monkeypatch.setattr(basis, "_k", lambda m, mu: math.inf if m >= 3 else finite_k(m, mu))
    target = tmp_path / "existing.csv"
    target.write_text("old content\n")
    code, out, err = _run(capsys, argv + (["--out", str(target)] if to_file else []))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert target.read_text() == "old content\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_peak_memory_is_below_the_document_size(tmp_path, fmt):
    # The document is written level by level: about one level's rows exist at
    # once, where a document built whole takes four to five times its size.
    target = tmp_path / f"spectrum.{fmt}"
    argv = ["spectrum", "--emax", "300", "--mu1", "0.3", "--mu2", "0.2", "--format", fmt, "--out", str(target)]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < target.stat().st_size


def _spectrum_reference(emax, mu1, mu2, fmt):
    """The spectrum document built record by record with json.dumps and _fmt."""
    mu = DeformationParams(mu1, mu2)
    states = enumerate_states(emax, mu)
    if fmt == "json":
        records = [
            {"s1": st.s1, "s2": st.s2, "m": float(st.m), "nr": st.nr, "k": st.k, "l2": st.l2, "energy": st.energy}
            for st in states
        ]
        doc = {"command": "spectrum", "mu1": mu1, "mu2": mu2, "emax": emax, "count": len(states), "states": records}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [
        "# command = spectrum",
        f"# mu1 = {_fmt(mu1)}",
        f"# mu2 = {_fmt(mu2)}",
        f"# emax = {_fmt(emax)}",
        f"# count = {len(states)}",
        "s1,s2,m,nr,k,l2,energy",
    ]
    for st in states:
        fields = [f"{st.s1:+d}", f"{st.s2:+d}", _fmt(float(st.m)), str(st.nr), _fmt(st.k), _fmt(st.l2), _fmt(st.energy)]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "emax, mu1, mu2",
    [
        (0.5, 0.0, 0.0),  # below the ground state
        (-3.0, 2.5, 0.1),
        (3.0, 0.0, 0.0),  # the three states of E = 3 at mu = 0
        (9.0, 0.25, 0.75),  # half-integer sectors at every other level
        (23.5, -0.4, 1.9),
        (17.0, -0.2691523058468741, 1.7477168115182542),
        (150.0, 0.3, 0.7),  # the size the spectrum benchmark writes
    ],
)
def test_spectrum_document_equals_record_by_record_reference(capsys, emax, mu1, mu2, fmt):
    argv = ["spectrum", "--emax", repr(emax), "--mu1", repr(mu1), "--mu2", repr(mu2), "--format", fmt]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert out == _spectrum_reference(emax, mu1, mu2, fmt)


_MU = st.floats(min_value=-0.5, max_value=3.0, exclude_min=True)


@settings(max_examples=60, deadline=None)
@given(
    emax=st.floats(min_value=-2.0, max_value=40.0),
    mu1=_MU,
    mu2=_MU,
    edge=st.sampled_from(("free", "on", "below")),
)
@example(emax=40.0, mu1=0.0, mu2=0.0, edge="on")
@example(emax=25.697828526856537, mu1=0.918376695246371, mu2=-0.2205481683898327, edge="free")
def test_spectrum_document_equals_the_library_at_level_edges(emax, mu1, mu2, edge):
    # The command writes its rows from the level walk; the reference reads the
    # public enumerate_states, so a level gained or lost at the cutoff shows.
    if edge != "free":
        # a cutoff on a level energy, or the float just below it
        emax = float(max(0, math.floor(emax)) + 1) + mu1 + mu2
        if edge == "below":
            emax = math.nextafter(emax, -math.inf)
    for fmt in ("csv", "json"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["spectrum", f"--emax={emax!r}", f"--mu1={mu1!r}", f"--mu2={mu2!r}", "--format", fmt])
        assert code == 0 and err.getvalue() == ""
        assert out.getvalue() == _spectrum_reference(emax, mu1, mu2, fmt)


def test_spectrum_state_cap_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["spectrum", "--emax", "1e9"])
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "more than 1000000 states" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_spectrum_rejects_nonfinite_mu(capsys, value):
    code, out, err = _run(capsys, ["spectrum", f"--mu1={value}", "--format", "json"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "finite" in err


# --- wavefunction ------------------------------------------------------------


def test_wavefunction_radial_values_roundtrip(capsys):
    argv = [
        "wavefunction",
        "--state", "+1,-1,3/2,1",
        "--part", "radial",
        "--mu1", "0.3",
        "--mu2", "1.2",
        "--grid", "0.1:5:20",
        "--format", "csv",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    header, rows = _csv_body(out)
    assert header == ["r", "value"]
    mu = DeformationParams(0.3, 1.2)
    R = radial_sturmian(RadialQuantum.from_m(1, Fraction(3, 2), mu), mu)
    grid = np.linspace(0.1, 5.0, 20)
    for row, r in zip(rows, grid):
        assert float(row[0]) == r
        assert float(row[1]) == R(r)
    meta = _csv_meta(out)
    assert meta["m"] == "1.5" and meta["nr"] == "1"


def test_wavefunction_angular_part(capsys):
    argv = [
        "wavefunction",
        "--state=-1,+1,1/2,0",
        "--part", "angular",
        "--grid", "0.1:3:15",
        "--format", "json",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["axis"] == "phi"
    mu = DeformationParams(0.0, 0.0)
    q = AngularQuantum.build(-1, 1, Fraction(1, 2), mu)
    expected = angular_wavefunction(q, mu)(np.linspace(0.1, 3.0, 15))
    np.testing.assert_allclose(doc["values"], expected, rtol=1e-15)


def test_wavefunction_decimal_m_parses_like_fraction(capsys):
    base = ["wavefunction", "--part", "radial", "--grid", "0.5:2:4", "--format", "csv"]
    code_a, out_a, _ = _run(capsys, base + ["--state", "+1,-1,1/2,0"])
    code_b, out_b, _ = _run(capsys, base + ["--state", "+1,-1,.5,0"])
    assert code_a == code_b == 0
    assert out_a == out_b


def test_wavefunction_invalid_sector_is_reported(capsys):
    code, out, err = _run(capsys, ["wavefunction", "--state", "+1,+1,1/2,0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_wavefunction_malformed_state_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["wavefunction", "--state", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, first_bad",
    [
        # The Laguerre recurrence overflows at nr = 2000 on this grid.
        (["wavefunction", "--state=+1,+1,0,2000", "--grid", "0.1:80:4"], "r = 53.36"),
    ],
    ids=["wavefunction"],
)
def test_nonfinite_values_never_reach_the_output(capsys, argv, first_bad, fmt):
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = _run(capsys, argv + ["--format", fmt])
    assert code == 2 and out == ""
    assert err.startswith("error: non-finite value ") and first_bad in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_nonfinite_coherent_values_never_reach_the_output(capsys, monkeypatch, fmt):
    # The library's coherent values are finite on every grid tested; one NaN
    # from it must still stop the output.
    def one_nan(r, *args):
        values = coherent_evolved(r, *args)
        values[1] = np.nan
        return values

    monkeypatch.setattr(cli, "coherent_evolved", one_nan)
    code, out, err = _run(capsys, ["coherent", "--xi", "0.3,0", "--grid", "1:12:3", "--format", fmt])
    assert code == 2 and out == ""
    assert err.startswith("error: non-finite value ") and "r = 6.5" in err


def test_bad_grid_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["wavefunction", "--state", "+1,+1,0,0", "--grid", "5:1:10"])
    assert exc.value.code == 2


def test_grid_point_count_is_bounded(capsys):
    # 10**20 points could not be allocated whatever the memory; argparse refuses it first.
    with pytest.raises(SystemExit) as exc:
        main(["coherent", "--xi", "0.3", "--grid", "0:1:100000000000000000000"])
    assert exc.value.code == 2
    assert "2 <= n <= 1000000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "state",
    ["+1,+1,0,100000000000000000000", "+1,+1,0,1000001", "+1,+1,2000001/2,0", "-1,-1,1000001,0"],
    ids=["nr-huge", "nr-over", "m-over-half", "m-over"],
)
def test_state_quantum_numbers_are_bounded(capsys, state):
    # The recurrences loop nr and about m times per point; argparse refuses a
    # number past the bound before any of them starts.
    parser = entry._build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["wavefunction", f"--state={state}", "--grid", "0:1:3"])
    assert exc.value.code == 2
    assert "must not exceed 1000000" in capsys.readouterr().err
    args = parser.parse_args(["wavefunction", "--state=+1,+1,1000000,1000000"])
    assert args.state == (1, 1, Fraction(1000000), 1000000)


# --- coherent ----------------------------------------------------------------


def test_coherent_csv_matches_library(capsys):
    argv = [
        "coherent",
        "--xi", "0.3,0.4",
        "--m", "1/2",
        "--mu1", "0.5",
        "--mu2", "0.5",
        "--tau", "0,0.7",
        "--grid", "0.2:3:10",
        "--format", "csv",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    header, rows = _csv_body(out)
    assert header == ["tau", "r", "re", "im", "abs2"]
    assert len(rows) == 20
    mu = DeformationParams(0.5, 0.5)
    k = 0.5 + 0.5 * (mu.total + 1.0)
    p = CoherentParams(xi=0.3 + 0.4j, k=k)
    grid = np.linspace(0.2, 3.0, 10)
    for tau, chunk in [(0.0, rows[:10]), (0.7, rows[10:])]:
        vals = coherent_evolved(grid, p, EvolutionParams(tau), Fraction(1, 2), mu)
        for row, v in zip(chunk, vals):
            assert float(row[0]) == tau
            assert float(row[2]) == v.real
            assert float(row[3]) == v.imag
            assert float(row[4]) == abs(v) ** 2


def test_coherent_json_profiles(capsys):
    argv = ["coherent", "--xi", "0.5", "--tau", "0.3", "--grid", "0.2:2:5", "--format", "json"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 0.0 and doc["k"] == 0.5
    assert len(doc["profiles"]) == 1
    prof = doc["profiles"][0]
    assert prof["tau"] == 0.3
    assert len(prof["re"]) == len(prof["im"]) == 5


def test_coherent_m_zero_is_finite_at_origin(capsys):
    # Here 2k - mu1 - mu2 - 1 rounds to -2e-16; the r-power is the label 2m = 0.
    argv = [
        "coherent",
        "--xi", "0.3",
        "--m", "0",
        "--mu1", "-0.2691523058468741",
        "--mu2", "1.7477168115182542",
        "--grid", "0:2:5",
    ]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    _, rows = _csv_body(out)
    assert len(rows) == 5 and float(rows[0][1]) == 0.0
    assert all(math.isfinite(float(v)) for row in rows for v in row)
    assert float(rows[0][4]) > 0.0


def test_coherent_at_large_m_matches_mpmath(capsys):
    # At m = 200, N = sqrt(2 / Gamma(401)) ~ e^-1000 and 6.5^400 ~ e^750: the
    # factors must meet in one exponent, not as 0 * inf.
    code, out, err = _run(capsys, ["coherent", "--xi", "0.3,0", "--m", "200", "--grid", "1:12:3"])
    assert code == 0 and err == ""
    _, rows = _csv_body(out)
    assert len(rows) == 3
    with mpmath.workdps(40):
        xi, k = mpmath.mpf(0.3), mpmath.mpf(200.5)
        norm = mpmath.sqrt(2 * (1 - xi**2) ** (2 * k) / mpmath.gamma(2 * k)) * (1 - xi) ** (-2 * k)
        for row in rows:
            r = mpmath.mpf(row[1])
            exact = float(norm * r**400 * mpmath.exp(r**2 / 2 * (xi + 1) / (xi - 1)))
            assert abs(float(row[2]) - exact) <= 1e-12 * abs(exact) and float(row[3]) == 0.0
            assert abs(float(row[4]) - exact**2) <= 1e-12 * exact**2


@pytest.mark.parametrize("m", ["2000001", "1e400"])
def test_coherent_m_past_the_bound_exits_two(capsys, m):
    # The --state bound holds for --m too, and a huge m never reaches float(m).
    code, out, err = _run(capsys, ["coherent", "--xi", "0.3", "--m", m])
    assert code == 2 and out == ""
    assert err.startswith("error: m must not exceed 1000000, got ") and err.count("\n") == 1


def test_wavefunction_whose_norm_overflows_exits_two(capsys):
    code, out, err = _run(capsys, ["wavefunction", "--state=+1,+1,0,2", "--mu1", "1e308"])
    assert code == 2 and out == ""
    assert err == "error: log_gamma overflows a float at x = 1e+308\n"


def test_coherent_rejects_unit_displacement(capsys):
    code, out, err = _run(capsys, ["coherent", "--xi", "1,0"])
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_coherent_non_finite_tau_names_tau(capsys, tau):
    code, out, err = _run(capsys, ["coherent", "--xi", "0.5,0", "--tau", f"0.3,{tau}"])
    assert code == 2 and out == ""
    assert err == f"error: tau must be finite, got {tau}\n"


# --- verify ------------------------------------------------------------------


def test_verify_suite_passes_and_sorts(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "algebra", "--seed", "1"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    names = [rec["name"] for rec in payload]
    assert names == sorted(names)
    assert all(rec["passed"] for rec in payload)
    assert all(rec["suite"] == "algebra" for rec in payload)
    assert all(rec["error"] is None for rec in payload)


def test_verify_tol_override_forces_failure(tmp_path, capsys):
    target = tmp_path / "report.json"
    argv = [
        "verify",
        "--suite", "angular",
        "--tol", "angular_gram_identity=1e-30",
        "--out", str(target),
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 1
    assert out.startswith("FAIL: 1/")
    payload = json.loads(target.read_text())
    failed = [rec for rec in payload if not rec["passed"]]
    assert [rec["name"] for rec in failed] == ["angular_gram_identity"]
    assert failed[0]["tolerance"] == 1e-30


def test_verify_negative_seed_is_an_input_error(capsys):
    code, out, err = _run(capsys, ["verify", "--seed", "-1"])
    assert code == 2 and out == ""
    assert err == "error: seed must be a non-negative integer, got -1\n"


def test_verify_unknown_tol_name_is_reported(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "angular", "--tol", "nonsense=1"])
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_verify_nonfinite_tol_exits_two(value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "angular", "--tol", f"angular_gram_identity={value}"])
    assert exc.value.code == 2


def test_verify_ignores_thread_env(capsys, monkeypatch):
    # verify runs serially and reads no DUNKL_OSC_THREADS, so even a value
    # that is not a number changes nothing.
    argv = ["verify", "--suite", "coherent"]
    monkeypatch.delenv("DUNKL_OSC_THREADS", raising=False)
    unset = _run(capsys, list(argv))
    monkeypatch.setenv("DUNKL_OSC_THREADS", "many")
    code, out, err = _run(capsys, list(argv))
    assert code == 0 and err == ""
    assert (code, out, err) == unset


def test_verify_pass_line_with_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["verify", "--suite", "radial", "--out", str(target)])
    assert code == 0
    assert out.startswith("PASS: ")
    assert json.loads(target.read_text())


# --- one header for both formats --------------------------------------------


def _csv_header_as_json(meta):
    """CSV metadata in JSON's terms: parities as +-1, numbers as floats, xi_re/xi_im as one xi pair."""
    fields = {}
    for key, text in meta.items():
        if key in ("s1", "s2"):
            fields[key] = {"+1": 1, "-1": -1}[text]
        elif key in ("command", "part"):
            fields[key] = text
        else:
            fields[key] = float(text)
    if "xi_re" in fields:
        fields["xi"] = [fields.pop("xi_re"), fields.pop("xi_im")]
    return fields


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--emax", "5", "--mu1", "0.25", "--mu2", "0.75"],
        ["wavefunction", "--state", "+1,-1,3/2,1", "--mu1", "0.3", "--mu2", "1.2", "--grid", "0.1:5:4"],
        ["wavefunction", "--state=-1,+1,1/2,0", "--part", "angular", "--mu1", "-0.4", "--grid", "0.1:3:4"],
        ["coherent", "--xi", "0.3,-0.4", "--m", "1/2", "--mu1", "0.5", "--mu2", "0.5", "--grid", "0.2:3:4"],
    ],
    ids=["spectrum", "wavefunction-radial", "wavefunction-angular", "coherent"],
)
def test_csv_and_json_carry_the_same_header(capsys, argv):
    code_csv, csv_out, _ = _run(capsys, argv + ["--format", "csv"])
    code_json, json_out, _ = _run(capsys, argv + ["--format", "json"])
    assert code_csv == code_json == 0
    arrays = ("axis", "grid", "values", "profiles", "states")
    json_header = {key: value for key, value in json.loads(json_out).items() if key not in arrays}
    assert _csv_header_as_json(_csv_meta(csv_out)) == json_header
    for key in ("count", "nr"):
        if key in json_header:
            assert _csv_meta(csv_out)[key] == str(json_header[key])


# --- determinism and entry points -------------------------------------------


def test_outputs_are_byte_identical_across_runs(capsys):
    for argv in (
        ["spectrum", "--emax", "6", "--mu1", "0.3", "--mu2", "1.2", "--format", "json"],
        ["coherent", "--xi", "0.3,0.4", "--grid", "0.1:4:30", "--format", "csv"],
        ["verify", "--suite", "radial", "--seed", "3"],
    ):
        _, first, _ = _run(capsys, list(argv))
        _, second, _ = _run(capsys, list(argv))
        assert first == second


def _fresh_process(argv):
    """Stdout and exit code of ``python -m dunkl_oscillator`` run alone in a new process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "dunkl_oscillator", *argv], capture_output=True, text=True, timeout=120, env=env
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_reader_that_leaves_early_ends_the_command_quietly(unbuffered):
    # As in `spectrum ... | head -1`: the document is written level by level,
    # so the command meets the closed pipe part way through it.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""), "PYTHONUNBUFFERED": unbuffered}
    argv = [sys.executable, "-m", "dunkl_oscillator", "spectrum", "--emax", "300", "--format", "json"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1 and err == b""
    finally:
        proc.kill()
        proc.wait(timeout=120)


def test_parser_is_built_once_per_process():
    assert entry._build_parser() is entry._build_parser()


def test_tolerance_override_does_not_outlive_its_call(capsys):
    defaults = {check.name: check.tolerance for check in verify._REGISTRY}
    code, out, _ = _run(capsys, ["verify", "--suite", "algebra", "--tol", "casimir_scalar=1"])
    assert code == 0
    assert {rec["name"]: rec["tolerance"] for rec in json.loads(out)}["casimir_scalar"] == 1.0
    code, out, _ = _run(capsys, ["verify", "--suite", "algebra"])
    assert code == 0
    payload = json.loads(out)
    assert payload and all(rec["tolerance"] == defaults[rec["name"]] for rec in payload)


def test_calls_in_one_process_write_what_fresh_processes_write(capsys):
    argv = ["spectrum", "--emax", "40", "--mu1", "-0.49", "--mu2", "3"]
    fresh = {fmt: _fresh_process(argv + ["--format", fmt]) for fmt in ("csv", "json")}
    assert all(code == 0 and out for code, out in fresh.values())
    # A usage error leaves nothing behind in the shared parser.
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--emax", "nope", "--format", "json"])
    assert exc.value.code == 2
    capsys.readouterr()
    for fmt in ("csv", "json"):
        code, out, err = _run(capsys, argv + ["--format", fmt])
        assert (code, out) == fresh[fmt] and err == ""


@pytest.mark.parametrize(
    "required, defaults",
    [
        (["spectrum"], ["--mu1", "0", "--mu2", "0", "--emax", "10", "--format", "csv"]),
        (
            ["wavefunction", "--state", "+1,-1,1/2,1"],
            ["--mu1", "0", "--mu2", "0", "--part", "radial", "--grid", "0.05:10:200", "--format", "csv"],
        ),
        (
            ["coherent", "--xi", "0.3,0.1"],
            ["--mu1", "0", "--mu2", "0", "--m", "0", "--tau", "0", "--grid", "0.05:10:200", "--format", "csv"],
        ),
        (["verify", "--suite", "algebra"], ["--mu1", "0.5", "--mu2", "0.5", "--seed", "0"]),
    ],
)
def test_omitted_options_equal_their_written_defaults(capsys, required, defaults):
    omitted = _run(capsys, list(required))
    assert omitted[0] == 0 and omitted[1]
    assert _run(capsys, required + defaults) == omitted


def test_console_script_and_module_entry_agree():
    argv_tail = ["spectrum", "--emax", "3", "--format", "json"]
    script = subprocess.run(
        ["dunkl-osc", *argv_tail], capture_output=True, text=True, timeout=120
    )
    module = subprocess.run(
        [sys.executable, "-m", "dunkl_oscillator", *argv_tail],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert script.returncode == module.returncode == 0
    assert script.stdout == module.stdout
    assert json.loads(script.stdout)["count"] == 6

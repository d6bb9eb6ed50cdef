"""Command-line interface: parsing, output formats, exit codes, determinism."""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from dunkl_oscillator.basis import (
    AngularQuantum,
    RadialQuantum,
    angular_wavefunction,
    enumerate_states,
    radial_sturmian,
)
from dunkl_oscillator.cli import _fmt, main
from dunkl_oscillator.coherent import CoherentParams, EvolutionParams, coherent_evolved
from dunkl_oscillator.profiles import DeformationParams


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
    ],
)
def test_spectrum_document_equals_record_by_record_reference(capsys, emax, mu1, mu2, fmt):
    argv = ["spectrum", "--emax", repr(emax), "--mu1", repr(mu1), "--mu2", repr(mu2), "--format", fmt]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert out == _spectrum_reference(emax, mu1, mu2, fmt)


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
        # The closed form's prefactor underflows and r^(2k) overflows at m = 200.
        (["coherent", "--xi", "0.3,0", "--m", "200", "--grid", "1:12:3"], "r = 6.5"),
    ],
    ids=["wavefunction", "coherent"],
)
def test_nonfinite_values_never_reach_the_output(capsys, argv, first_bad, fmt):
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = _run(capsys, argv + ["--format", fmt])
    assert code == 2 and out == ""
    assert err.startswith("error: non-finite value ") and first_bad in err


def test_bad_grid_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["wavefunction", "--state", "+1,+1,0,0", "--grid", "5:1:10"])
    assert exc.value.code == 2


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

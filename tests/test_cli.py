"""Command-line interface: parsing, output formats, exit codes, determinism."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunkl_oscillator import basis, cli, entry, verify
from dunkl_oscillator import coherent as coherent_module
from dunkl_oscillator.basis import (
    AngularQuantum,
    RadialQuantum,
    enumerate_states,
)
from dunkl_oscillator.cli import _fmt, main
from dunkl_oscillator.coherent import CoherentParams, EvolutionParams, coherent_evolved
from dunkl_oscillator.profiles import angular_wavefunction, radial_sturmian
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
    # k turns infinite from m = 3 (2m = 6), first reached on level 6, so a
    # refusal made while writing would come after the first levels.
    finite_k = basis._k
    monkeypatch.setattr(basis, "_k", lambda two_m, mu: math.inf if two_m >= 6 else finite_k(two_m, mu))
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
        (1.0, 0.0, 0.0),  # top level 0: one row
        (2.0, 0.0, 0.0),  # top level 1: the first level of odd 2m
        (3.0, 0.0, 0.0),  # the three states of E = 3 at mu = 0
        (9.0, 0.25, 0.75),  # half-integer sectors at every other level
        (23.5, -0.4, 1.9),
        (17.0, -0.2691523058468741, 1.7477168115182542),
        (150.0, 0.3, 0.7),  # the size the spectrum benchmark writes
        (40.5, -0.45, -0.4),  # l2 < 0 at m = 1/2, one string shared by both of its sectors
    ],
)
def test_spectrum_document_equals_record_by_record_reference(capsys, emax, mu1, mu2, fmt):
    argv = ["spectrum", "--emax", repr(emax), "--mu1", repr(mu1), "--mu2", repr(mu2), "--format", fmt]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert out == _spectrum_reference(emax, mu1, mu2, fmt)


@pytest.mark.parametrize(
    "mu1, mu2, fmt, digest",
    [
        ("0.3", "0.7", "csv", "915cab1f5777d10dab84c689a9c5feb7cffdbeb0e7daefb2fd668a3c6e02c4c9"),
        ("0.3", "0.7", "json", "717201285abbdad75a086143dcbd911a4c0649823d6a8a9331cb425396307e71"),
        ("-0.49", "3", "csv", "a7fba27eb01905a02565b44c718f651560932e2a0494b78423e0ef04a2246764"),
        ("-0.49", "3", "json", "ff683c62660b9c25d2b31e5fca13c8ee121525efed10bab55d92f4d0282cc451"),
    ],
)
def test_spectrum_bytes_equal_pinned_digests(capsys, mu1, mu2, fmt, digest):
    # The reference above reads enumerate_states, which shares the level walk
    # with the command; these digests of the written bytes were measured with
    # a writer that formatted every row from its own label, so they catch a
    # mistake the two would share.
    code, out, err = _run(capsys, ["spectrum", "--emax", "300", "--mu1", mu1, "--mu2", mu2, "--format", fmt])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt, fmt_calls, json_number_calls", [("csv", 599, 0), ("json", 0, 447)])
def test_spectrum_formats_each_2m_once(capsys, monkeypatch, fmt, fmt_calls, json_number_calls):
    # At mu1 + mu2 = 1 the top level of emax 150 is 148: 149 values of 2m and
    # 149 levels.  CSV formats m, k and l2 per 2m, the energy per level and
    # mu1, mu2 and emax in the header; JSON formats k and l2 per 2m and the
    # energy per level, and writes m and the header with repr and json.dumps.
    calls = {"_fmt": 0, "_json_number": 0}

    def counted(name):
        helper = getattr(entry, name)

        def wrapper(value):
            calls[name] += 1
            return helper(value)

        return wrapper

    for name in calls:
        monkeypatch.setattr(entry, name, counted(name))
    code, out, err = _run(capsys, ["spectrum", "--emax", "150", "--mu1", "0.3", "--mu2", "0.7", "--format", fmt])
    assert code == 0 and err == ""
    assert out == _spectrum_reference(150.0, 0.3, 0.7, fmt)
    assert calls == {"_fmt": fmt_calls, "_json_number": json_number_calls}


_COHERENT_ARGV = ["coherent", "--xi", "0.3,0.4", "--m", "3/2", "--mu1", "0.2", "--mu2", "2.1", "--tau", "0,0.7"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["wavefunction", "--state=-1,+1,5/2,3", "--mu1", "0.4", "--mu2", "1.3"],
            "9aca46397d1b3edcee37887e32a513a0a22a723a05f62d3e4c16e74b0f88d29c",
        ),
        (
            ["wavefunction", "--state=-1,+1,5/2,3", "--part", "angular", "--grid", "0.1:6:40", "--format", "json"],
            "bad00986aa4d861c2c9402d2c4ce779345d9f2d8a13c5facf9dc1dfd10a892bb",
        ),
        (_COHERENT_ARGV, "1e7091188f726a175e998a9e7fa7062b690a79573edae2ef1c3b41d457d3a2b3"),
        (_COHERENT_ARGV + ["--format", "json"], "9c8a7022288dc102466d1d012450430f29c402894cbb8e1df340e49d03bc28d3"),
        (
            ["wavefunction", "--state=-1,-1,2,1", "--mu1", "0.3", "--mu2", "0.7", "--format", "json"],
            "4750eefc3d3ad6cbbcd2c947c6c8a5af81aa23ce9b62c7e149079f1fdc2ca440",
        ),
        (
            ["coherent", "--xi", "0.3,0.2", "--m", "0", "--mu1", "0.3", "--mu2", "0.7", "--tau", "0,1.1"],
            "21a8baad58dee12df66c19945117e747d45616ddafd124218f88275f3fc098d3",
        ),
        (
            ["wavefunction", "--state=+1,+1,0,300", "--grid", "0.1:30:60"],
            "47bdd87557f586ac64d49356df94014370227cd9d931e7704bacb170ed389fd9",
        ),
    ],
    ids=[
        "wavefunction-radial-csv",
        "wavefunction-angular-json",
        "coherent-csv",
        "coherent-json",
        "wavefunction-integer-m-json",
        "coherent-m-zero-csv",
        "wavefunction-degree-300-sweep-csv",
    ],
)
def test_label_documents_equal_pinned_digests(capsys, argv, digest):
    # Each document carries m, k, l2 or the energy of a half-integer m, which
    # the labels compute from the integer 2m; these digests were measured when
    # the labels held m as a Fraction. The last is a degree-300 Laguerre sweep,
    # measured when laguerre and laguerre_all wrote the recurrence apart.
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, m_text, rule_calls",
    [
        (["wavefunction", "--state=-1,+1,5/2,3"], "5/2", 1),
        (["wavefunction", "--state=+1,+1,0,2", "--part", "angular", "--format", "json"], "0", 1),
        (_COHERENT_ARGV[:5], "3/2", 2),
        (_COHERENT_ARGV, "3/2", 3),
        (["coherent", "--xi", "0.3", "--m", "0", "--tau", "0,1,2"], "0", 4),
    ],
    ids=["wavefunction-radial", "wavefunction-angular", "coherent-one-tau", "coherent-two-tau", "coherent-three-tau"],
)
def test_each_command_runs_the_m_rule_once(capsys, monkeypatch, argv, m_text, rule_calls):
    # The command reads m's text once and derives k and the energy from the
    # exact 2m; only coherent_evolved runs the rule again, on its own public m,
    # once per tau.
    seen = []
    rule = basis._two_m

    def counted(m):
        seen.append(m)
        return rule(m)

    for module in (basis, coherent_module):
        monkeypatch.setattr(module, "_two_m", counted)
    code, _, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert len(seen) == rule_calls and seen[0] == m_text


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


def test_wavefunction_angular_norm_overflow_exits_two(capsys):
    argv = ["wavefunction", "--state=+1,+1,0,0", "--mu1", "1100", "--mu2", "1100", "--part", "angular"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: the angular norm overflows at m = 0.0, mu = (1100.0, 1100.0)\n"


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


def test_angular_grid_may_start_below_zero(capsys):
    argv = ["wavefunction", "--state=+1,-1,3/2,1", "--part", "angular", "--mu1", "0.3", "--mu2", "1.2"]
    code, out, err = _run(capsys, argv + ["--grid=-3.1:3.1:50", "--format", "json"])
    assert code == 0 and err == ""
    mu = DeformationParams(0.3, 1.2)
    phi = np.linspace(-3.1, 3.1, 50)
    expected = angular_wavefunction(AngularQuantum.build(1, -1, Fraction(3, 2), mu), mu)(phi)
    doc = json.loads(out)
    assert doc["grid"] == phi.tolist() and doc["values"] == expected.tolist()


@pytest.mark.parametrize(
    "argv",
    [["wavefunction", "--state=+1,+1,0,0", "--part", "angular"], ["coherent", "--xi", "0.3"]],
    ids=["wavefunction", "coherent"],
)
def test_a_grid_whose_span_overflows_is_a_usage_error(capsys, argv):
    # Both ends are finite, but max - min = 2e308 is not: linspace would warn and give NaN points.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--grid=-1e308:1e308:3"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "finite max - min" in captured.err and "'-1e308:1e308:3'" in captured.err


@pytest.mark.parametrize(
    "argv, tau",
    [(["--tau", "1e308"], 1e308), (["--m", "1000000", "--tau", "1e303"], 1e303)],
    ids=["angle", "phase"],
)
def test_a_tau_whose_phase_overflows_is_refused(capsys, argv, tau):
    # The refusal names tau; it had blamed xi (|xi| = nan) or escaped as a bare ValueError.
    code, out, err = _run(capsys, ["coherent", "--xi", "0.3", *argv])
    assert code == 2 and out == ""
    assert err.startswith(f"error: the phase k 2 tau / hbar overflows at tau = {tau}, k = ")


@pytest.mark.parametrize(
    "argv",
    [["wavefunction", "--state=+1,+1,0,2"], ["coherent", "--xi", "0.3"]],
    ids=["wavefunction", "coherent"],
)
def test_a_radius_whose_square_overflows_is_refused_before_output(tmp_path, capsys, argv):
    # The grid 1e150, 5e159, 1e160 squares past float max from its second point.
    target = tmp_path / "table.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for out_args in ([], ["--out", str(target)]):
            code, out, err = _run(capsys, argv + ["--grid", "1e150:1e160:3", *out_args])
            assert code == 2 and out == ""
            assert err == (
                "error: r must not exceed 1.3407807929942596e+154, past which r^2 overflows, "
                "got 5.0000000004999996e+159\n"
            )
    assert not target.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--xi", "0.9075696646693256,0.2807441963282726", "--grid", "1e153:1.3e154:3"],
        ["--xi", "0.3,0.2", "--tau", "0.4", "--grid", "1e153:1.3407807929942596e154:3"],
    ],
    ids=["imaginary-overflow", "real-overflow"],
)
def test_a_coherent_profile_that_underflows_prints_zeros(capsys, args):
    # |Psi| underflows at these radii, where c r^2 overflowed: the first
    # exited 2 on a nan, the second raised the numpy warning as an error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["coherent", "--m", "1/2", *args])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines() if line[:1].isdigit()]
    assert len(rows) == 3 and all(row[2:] == ["0", "0", "0"] for row in rows)


@pytest.mark.parametrize(
    "argv",
    [["wavefunction", "--state=+1,+1,0,0"], ["coherent", "--xi", "0.3"]],
    ids=["wavefunction", "coherent"],
)
def test_a_radius_below_zero_is_refused_before_output(tmp_path, capsys, argv):
    # The grid parser takes any finite min < max; a radius must also be non-negative.
    target = tmp_path / "table.csv"
    for out_args in ([], ["--out", str(target)]):
        code, out, err = _run(capsys, argv + ["--grid=-1:2:5", *out_args])
        assert code == 2 and out == ""
        assert err == "error: r must be non-negative and finite, got -1.0\n"
    assert not target.exists()


@pytest.mark.parametrize(
    "state, message",
    [
        ("+1,+1,0,100000000000000000000", "nr must be an integer from 0 to 1000000, got 100000000000000000000"),
        ("+1,+1,0,1000001", "nr must be an integer from 0 to 1000000, got 1000001"),
        ("+1,+1,2000001/2,0", "m must not exceed 1000000, got 2000001/2"),
        ("-1,-1,1000001,0", "m must not exceed 1000000, got 1000001"),
    ],
    ids=["nr-huge", "nr-over", "m-over-half", "m-over"],
)
def test_state_quantum_numbers_are_bounded(capsys, monkeypatch, state, message):
    # The recurrences loop nr and about m times per point; the library's labels
    # refuse a number past the bound before any eigenfunction is built.
    built = []
    monkeypatch.setattr(cli, "radial_sturmian", lambda *args: built.append(args))
    code, out, err = _run(capsys, ["wavefunction", f"--state={state}", "--grid", "0:1:3"])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert built == []
    # The parser splits the state and reads its parities and nr; m stays text for the library's m rule.
    args = entry._build_parser().parse_args(["wavefunction", "--state=+1,+1,1000000,1000000"])
    assert args.state == (1, 1, "1000000", 1000000)


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


@pytest.mark.parametrize(
    "argv",
    [["wavefunction", "--state=+1,+1,abc,0"], ["coherent", "--xi", "0.3", "--m", "abc"]],
    ids=["wavefunction", "coherent"],
)
def test_an_m_that_is_not_a_number_is_refused_by_the_library_rule(tmp_path, capsys, argv):
    # The parser leaves m as text; the library's one m rule refuses it, with its own line.
    target = tmp_path / "table.csv"
    for out_args in ([], ["--out", str(target)]):
        code, out, err = _run(capsys, argv + out_args)
        assert (code, out) == (2, "")
        assert err == "error: cannot interpret m = 'abc' as a rational number\n"
    assert not target.exists()


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


def test_verify_tol_override_forces_failure(tmp_path, capsys, monkeypatch):
    # A check is judged by its registered tolerance alone; an entry whose
    # residual exceeds it takes the exit-1 path.
    def too_large(ctx):
        yield 1e-3

    monkeypatch.setattr(verify, "_REGISTRY", [verify._Check("too_large", "angular", 1e-9, too_large)])
    target = tmp_path / "report.json"
    code, out, err = _run(capsys, ["verify", "--suite", "angular", "--out", str(target)])
    assert code == 1 and err == ""
    assert out == "FAIL: 1/1 checks failed\n"
    assert json.loads(target.read_text()) == [
        {"name": "too_large", "suite": "angular", "residual": 1e-3, "tolerance": 1e-9, "passed": False, "error": None}
    ]


def test_verify_has_no_tolerance_option(capsys):
    # A check's tolerance is the one registered with it; a report carries it beside the residual.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--tol", "casimir_scalar=1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tol casimir_scalar=1" in captured.err


def test_verify_document_holds_each_record_as_its_dataclass_fields(capsys):
    # At mu1 + mu2 = 200 angular_gram_identity raises, so its record carries
    # the error and its infinite residual is written as null.
    code, out, err = _run(capsys, ["verify", "--suite", "angular", "--mu1", "100", "--mu2", "100"])
    assert code == 1 and err == ""
    results = verify.run_checks(suite="angular", mu=(100.0, 100.0))
    expected = [
        {**dataclasses.asdict(res), "residual": res.residual if math.isfinite(res.residual) else None}
        for res in results
    ]
    assert out == entry._json_document(expected)
    (raised,) = [rec for rec in json.loads(out) if rec["error"] is not None]
    assert raised["name"] == "angular_gram_identity" and raised["residual"] is None
    assert raised["error"].startswith("DomainError: ")


def test_verify_negative_seed_is_an_input_error(capsys):
    code, out, err = _run(capsys, ["verify", "--seed", "-1"])
    assert code == 2 and out == ""
    assert err == "error: seed must be a non-negative integer, got -1\n"


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


@pytest.mark.parametrize(
    "command, option, value",
    [
        (["spectrum", "--emax", "3"], "--mu1", "-5e-05"),
        (["spectrum", "--emax", "3"], "--mu1", "-1e-3"),
        (["coherent", "--grid", "0.1:1:5"], "--xi", "-0.8,0"),
        (["coherent", "--xi", "0.3", "--grid", "0.1:1:5"], "--tau", "-0.5,1"),
    ],
)
def test_a_negative_value_reads_the_same_as_a_separate_argument(capsys, command, option, value):
    # argparse's own pattern (-5 and -.5) would read these values as unknown options.
    joined = _run(capsys, command + [f"{option}={value}"])
    assert joined[0] == 0 and joined[1]
    assert _run(capsys, command + [option, value]) == joined


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

"""Command-line interface.

Subcommands:

* ``spectrum``     — enumerate eigenstates up to an energy cutoff.
* ``wavefunction`` — tabulate one eigenstate's radial (or angular) profile.
* ``coherent``     — tabulate a time-evolved coherent profile on a grid.
* ``verify``       — run the named self-check suites and report JSON.

Outputs are deterministic for a fixed configuration and seed: CSV carries
``# key = value`` metadata lines and 17-significant-digit values; JSON is
emitted with sorted keys.  Neither format carries a non-finite number.  Exit
codes: 0 success, 1 failed verification checks, 2 usage or domain errors (a
non-finite value in a table among them).  ``verify`` runs its checks
serially; no environment variable changes its output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .basis import (
    AngularQuantum,
    RadialQuantum,
    angular_wavefunction,
    energy,
    enumerate_states,
    k_of,
    radial_sturmian,
)
from .coherent import CoherentParams, EvolutionParams, coherent_evolved
from .errors import DomainError
from .profiles import DeformationParams
from .verify import SUITES, run_checks

__all__ = ["main"]

_DEFAULT_GRID = (0.05, 10.0, 200)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _parse_state(text: str) -> tuple[int, int, Fraction, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"state must be 's1,s2,m,nr' (e.g. '+1,-1,1/2,0'), got {text!r}"
        )
    signs = {"+1": 1, "1": 1, "+": 1, "-1": -1, "-": -1}
    try:
        s1 = signs[parts[0].strip()]
        s2 = signs[parts[1].strip()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"parities must be +1 or -1, got {text!r}") from None
    try:
        m = Fraction(parts[2].strip())
        nr = int(parts[3].strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad m or nr in state {text!r}: {exc}") from None
    return (s1, s2, m, nr)


def _parse_m(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad m value {text!r}: {exc}") from None


def _parse_xi(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"xi must be 're' or 're,im', got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad xi value {text!r}: {exc}") from None
    return complex(re, im)


def _parse_taus(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tau list {text!r}: {exc}") from None
    if not values:
        raise argparse.ArgumentTypeError("tau list must contain at least one value")
    return values


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be 'min:max:n', got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from None
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo < 0.0 or hi <= lo or n < 2:
        raise argparse.ArgumentTypeError(
            f"grid needs 0 <= min < max and n >= 2, got {text!r}"
        )
    return (lo, hi, n)


def _parse_tol(text: str) -> tuple[str, float]:
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"tolerance override must be NAME=VALUE, got {text!r}")
    try:
        value = float(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance value {text!r}: {exc}") from None
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {text!r}")
    return (name.strip(), value)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _csv_document(meta: list[tuple[str, str]], columns: list[str], rows: list[str]) -> str:
    lines = [f"# {key} = {value}" for key, value in meta]
    lines.append(",".join(columns))
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _json_document(obj) -> str:
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(f"output holds a non-finite number, which JSON cannot carry ({exc})") from None


def _json_number(value: float) -> str:
    """A float as ``json.dumps`` writes it, refusing non-finite values like ``_json_document``."""
    if not math.isfinite(value):
        raise DomainError(f"output holds the non-finite number {value}, which JSON cannot carry")
    return repr(value)


def _require_finite(axis: str, grid: np.ndarray, values: np.ndarray) -> None:
    """Refuse a table holding a NaN or infinity, naming its first such point, before any format."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"non-finite value {values[i]} at {axis} = {_fmt(grid[i])}")


def _csv_sector_fields(st) -> tuple[str, str]:
    return (f"{st.s1:+d},{st.s2:+d},{_fmt(st.m)},", f",{_fmt(st.k)},{_fmt(st.l2)},")


def _csv_level_fields(e: float) -> tuple[str, str]:
    return ("", _fmt(e))


def _json_sector_fields(st) -> tuple[str, str]:
    return (
        f',\n      "k": {_json_number(st.k)},\n      "l2": {_json_number(st.l2)},'
        f'\n      "m": {float(st.m)!r},\n      "nr": ',
        f',\n      "s1": {st.s1},\n      "s2": {st.s2}\n    }}',
    )


def _json_level_fields(e: float) -> tuple[str, str]:
    return ('    {\n      "energy": ' + _json_number(e), "")


def _spectrum_rows(states, sector_fields, level_fields) -> list[str]:
    """One row per state: level lead + sector prefix + nr + sector suffix + level trail.

    The fields of a (sector, m) — s1, s2, m, k and l2 — are formatted once per
    AngularQuantum (``enumerate_states`` shares one per (sector, m), and k is a
    function of m), and the energy once per run of equal energies.
    """
    rows = []
    sectors: dict[int, tuple[str, str]] = {}
    last_e = None
    for st in states:
        if st.energy != last_e:
            last_e = st.energy
            lead, trail = level_fields(last_e)
        fields = sectors.get(id(st.angular))
        if fields is None:
            fields = sectors[id(st.angular)] = sector_fields(st)
        rows.append(lead + fields[0] + str(st.nr) + fields[1] + trail)
    return rows


def _cmd_spectrum(args: argparse.Namespace, mu: DeformationParams) -> int:
    states = enumerate_states(args.emax, mu)
    if args.format == "json":
        # Objects as json.dumps(..., indent=2, sort_keys=True) writes them at depth 2.
        rows = _spectrum_rows(states, _json_sector_fields, _json_level_fields)
        head = _json_document(
            {
                "command": "spectrum",
                "mu1": mu.mu1,
                "mu2": mu.mu2,
                "emax": args.emax,
                "count": len(states),
            }
        )
        # "states" sorts last, so its array replaces the closing brace.
        array = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        doc = head[: -len("\n}\n")] + ',\n  "states": ' + array + "\n}\n"
    else:
        meta = [
            ("command", "spectrum"),
            ("mu1", _fmt(mu.mu1)),
            ("mu2", _fmt(mu.mu2)),
            ("emax", _fmt(args.emax)),
            ("count", str(len(states))),
        ]
        rows = _spectrum_rows(states, _csv_sector_fields, _csv_level_fields)
        doc = _csv_document(meta, ["s1", "s2", "m", "nr", "k", "l2", "energy"], rows)
    _emit(doc, args.out)
    return 0


def _cmd_wavefunction(args: argparse.Namespace, mu: DeformationParams) -> int:
    s1, s2, m, nr = args.state
    q_ang = AngularQuantum.build(s1, s2, m, mu)
    q_rad = RadialQuantum.from_m(nr, m, mu)
    E = energy(nr, m, mu)
    lo, hi, n = args.grid
    grid = np.linspace(lo, hi, n)
    if args.part == "radial":
        values = radial_sturmian(q_rad, mu)(grid)
        axis_name = "r"
    else:
        values = angular_wavefunction(q_ang, mu)(grid)
        axis_name = "phi"
    _require_finite(axis_name, grid, values)
    meta_pairs = [
        ("command", "wavefunction"),
        ("part", args.part),
        ("mu1", _fmt(mu.mu1)),
        ("mu2", _fmt(mu.mu2)),
        ("s1", f"{s1:+d}"),
        ("s2", f"{s2:+d}"),
        ("m", _fmt(float(m))),
        ("nr", str(nr)),
        ("k", _fmt(q_rad.k)),
        ("l2", _fmt(q_ang.l2)),
        ("energy", _fmt(E)),
    ]
    if args.format == "json":
        doc = _json_document(
            {
                "command": "wavefunction",
                "part": args.part,
                "mu1": mu.mu1,
                "mu2": mu.mu2,
                "s1": s1,
                "s2": s2,
                "m": float(m),
                "nr": nr,
                "k": q_rad.k,
                "l2": q_ang.l2,
                "energy": E,
                "axis": axis_name,
                "grid": [float(v) for v in grid],
                "values": [float(v) for v in values],
            }
        )
    else:
        rows = [f"{_fmt(r)},{_fmt(v)}" for r, v in zip(grid, values)]
        doc = _csv_document(meta_pairs, [axis_name, "value"], rows)
    _emit(doc, args.out)
    return 0


def _cmd_coherent(args: argparse.Namespace, mu: DeformationParams) -> int:
    m = args.m
    k = k_of(m, mu)
    p = CoherentParams(xi=args.xi, k=k)
    lo, hi, n = args.grid
    grid = np.linspace(lo, hi, n)
    meta_pairs = [
        ("command", "coherent"),
        ("mu1", _fmt(mu.mu1)),
        ("mu2", _fmt(mu.mu2)),
        ("m", _fmt(float(m))),
        ("k", _fmt(k)),
        ("xi_re", _fmt(p.xi.real)),
        ("xi_im", _fmt(p.xi.imag)),
    ]
    blocks = []
    for tau in args.tau:
        values = coherent_evolved(grid, p, EvolutionParams(tau), m, mu)
        _require_finite("r", grid, values)
        blocks.append((tau, values))
    if args.format == "json":
        doc = _json_document(
            {
                "command": "coherent",
                "mu1": mu.mu1,
                "mu2": mu.mu2,
                "m": float(m),
                "k": k,
                "xi": [p.xi.real, p.xi.imag],
                "grid": [float(v) for v in grid],
                "profiles": [
                    {
                        "tau": tau,
                        "re": [float(v.real) for v in values],
                        "im": [float(v.imag) for v in values],
                    }
                    for tau, values in blocks
                ],
            }
        )
    else:
        rows = []
        for tau, values in blocks:
            for r, v in zip(grid, values):
                rows.append(
                    f"{_fmt(tau)},{_fmt(r)},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(abs(v) ** 2)}"
                )
        doc = _csv_document(meta_pairs, ["tau", "r", "re", "im", "abs2"], rows)
    _emit(doc, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace, mu: DeformationParams) -> int:
    results = run_checks(suite=args.suite, mu=mu, seed=args.seed, tol_overrides=dict(args.tol or ()))
    payload = [
        {**dataclasses.asdict(res), "residual": res.residual if math.isfinite(res.residual) else None}
        for res in results
    ]
    doc = _json_document(payload)
    _emit(doc, args.out)
    failed = [res for res in results if not res.passed]
    if args.out is not None:
        total = len(results)
        if failed:
            sys.stdout.write(f"FAIL: {len(failed)}/{total} checks failed\n")
        else:
            sys.stdout.write(f"PASS: {total} checks\n")
    return 1 if failed else 0


def _add_common(parser: argparse.ArgumentParser, default_mu: float) -> None:
    parser.add_argument("--mu1", type=float, default=default_mu, help="deformation parameter mu1")
    parser.add_argument("--mu2", type=float, default=default_mu, help="deformation parameter mu2")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunkl-osc",
        description="Reflection-deformed isotropic oscillator: spectra, "
        "wavefunctions, coherent states, and self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="enumerate eigenstates up to an energy cutoff")
    _add_common(p_spec, 0.0)
    p_spec.add_argument("--emax", type=float, default=10.0, help="energy cutoff")
    p_spec.add_argument("--format", choices=("csv", "json"), default="csv")
    p_spec.set_defaults(handler=_cmd_spectrum)

    p_wave = sub.add_parser("wavefunction", help="tabulate one eigenstate profile")
    _add_common(p_wave, 0.0)
    p_wave.add_argument("--state", type=_parse_state, required=True, help="s1,s2,m,nr")
    p_wave.add_argument("--part", choices=("radial", "angular"), default="radial")
    p_wave.add_argument("--grid", type=_parse_grid, default=_DEFAULT_GRID, help="min:max:n")
    p_wave.add_argument("--format", choices=("csv", "json"), default="csv")
    p_wave.set_defaults(handler=_cmd_wavefunction)

    p_coh = sub.add_parser("coherent", help="tabulate a time-evolved coherent profile")
    _add_common(p_coh, 0.0)
    p_coh.add_argument("--xi", type=_parse_xi, required=True, help="re,im with |xi| < 1")
    p_coh.add_argument("--m", type=_parse_m, default=Fraction(0), help="sector quantum number")
    p_coh.add_argument("--tau", type=_parse_taus, default=(0.0,), help="comma list of times")
    p_coh.add_argument("--grid", type=_parse_grid, default=_DEFAULT_GRID, help="min:max:n")
    p_coh.add_argument("--format", choices=("csv", "json"), default="csv")
    p_coh.set_defaults(handler=_cmd_coherent)

    p_ver = sub.add_parser("verify", help="run named self-checks and report JSON")
    _add_common(p_ver, 0.5)
    p_ver.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument(
        "--tol",
        type=_parse_tol,
        action="append",
        metavar="NAME=VAL",
        help="override a named tolerance (repeatable)",
    )
    p_ver.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args, DeformationParams(args.mu1, args.mu2))
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The command-line subcommands that need numpy: ``wavefunction``, ``coherent`` and ``verify``.

``entry`` parses every command, runs ``spectrum`` and imports this module
to run one of these three.  It leaves m as text, which ``wavefunction``
and ``coherent`` run through ``basis``' one m rule once, taking k and the energy
from its exact 2m.  This module's one public name is ``entry.main``, so
``cli.main`` runs every command; importing this module loads every layer.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import basis
from .basis import AngularQuantum, DeformationParams, RadialQuantum
from .coherent import CoherentParams, EvolutionParams, coherent_evolved
from .entry import _csv_document, _fmt, _json_document, _output, main
from .errors import DomainError
from .profiles import angular_wavefunction, radial_sturmian
from .verify import run_checks

__all__ = ["main"]


def _require_finite(axis: str, grid: np.ndarray, values: np.ndarray) -> None:
    """Refuse a table holding a NaN or infinity, naming its first such point, before any format."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"non-finite value {values[i]} at {axis} = {_fmt(grid[i])}")


def _cmd_wavefunction(args: argparse.Namespace, mu: DeformationParams) -> int:
    s1, s2, m, nr = args.state
    q_ang = AngularQuantum.build(s1, s2, m, mu)  # the one m rule reads m's text here, once
    q_rad = RadialQuantum(nr=nr, k=basis._k(q_ang.two_m, mu))
    grid = np.linspace(*args.grid)
    if args.part == "radial":
        values = radial_sturmian(q_rad, mu)(grid)
        axis_name = "r"
    else:
        values = angular_wavefunction(q_ang, mu)(grid)
        axis_name = "phi"
    _require_finite(axis_name, grid, values)
    header = {
        "command": "wavefunction",
        "part": args.part,
        "mu1": mu.mu1,
        "mu2": mu.mu2,
        "s1": s1,
        "s2": s2,
        "m": float(q_ang.m),
        "nr": nr,
        "k": q_rad.k,
        "l2": q_ang.l2,
        "energy": basis._level_energy(2 * nr + q_ang.two_m, mu),
    }
    if args.format == "json":
        doc = _json_document({**header, "axis": axis_name, "grid": grid.tolist(), "values": values.tolist()})
    else:
        rows = [f"{_fmt(r)},{_fmt(v)}" for r, v in zip(grid, values)]
        doc = _csv_document(header, [axis_name, "value"], rows)
    with _output(args.out) as stream:
        stream.write(doc)
    return 0


def _cmd_coherent(args: argparse.Namespace, mu: DeformationParams) -> int:
    two_m = basis._two_m(args.m)  # the one m rule reads m's text here; coherent_evolved checks its own m
    m, k = two_m / 2, basis._k(two_m, mu)  # 2m / 2 is exact
    p = CoherentParams(xi=args.xi, k=k)
    grid = np.linspace(*args.grid)
    blocks = []
    for tau in args.tau:
        values = coherent_evolved(grid, p, EvolutionParams(tau), m, mu)
        _require_finite("r", grid, values)
        blocks.append((tau, values))
    header = {"command": "coherent", "mu1": mu.mu1, "mu2": mu.mu2, "m": float(m), "k": k}
    if args.format == "json":
        profiles = [{"tau": tau, "re": values.real.tolist(), "im": values.imag.tolist()} for tau, values in blocks]
        doc = _json_document(
            {**header, "xi": [p.xi.real, p.xi.imag], "grid": grid.tolist(), "profiles": profiles}
        )
    else:
        rows = [
            f"{_fmt(tau)},{_fmt(r)},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(abs(v) ** 2)}"
            for tau, values in blocks
            for r, v in zip(grid, values)
        ]
        doc = _csv_document({**header, "xi_re": p.xi.real, "xi_im": p.xi.imag}, ["tau", "r", "re", "im", "abs2"], rows)
    with _output(args.out) as stream:
        stream.write(doc)
    return 0


def _cmd_verify(args: argparse.Namespace, mu: DeformationParams) -> int:
    results = run_checks(suite=args.suite, mu=mu, seed=args.seed)
    payload = [
        {"name": res.name, "suite": res.suite, "residual": res.residual if math.isfinite(res.residual) else None,
         "tolerance": res.tolerance, "passed": res.passed, "error": res.error}
        for res in results
    ]
    doc = _json_document(payload)
    with _output(args.out) as stream:
        stream.write(doc)
    failed = [res for res in results if not res.passed]
    if args.out is not None:
        total = len(results)
        if failed:
            sys.stdout.write(f"FAIL: {len(failed)}/{total} checks failed\n")
        else:
            sys.stdout.write(f"PASS: {total} checks\n")
    return 1 if failed else 0

"""Command-line interface: the parser, ``main`` and ``spectrum``, none of which needs numpy.

``dunkl-osc`` and ``python -m dunkl_oscillator`` call ``main`` here, so
``--help``, ``spectrum`` and every refusal made while parsing start without
importing numpy: the mu rule and the suite names come from the numpy-free
``basis``; the parser reads a state's parities and nr, but leaves m as text
for ``basis``' one m rule.  ``main`` runs ``spectrum`` itself; for
``wavefunction``, ``coherent`` and ``verify`` it imports ``cli`` and calls its
``_cmd_<command>``.  ``cli``'s one public name is this ``main``, which is not
in the package's ``__all__``.

Subcommands:

* ``spectrum``     — enumerate eigenstates up to an energy cutoff.
* ``wavefunction`` — tabulate one eigenstate's radial (or angular) profile.
* ``coherent``     — tabulate a time-evolved coherent profile on a grid.
* ``verify``       — run the named self-check suites and report JSON.

Outputs are deterministic for a fixed configuration and seed.  Each table
command writes one header dict in both formats: CSV ``# key = value`` lines
(17-significant-digit floats, signed parities, ``xi`` as ``xi_re``/``xi_im``)
or JSON fields, with sorted keys.  Neither format carries a non-finite number.
Exit codes: 0 success, 1 failed verification checks or a reader of standard
output that left early (as ``| head`` does; no traceback is printed), 2 usage
or domain errors (among them a non-finite value in a table, a ``--grid`` past
1,000,000 points, an unwritable ``--out`` and any other failed write to
standard output).  ``verify`` runs its checks serially; no environment
variable changes its output.

``spectrum`` writes its document one level at a time, so its peak memory is
about one level's rows, not the document; its ``count`` comes from the closed
form (N + 1)(N + 2)/2 for the top level N.  It builds no label: one ``%``
call writes each 2m's m, k and l2 and each level's energy into its format's
row templates; from ``basis``' integer walk in (2m, s1, s2) order each
level is joined from one part list per parity of 2m, which grows by the new
(sector, m) as the levels rise.
Every command checks and formats all it could refuse before it opens
``--out``, so a refused command writes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
import sys
from typing import Iterator, TextIO

from . import basis
from .basis import SUITES, DeformationParams
from .errors import DomainError

__all__ = ["main"]

_DEFAULT_GRID = (0.05, 10.0, 200)
_MAX_GRID_POINTS = 1_000_000


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _parse_state(text: str) -> tuple[int, int, str, int]:
    """(s1, s2, m, nr) of 's1,s2,m,nr', with m left as text for the library's one m rule."""
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
        nr = int(parts[3].strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad nr in state {text!r}: {exc}") from None
    return (s1, s2, parts[2].strip(), nr)


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
    # max - min overflows past a span of about 1.8e308, as on -1e308:1e308, even where both ends are finite.
    if not math.isfinite(hi - lo) or hi <= lo or not 2 <= n <= _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid needs finite min < max with a finite max - min and 2 <= n <= {_MAX_GRID_POINTS}, got {text!r}"
        )
    return (lo, hi, n)


def _stdout_to_devnull() -> None:
    """Point standard output at devnull, so that the flush at exit does not fail a second time."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The stream a command writes to: standard output, or the ``--out`` file, opened for writing.

    Failing to open, write or close the file, or to write standard output
    (other than to a reader that left early), is a DomainError, so a command
    opens it only when nothing is left that it could refuse.
    """
    if out is None:
        try:
            yield sys.stdout
            sys.stdout.flush()  # a reader that left, or a full disk, shows here, inside ``main``
        except BrokenPipeError:
            raise
        except OSError as exc:
            _stdout_to_devnull()
            raise DomainError(f"cannot write standard output: {exc.strerror or exc}") from None
        return
    try:
        with open(out, "w", encoding="utf-8") as stream:
            yield stream
    except OSError as exc:
        raise DomainError(f"cannot write --out {out}: {exc.strerror or exc}") from None


def _csv_value(key: str, value) -> str:
    """A header value as CSV writes it: a parity with its sign, an int as is, a float to 17 digits."""
    if isinstance(value, str):
        return value
    if key in ("s1", "s2"):
        return f"{value:+d}"
    return str(value) if isinstance(value, int) else _fmt(value)


def _csv_head(header: dict, columns: list[str]) -> str:
    """The ``# key = value`` lines and the column line of a CSV table, without the last newline."""
    return "\n".join([*(f"# {key} = {_csv_value(key, value)}" for key, value in header.items()), ",".join(columns)])


def _csv_document(header: dict, columns: list[str], rows: list[str]) -> str:
    return "\n".join([_csv_head(header, columns), *rows]) + "\n"


def _json_document(obj) -> str:
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(f"output holds a non-finite number, which JSON cannot carry ({exc})") from None


# Per format of ``spectrum``: the ``%`` template of the head and tail of 2m = L and of the lead
# and trail of the level L, each part ended by NUL, with the order of the m, k, l2 and energy it
# takes (CSV writes them as ``_fmt`` does, JSON as ``json.dumps``); the ``%`` template of a
# sector's parity lead and trail, from s1 and s2; and the text between two rows.
_SPECTRUM_TEMPLATES = {
    "csv": ("%.17g,\0,%.17g,%.17g,\0" "\0%.17g\0", ("m", "k", "l2", "energy"), "%+d,%+d,\0", "\n"),
    "json": (
        ',\n      "k": %r,\n      "l2": %r,\n      "m": %r,\n      "nr": \0\0' '    {\n      "energy": %r\0\0',
        ("k", "l2", "m", "energy"),
        '\0,\n      "s1": %d,\n      "s2": %d\n    }',
        ",\n",
    ),
}


def _fill(template: str, values: list[float], fmt: str) -> list[str]:
    """The NUL-ended parts of ``template`` filled with ``values`` in one ``%`` call; JSON refuses a non-finite value."""
    if fmt == "json":
        bad = next(itertools.filterfalse(math.isfinite, values), None)
        if bad is not None:
            raise DomainError(f"output holds the non-finite number {bad}, which JSON cannot carry")
    return (template % tuple(values)).split("\0")[:-1]


def _cmd_spectrum(args: argparse.Namespace, mu: DeformationParams) -> int:
    """Write the spectrum one level at a time, each level from one reused part list per parity of 2m.

    A row is lead + head + nr + tail + trail.  A level gives the lead and
    trail, from its energy.  Each 2m of ``basis._sector_walk`` gives the head
    and tail of its m = 2m / 2, k and l2, which both of its sectors share;
    each sector adds its parity text, built once per command (before the
    head in CSV, after the tail in JSON).  One ``_fill`` call writes every
    head, tail, lead and trail from the format's ``_SPECTRUM_TEMPLATES``, so
    each number is formatted once, in one pass.  No label is built.
    The level L holds the (sector, m) of 2m = L % 2, ..., L in walk order,
    with nr counting down to 0 as ``nrs[L::-1]`` of "0", "0", "1", "1", ...;
    the level before it of the same parity held all but those of 2m = L.  So
    one list of glue, head, nr and tail slots per parity grows by the slots
    of 2m = L, and each level rewrites only its glue and nr slots before it
    is joined and written.  All is formatted, and a non-finite value
    refused, before the output is opened; the count comes from the closed form.
    """
    top = basis._top_level(args.emax, mu)
    header = {"command": "spectrum", "mu1": mu.mu1, "mu2": mu.mu2, "emax": args.emax, "count": basis._states_through(top)}
    template, order, parity_template, sep = _SPECTRUM_TEMPLATES[args.format]
    if args.format == "json":
        # Objects as json.dumps(..., indent=2, sort_keys=True) lays them out at
        # depth 2; "states" sorts last, so its array replaces the closing brace.
        opening = _json_document(header)[: -len("\n}\n")] + ',\n  "states": ['
        closing = ("\n  ]" if top >= 0 else "]") + "\n}\n"
    else:
        opening = _csv_head(header, ["s1", "s2", "m", "nr", "k", "l2", "energy"])
        closing = "\n"
    levels = range(top + 1)  # each level L, and each 2m = L
    by_name = {
        "m": [0.5 * two_m for two_m in levels],
        "k": [basis._k(two_m, mu) for two_m in levels],
        "l2": [basis._l2(two_m, mu) for two_m in levels],
        "energy": [basis._level_energy(level, mu) for level in levels],
    }
    values = [*itertools.chain.from_iterable(zip(*(by_name[name] for name in order)))]
    texts = _fill(template * (top + 1), values, args.format)
    heads, tails, leads, trails = texts[0::4], texts[1::4], texts[2::4], texts[3::4]
    parity = {(s1, s2): (parity_template % (s1, s2)).split("\0") for s1 in (1, -1) for s2 in (1, -1)}
    # The glue, head, nr and tail slots of each 2m's sectors; glue and nr are filled per level.
    slots = []
    for (_, sectors), head, tail in zip(basis._sector_walk(top), heads, tails):
        slots.append([part for s in sectors for part in ("", parity[s][0] + head, "", tail + parity[s][1])])
    nrs = [str(i // 2) for i in range(top + 1)]
    with _output(args.out) as stream:
        stream.write(opening)
        lists: tuple[list[str], list[str]] = ([], [])  # one part list per parity of 2m
        before = "\n"
        for level, (lead, trail) in enumerate(zip(leads, trails)):
            # Row i is glue + head + nr + tail, where the glue ends the row
            # before it; the first glue opens the level and the trail ends it.
            parts = lists[level % 2]
            parts += slots[level]
            parts[::4] = [trail + sep + lead] * (level + 1)
            parts[0] = before + lead
            parts[2::4] = nrs[level::-1]
            stream.write("".join(parts))
            stream.write(trail)
            before = sep
        stream.write(closing)
    return 0


def _add_common(parser: argparse.ArgumentParser, default_mu: float) -> None:
    parser.add_argument("--mu1", type=float, default=default_mu, help="deformation parameter mu1")
    parser.add_argument("--mu2", type=float, default=default_mu, help="deformation parameter mu2")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    It holds no state between calls: ``parse_args`` fills a fresh namespace
    each time, and every default is immutable.
    """
    parser = argparse.ArgumentParser(
        prog="dunkl-osc",
        description="Reflection-deformed isotropic oscillator: spectra, "
        "wavefunctions, coherent states, and self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="enumerate eigenstates up to an energy cutoff")
    _add_common(p_spec, 0.0)
    p_spec.add_argument("--emax", type=float, default=10.0, help="energy cutoff")

    p_wave = sub.add_parser("wavefunction", help="tabulate one eigenstate profile")
    _add_common(p_wave, 0.0)
    p_wave.add_argument("--state", type=_parse_state, required=True, help="s1,s2,m,nr")
    p_wave.add_argument("--part", choices=("radial", "angular"), default="radial")
    p_wave.add_argument("--grid", type=_parse_grid, default=_DEFAULT_GRID, help="min:max:n")

    p_coh = sub.add_parser("coherent", help="tabulate a time-evolved coherent profile")
    _add_common(p_coh, 0.0)
    p_coh.add_argument("--xi", type=_parse_xi, required=True, help="re,im with |xi| < 1")
    p_coh.add_argument("--m", default="0", help="sector quantum number")
    p_coh.add_argument("--tau", type=_parse_taus, default=(0.0,), help="comma list of times")
    p_coh.add_argument("--grid", type=_parse_grid, default=_DEFAULT_GRID, help="min:max:n")
    # Added last, so each table command's --help lists --format after its own options.
    for table in (p_spec, p_wave, p_coh):
        table.add_argument("--format", choices=("csv", "json"), default="csv")

    p_ver = sub.add_parser("verify", help="run named self-checks and report JSON")
    _add_common(p_ver, 0.5)
    p_ver.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p_ver.add_argument("--seed", type=int, default=0)
    # No option starts with a digit, so "-<digit>..." and "-.<digit>..." are values; argparse's
    # own rule (-5 and -.5 only) would read -5e-05 and -0.8,0 as unknown options.
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        mu = DeformationParams(args.mu1, args.mu2)
        if args.command == "spectrum":
            return _cmd_spectrum(args, mu)
        from . import cli  # the other commands need numpy, which this import loads

        return getattr(cli, f"_cmd_{args.command}")(args, mu)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        _stdout_to_devnull()  # the reader left early, as ``| head`` does
        return 1


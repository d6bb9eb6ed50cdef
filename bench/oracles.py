"""Oracles that judge the program's outputs without using the program's code.

* ``spectrum``: integer-only enumeration of (sector, 2m, nr), cross-checked
  against the Cartesian separation of Genest, Ismail, Vinet & Zhedanov
  ("The Dunkl oscillator in the plane I", J. Phys. A 46 (2013) 145201): the
  spectrum is a sum of two 1-D deformed oscillators, so shell N = 2 nr + 2m
  holds the N + 1 pairs (nx, ny) with nx + ny = N at energy N + 1 + mu1 + mu2.
* ``verify``: the report must be self-consistent (32 records, ``passed`` equal
  to ``residual <= tolerance``, exit code agreeing with the records).
* ``tabulate``: every value finite, and the weighted norm within 1e-3 of 1
  by this module's own product-trapezoid rule on the tabulation grid (the
  rule's own error stays below 2e-4 on the workload's grids).

Known defects of the program are listed in ``KNOWN_DEFECTS``.  A failure that
matches one still counts as failed; a failure that matches none makes the run
incorrect.
"""

from __future__ import annotations

import json
import math

import numpy as np

VERIFY_RECORDS = 32
NORM_TOL = 1e-3
ENERGY_TOL = 1e-9

# Each entry names the mechanism, the checks or block kinds it hits, and the
# region of inputs where it shows.  The regions carry a margin past the
# boundaries seen on a dense (mu1, mu2) grid so that a seed near a boundary
# does not read as a new failure.
KNOWN_DEFECTS = {
    "l2_negative_raise": (
        "DomainError 'angular eigenvalue l2 must be non-negative' from nine radial and "
        "algebra checks: their m = 1/2 samples give l2 = 4m(m+mu1+mu2) < 0 when mu1+mu2 < -1/2"
    ),
    "radial_gram_quadrature": (
        "radial_gram_identity residual above 1e-9 (up to 0.94 near mu1+mu2 = -1) when "
        "mu1+mu2 < -0.41: the graded Gauss-Legendre rule misses the r^(1+2mu1+2mu2) singularity"
    ),
    "angular_gram_quadrature": (
        "angular_gram_identity residual above 1e-9 (1.4e-5 at (-0.2, 0), 1.2e-1 at (2.36, -0.44)) "
        "when min(mu1, mu2) < 0: the angular rule misses the |cos|^(2mu1)|sin|^(2mu2) singularity"
    ),
    "coherent_series_cancellation": (
        "coherent_series_vs_closed residual above 1e-10 (2.8e-8 at (2.36, 2.70)) when "
        "mu1+mu2 > 3.18: r^(2k-mu1-mu2-1) with fixed k blows up at small r"
    ),
    "coherent_r0_rounding": (
        "coherent_evolved raises SingularityError at r = 0 for m = 0 on about 9% of (mu1, mu2): "
        "2k - mu1 - mu2 - 1 rounds to -2e-16 instead of 0, so r^(2k-mu1-mu2-1) is a negative power"
    ),
    "radial_overflow_underflow": (
        "radial_sturmian values become non-finite beyond r ~ 37.6 for nr in the hundreds and "
        "above: the Laguerre recurrence overflows before exp(-r^2/2), which underflows there"
    ),
}

_L2_RAISE_CHECKS = frozenset(
    {
        "casimir_scalar",
        "factorization_identity",
        "flat_weighted_conjugation",
        "ladder_diagonal",
        "ladder_lower",
        "ladder_raise",
        "lowest_weight_annihilation",
        "radial_eigen_residual",
        "radial_flat_picture_eigen",
    }
)
# Non-finite radial values are explained only where exp(-r^2/2) is below the
# smallest normal double (r > 37.6), less a margin for the polynomial's size.
RADIAL_UNDERFLOW_R = 36.0


# --------------------------------------------------------------------- spectrum

def spectrum_oracle(emax: float, mu1: float, mu2: float) -> dict:
    """Expected states with energy <= emax, from integer labels only.

    Returns arrays ``s1``, ``s2``, ``two_m``, ``nr`` and ``energy`` (one entry
    per state, in no particular order) and the state count.
    """
    shift = 1.0 + mu1 + mu2
    nmax = -1
    while float(nmax + 1) + shift <= emax:
        nmax += 1
    # Every (2m, nr) with 2 nr + 2m <= nmax; 2m even belongs to the (+,+)
    # sector and, from 2m = 2, to (-,-); 2m odd to (+,-) and (-,+).
    tm = np.arange(nmax + 1, dtype=np.int64)
    per_tm = (nmax - tm) // 2 + 1
    tm_pairs = np.repeat(tm, per_tm)
    nr_pairs = np.arange(tm_pairs.size, dtype=np.int64) - np.repeat(np.cumsum(per_tm) - per_tm, per_tm)
    odd = tm_pairs % 2
    second = tm_pairs >= 1 + (1 - odd)
    two_m = np.concatenate([tm_pairs, tm_pairs[second]])
    nr = np.concatenate([nr_pairs, nr_pairs[second]])
    s1 = np.concatenate([np.ones_like(odd), -np.ones_like(odd[second])])
    s2 = np.concatenate([1 - 2 * odd, 2 * odd[second] - 1])
    shells = 2 * nr + two_m
    # Cartesian labels of shell n: nx = 0 .. n with ny = n - nx, so n + 1 states.
    if not np.array_equal(np.bincount(shells, minlength=nmax + 1), np.arange(1, nmax + 2)):
        raise AssertionError("polar and Cartesian shell counts disagree")
    return {
        "s1": s1,
        "s2": s2,
        "two_m": two_m,
        "nr": nr,
        "energy": (shells + 1).astype(float) + mu1 + mu2,
        "count": int(shells.size),
    }


_CSV_COLUMNS = ("s1", "s2", "m", "nr", "k", "l2", "energy")


def parse_spectrum(text: str, fmt: str) -> tuple[int, dict]:
    """Declared count and per-state columns of a ``spectrum`` document."""
    if fmt == "json":
        doc = json.loads(text)
        declared = doc["count"]
        cols = {key: np.array([st[key] for st in doc["states"]], dtype=float) for key in _CSV_COLUMNS}
    else:
        lines = text.split("\n", 64)
        head = 0
        meta = {}
        while lines[head].startswith("# "):
            key, _, value = lines[head][2:].partition(" = ")
            meta[key] = value
            head += 1
        if lines[head] != ",".join(_CSV_COLUMNS):
            raise ValueError(f"unexpected CSV header {lines[head]!r}")
        declared = int(meta["count"])
        body = text.split("\n", head + 1)[head + 1].rstrip("\n")
        flat = np.array(body.replace("\n", ",").split(",") if body else [], dtype=float)
        if flat.size % len(_CSV_COLUMNS):
            raise ValueError("ragged CSV rows")
        table = flat.reshape(-1, len(_CSV_COLUMNS))
        cols = {key: table[:, i] for i, key in enumerate(_CSV_COLUMNS)}
    sizes = {col.size for col in cols.values()}
    if len(sizes) != 1:
        raise ValueError("columns of different lengths")
    for key in ("s1", "s2", "nr"):
        if not np.array_equal(cols[key], np.rint(cols[key])):
            raise ValueError(f"non-integer {key}")
    return declared, {
        "s1": cols["s1"].astype(np.int64),
        "s2": cols["s2"].astype(np.int64),
        "two_m": np.rint(2.0 * cols["m"]).astype(np.int64),
        "nr": cols["nr"].astype(np.int64),
        "k": cols["k"],
        "l2": cols["l2"],
        "energy": cols["energy"],
    }


def check_spectrum(text: str, fmt: str, want: dict, mu1: float, mu2: float) -> list[str]:
    """Disagreements between a ``spectrum`` document and the oracle's states ``want``."""
    declared, got = parse_spectrum(text, fmt)
    problems = []
    if declared != want["count"] or got["nr"].size != want["count"]:
        return [f"count {declared} (rows {got['nr'].size}), oracle {want['count']}"]
    keys = ("two_m", "nr", "s1", "s2")
    order_got = np.lexsort([got[k] for k in keys])
    order_want = np.lexsort([want[k] for k in keys])
    for key in keys:
        if not np.array_equal(got[key][order_got], want[key][order_want]):
            problems.append(f"state labels differ in {key}")
            return problems
    e_want = np.sort(want["energy"])
    if not np.allclose(np.sort(got["energy"]), e_want, rtol=0.0, atol=ENERGY_TOL):
        problems.append("sorted energy list differs")
    half_m = 0.5 * got["two_m"]
    shells = 2 * got["nr"] + got["two_m"]
    if not np.allclose(got["energy"], shells + 1.0 + mu1 + mu2, rtol=0.0, atol=ENERGY_TOL):
        problems.append("energy does not match its own label")
    if not np.allclose(got["k"], half_m + 0.5 * (mu1 + mu2 + 1.0), rtol=1e-12, atol=1e-12):
        problems.append("k does not match its label")
    if not np.allclose(got["l2"], 4.0 * half_m * (half_m + mu1 + mu2), rtol=1e-12, atol=1e-9):
        problems.append("l2 does not match its label")
    return problems


# ----------------------------------------------------------------------- verify


def check_verify_report(text: str, exit_code: int, summary: str) -> tuple[list[dict], list[str]]:
    """Records of a ``verify`` report and any inconsistencies in it."""
    records = json.loads(text)
    problems = []
    if len(records) != VERIFY_RECORDS:
        problems.append(f"{len(records)} records, expected {VERIFY_RECORDS}")
    names = [rec["name"] for rec in records]
    if names != sorted(set(names)):
        problems.append("record names are not unique and sorted")
    failed = 0
    for rec in records:
        residual = rec["residual"]
        ok = rec["error"] is None and residual is not None and residual <= rec["tolerance"]
        if rec["passed"] != ok:
            problems.append(f"{rec['name']}: passed={rec['passed']} but residual={residual}")
        failed += not rec["passed"]
    if exit_code != (1 if failed else 0):
        problems.append(f"exit code {exit_code} with {failed} failed records")
    expected = f"FAIL: {failed}/{len(records)} checks failed" if failed else f"PASS: {len(records)} checks"
    if summary.strip() != expected:
        problems.append(f"summary {summary.strip()!r}, expected {expected!r}")
    return records, problems


def classify_check_failure(rec: dict, mu1: float, mu2: float) -> str | None:
    """The known defect a failed verify record belongs to, or None."""
    name, error, total = rec["name"], rec["error"], mu1 + mu2
    if error is not None:
        if name in _L2_RAISE_CHECKS and total < -0.5 and "l2 must be non-negative" in error:
            return "l2_negative_raise"
        return None
    if name == "radial_gram_identity" and total < -0.3:
        return "radial_gram_quadrature"
    if name == "angular_gram_identity" and min(mu1, mu2) < 0.05:
        return "angular_gram_quadrature"
    if name == "coherent_series_vs_closed" and total > 3.0:
        return "coherent_series_cancellation"
    return None


# --------------------------------------------------------------------- tabulate


def weighted_integral(t: np.ndarray, h: np.ndarray, q: float) -> float:
    """Integral of t^q h(t) over [t[0], t[-1]], h linear between nodes, t >= 0 ascending.

    The power t^q is integrated exactly on each panel, so an integrable
    singularity at t = 0 (q > -1) is handled; the error comes from the
    linear interpolation of h alone.
    """
    a, b = t[:-1], t[1:]
    m0 = (b ** (q + 1.0) - a ** (q + 1.0)) / (q + 1.0)
    m1 = (b ** (q + 2.0) - a ** (q + 2.0)) / (q + 2.0)
    slope = (h[1:] - h[:-1]) / (b - a)
    return float(np.sum(h[:-1] * m0 + slope * (m1 - a * m0)))


def split_power(s: float) -> tuple[float, int]:
    """Write t^s as t^q * t^j with q in (-1, 1) and j a non-negative integer."""
    j = max(0, math.floor(s))
    return s - j, j


def radial_grid(rmax: float, npoints: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, r) with r = rmax * s^2 and s uniform on [0, 1]: dense near r = 0.

    A state with small k (mu1 + mu2 near -1) has a boundary layer at r = 0
    narrower than any uniform grid the size of the state would resolve.
    """
    s = np.linspace(0.0, 1.0, npoints)
    return s, rmax * s * s


def radial_norm(s: np.ndarray, rmax: float, values: np.ndarray, mu1: float, mu2: float) -> float:
    """Integral of |values|^2 r^(1+2mu1+2mu2) dr on a ``radial_grid``, taken in s."""
    sigma = 1.0 + 2.0 * (mu1 + mu2)
    q, j = split_power(2.0 * sigma + 1.0)
    h = np.abs(values) ** 2 * (2.0 * rmax ** (sigma + 1.0)) * s**j
    return weighted_integral(s, h, q)


def angular_grid(per_segment: int) -> tuple[np.ndarray, np.ndarray]:
    """(t, phi): eight segments, each from a coordinate axis to a diagonal.

    Within a segment the distance to the axis is (pi/4) t^2 with t uniform,
    so points crowd toward the axis, where the weight is singular.  phi holds
    the segments one after another, 8 * (per_segment + 1) points.
    """
    t = np.arange(per_segment + 1) / per_segment
    delta = 0.25 * math.pi * t * t
    quarter = 0.25 * math.pi
    segments = [k * quarter + (delta if k % 2 == 0 else quarter - delta) for k in range(8)]
    return t, np.concatenate(segments)


def angular_norm(t: np.ndarray, values: np.ndarray, mu1: float, mu2: float) -> float:
    """Integral of values^2 |cos|^(2mu1) |sin|^(2mu2) dphi on an ``angular_grid``.

    Each segment is integrated in t, in which the weight near its axis is
    t^(4 mu + 1) times a smooth factor.
    """
    c = 0.25 * math.pi
    delta = c * t * t
    total = 0.0
    for k, part in enumerate(values.reshape(8, t.size)):
        # Segments 0, 3, 4, 7 touch an axis where sin(phi) = 0, the others one
        # where cos(phi) = 0.
        mu_axis, mu_other = (mu2, mu1) if ((k + 1) // 2) % 2 == 0 else (mu1, mu2)
        q, j = split_power(4.0 * mu_axis + 1.0)
        smooth = (
            2.0 * c ** (2.0 * mu_axis + 1.0)
            * t**j
            * np.sinc(delta / math.pi) ** (2.0 * mu_axis)
            * np.cos(delta) ** (2.0 * mu_other)
        )
        total += weighted_integral(t, part * part * smooth, q)
    return total


def classify_raise(op: dict, error: Exception) -> str | None:
    """The known defect a raising tabulation belongs to, or None."""
    if (
        op["kind"] == "coherent"
        and op["two_m"] == 0
        and type(error).__name__ == "SingularityError"
        and "r = 0" in str(error)
        and op["r"][0] == 0.0
    ):
        return "coherent_r0_rounding"
    return None


def classify_radial_failure(r: np.ndarray, values: np.ndarray, turning_point: float) -> str | None:
    """The known defect a failed radial tabulation belongs to, or None.

    Non-finite values are explained only beyond the underflow radius; finite
    values with a wrong norm only when the state reaches past it, so that
    part of its mass sits where exp(-r^2/2) has underflowed.
    """
    bad = ~np.isfinite(values)
    reach = r[bad].min() if bad.any() else turning_point
    return "radial_overflow_underflow" if reach > RADIAL_UNDERFLOW_R else None

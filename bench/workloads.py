"""The three workloads: seeded inputs, one operation at a time, oracle checks.

Each workload is a closed loop with a single caller: the next operation is
sent only after the previous one has returned and been checked.  Inputs come
in rounds.  A round covers every stratum of each size the workload's cost
depends on once, in seeded order; within a stratum the position follows a
Kronecker (golden-ratio) sequence from a seeded offset.  Runs with different
seeds therefore see nearly the same mix of sizes, so their medians and tails
differ by little more than machine noise, while the inputs still change with
the seed.  A run measures a fixed number of whole rounds.

Only the package's public entry points are called: ``cli.main(argv)`` for
``verify`` and ``spectrum``, and names from ``__all__`` for ``tabulate``.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
from summary import OpRecord

MU_LO, MU_HI = -0.5, 3.0


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _mu_draw(rng) -> float:
    """Uniform on the documented domain (-1/2, 3]."""
    return MU_HI - (MU_HI - MU_LO) * rng.random()


class Strata:
    """Per round, n values in [0, 1), one in each of n equal strata, in seeded order."""

    def __init__(self, rng, n: int):
        self.rng = rng
        self.n = n
        self.offset = rng.random(n)
        self.rounds = 0

    def draw(self) -> np.ndarray:
        within = (self.offset + self.rounds * GOLDEN) % 1.0
        self.rounds += 1
        order = self.rng.permutation(self.n)
        return (order + within[order]) / self.n


class LatinMu:
    """Per round, n (mu1, mu2) pairs with each coordinate stratified over (-1/2, 3]."""

    def __init__(self, rng, n: int):
        self.a = Strata(rng, n)
        self.b = Strata(rng, n)

    def draw(self) -> list[tuple[float, float]]:
        span = MU_HI - MU_LO
        return [(float(MU_HI - span * x), float(MU_HI - span * y)) for x, y in zip(self.a.draw(), self.b.draw())]


class Workload:
    name = ""
    work_unit = ""
    fail_unit = ""
    round_size = 8
    # Nominal seconds one round takes on a 2-vCPU x86 VM; fixes the number of
    # rounds in a run of a given length.
    round_seconds = 1.0
    trace_ops = 8

    def __init__(self, package, workdir: Path):
        self.pkg = package
        self.workdir = workdir

    def ops(self, rng):
        """Endless stream of operation inputs, ``round_size`` to a round."""
        raise NotImplementedError

    def ops_for(self, seconds: float) -> int:
        """Operations in a run of about ``seconds``: whole rounds, at least one."""
        return self.round_size * max(1, round(seconds / self.round_seconds))

    def warmup_op(self, rng):
        """The operation run once before measuring, so that lazy set-up is done."""
        return next(self.ops(rng))

    def run(self, op) -> OpRecord:
        raise NotImplementedError

    def _cli(self, argv: list[str], path: Path | None = None) -> tuple[int | str, str, float]:
        """Run the CLI in-process, writing to ``path`` if given; (exit code or the exception it raised, stdout, seconds)."""
        if path is not None:
            path.unlink(missing_ok=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.pkg.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                code = f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        return code, out.getvalue(), latency


class VerifyWorkload(Workload):
    """``verify --suite all`` at seeded (mu1, mu2) and check seed, library defaults."""

    name = "verify"
    work_unit = "checks"
    fail_unit = "checks"
    round_seconds = 4.5

    def ops(self, rng):
        mus = LatinMu(rng, self.round_size)
        while True:
            for mu1, mu2 in mus.draw():
                yield {"mu1": mu1, "mu2": mu2, "seed": int(rng.integers(0, 2**31 - 1))}

    def run(self, op) -> OpRecord:
        path = self.workdir / "verify.json"
        argv = ["verify", "--suite", "all", "--mu1", repr(op["mu1"]), "--mu2", repr(op["mu2"]),
                "--seed", str(op["seed"]), "--out", str(path)]
        code, summary, latency = self._cli(argv, path)
        if code not in (0, 1):
            units = oracles.VERIFY_RECORDS
            return OpRecord(latency, units=units, failed=units, work=0, unexplained=units, notes=[f"exit {code}"])
        records, problems = oracles.check_verify_report(path.read_text(encoding="utf-8"), code, summary)
        failed = [rec for rec in records if not rec["passed"]]
        classes = [oracles.classify_check_failure(rec, op["mu1"], op["mu2"]) for rec in failed]
        unknown = [rec["name"] for rec, cls in zip(failed, classes) if cls is None]
        units = max(len(records), oracles.VERIFY_RECORDS)
        return OpRecord(
            known=Counter(cls for cls in classes if cls is not None),
            latency_s=latency,
            units=units,
            failed=len(failed) + (units - len(records)),
            work=len(records),
            unexplained=len(unknown) + len(problems),
            bytes_out=path.stat().st_size,
            notes=problems + [f"unexplained failure: {name} at mu=({op['mu1']}, {op['mu2']})" for name in unknown],
        )


class SpectrumWorkload(Workload):
    """``spectrum --emax E`` with E log-uniform in [100, 200], CSV and JSON alternating.

    Cost grows as E squared, so this band keeps every command within a factor
    of four of the others: over E in [50, 300] (a factor of 36) the median
    and tail fell on a handful of commands each, and over ten runs op_tail_s
    spread 0.18 of its median against 0.05 on ``verify``.  The warm-up
    command is E = 300 as JSON, so peak_rss_mb is the memory of the largest
    spectrum whatever the draws are.

    The document goes to standard output, captured in memory, and not to a
    file with ``--out``: it is megabytes per command, and writing that into
    the checkout would time the file system under it along with the program.
    """

    name = "spectrum"
    work_unit = "states enumerated and written"
    fail_unit = "commands"
    round_seconds = 5.0
    EMIN, EMAX = 100.0, 200.0
    EPEAK = 300.0

    def ops(self, rng):
        levels, mus = Strata(rng, self.round_size), LatinMu(rng, self.round_size)
        rounds = 0
        while True:
            for u, (mu1, mu2) in zip(levels.draw(), mus.draw()):
                # Each size stratum alternates format from round to round, so
                # two rounds write every size as both CSV and JSON.
                fmt = ("csv", "json")[(int(u * self.round_size) + rounds) % 2]
                yield {"emax": float(self.EMIN * (self.EMAX / self.EMIN) ** u), "mu1": mu1, "mu2": mu2, "format": fmt}
            rounds += 1

    def warmup_op(self, rng):
        return {"emax": self.EPEAK, "mu1": _mu_draw(rng), "mu2": _mu_draw(rng), "format": "json"}

    def run(self, op) -> OpRecord:
        argv = ["spectrum", "--emax", repr(op["emax"]), "--mu1", repr(op["mu1"]), "--mu2", repr(op["mu2"]),
                "--format", op["format"]]
        code, text, latency = self._cli(argv)
        want = oracles.spectrum_oracle(op["emax"], op["mu1"], op["mu2"])
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            problems = oracles.check_spectrum(text, op["format"], want, op["mu1"], op["mu2"])
        return OpRecord(
            latency_s=latency,
            units=1,
            failed=int(bool(problems)),
            work=0 if problems else want["count"],
            unexplained=int(bool(problems)),
            bytes_out=len(text.encode("utf-8")) if code == 0 else 0,
            notes=[f"emax={op['emax']} mu=({op['mu1']}, {op['mu2']}): {p}" for p in problems],
        )


class TabulateWorkload(Workload):
    """Library tabulation of radial eigenfunctions, angular eigenfunctions and coherent profiles.

    A round holds four radial blocks (nr log-uniform in 0..2000 on grids past
    the turning point sqrt(2E)), two angular blocks (degree log-uniform in
    0..2000) and two coherent blocks (|xi| up to 0.99, four times each).
    """

    name = "tabulate"
    work_unit = "function values"
    fail_unit = "tabulated functions"
    round_seconds = 0.13
    trace_ops = 96
    NR_MAX = 2000
    DEGREE_MAX = 2000
    XI_MAX = 0.99
    TAUS = 4
    # Grid points per local wavelength (radial: at the largest momentum sqrt(2E)).
    RADIAL_PPW = 8
    ANGULAR_PPW = 10

    def ops(self, rng):
        strata = {"radial": Strata(rng, 4), "angular": Strata(rng, 2), "coherent": Strata(rng, 2)}
        while True:
            blocks = [(kind, u) for kind, s in strata.items() for u in s.draw()]
            for i in rng.permutation(len(blocks)):
                kind, u = blocks[i]
                yield getattr(self, f"_draw_{kind}")(rng, u)

    def _draw_radial(self, rng, u):
        mu1, mu2 = _mu_draw(rng), _mu_draw(rng)
        nr = int((self.NR_MAX + 1) ** u) - 1
        two_m = int(rng.integers(0, 41))
        turning = math.sqrt(2.0 * (2 * nr + two_m + mu1 + mu2 + 1.0))
        rmax = turning * (1.05 + 0.25 * rng.random()) + 6.0
        # r = rmax s^2 halves the resolution at s = 1 relative to a uniform grid.
        wavelengths = rmax * turning / (2.0 * math.pi)
        npoints = int(max(300.0, 2 * self.RADIAL_PPW * wavelengths))
        s, r = oracles.radial_grid(rmax, npoints)
        return {"kind": "radial", "mu1": mu1, "mu2": mu2, "nr": nr, "two_m": two_m,
                "turning": turning, "rmax": rmax, "s": s, "r": r}

    def _draw_angular(self, rng, u):
        mu1, mu2 = _mu_draw(rng), _mu_draw(rng)
        degree = int((self.DEGREE_MAX + 1) ** u) - 1
        e1, e2 = (int(v) for v in rng.integers(0, 2, 2))
        # A degree-j function makes j/2 oscillations per quarter turn, j/4 per segment.
        per_segment = int(max(128.0, self.ANGULAR_PPW * (degree + 1) / 4.0))
        t, phi = oracles.angular_grid(per_segment)
        return {"kind": "angular", "mu1": mu1, "mu2": mu2, "degree": degree, "e1": e1, "e2": e2,
                "t": t, "phi": phi}

    def _draw_coherent(self, rng, u):
        mu1, mu2 = _mu_draw(rng), _mu_draw(rng)
        two_m = int(rng.integers(0, 21))
        k = 0.5 * two_m + 0.5 * (mu1 + mu2 + 1.0)
        rho = self.XI_MAX * u
        xi = complex(rho * np.exp(2j * math.pi * rng.random()))
        taus = [float(v) for v in math.pi * rng.random(self.TAUS)]
        # |Psi|^2 r^(1+2mu) ~ r^(4k-1) exp(-beta r^2); beta is smallest, (1-|xi|)/(1+|xi|),
        # when the evolving label passes through -|xi|.
        beta_min = (1.0 - rho) / (1.0 + rho)
        rmax = math.sqrt((4.0 * k + 80.0) / beta_min)
        npoints = int(1000 * 20.0 ** u)
        s, r = oracles.radial_grid(rmax, npoints)
        return {"kind": "coherent", "mu1": mu1, "mu2": mu2, "two_m": two_m, "k": k, "xi": xi,
                "taus": taus, "rmax": rmax, "s": s, "r": r}

    def run(self, op) -> OpRecord:
        pkg = self.pkg
        kind = op["kind"]
        error = None
        tables = []
        start = time.perf_counter()
        try:
            mu = pkg.DeformationParams(op["mu1"], op["mu2"])
            if kind == "radial":
                q = pkg.RadialQuantum.from_m(op["nr"], Fraction(op["two_m"], 2), mu)
                tables = [pkg.radial_sturmian(q, mu)(op["r"])]
            elif kind == "angular":
                e1, e2, degree = op["e1"], op["e2"], op["degree"]
                q = pkg.AngularQuantum.build(1 - 2 * e1, 1 - 2 * e2, Fraction(2 * degree + e1 + e2, 2), mu)
                tables = [pkg.angular_wavefunction(q, mu)(op["phi"])]
            else:
                p = pkg.CoherentParams(xi=op["xi"], k=op["k"])
                m = Fraction(op["two_m"], 2)
                tables = [pkg.coherent_evolved(op["r"], p, pkg.EvolutionParams(tau), m, mu) for tau in op["taus"]]
        except Exception as exc:  # a raising call is a failed operation, not a crashed benchmark
            error = exc
        latency = time.perf_counter() - start
        units = len(op["taus"]) if kind == "coherent" else 1
        if error is not None:
            known = oracles.classify_raise(op, error)
            note = [] if known else [f"{kind} {_describe(op)}: raised {type(error).__name__}: {error}"]
            return OpRecord(latency, units=units, failed=units, work=0, unexplained=0 if known else units,
                            notes=note, known=Counter({known: units} if known else {}))
        failed = unexplained = 0
        notes = []
        known_counts = Counter()
        for values in tables:
            problem = self._check(op, values)
            if problem is None:
                continue
            failed += 1
            known = (
                oracles.classify_radial_failure(op["r"], values, op["turning"]) if kind == "radial" else None
            )
            if known is None:
                unexplained += 1
                notes.append(f"{kind} {_describe(op)}: {problem}")
            else:
                known_counts[known] += 1
        return OpRecord(
            known=known_counts,
            latency_s=latency,
            units=units,
            failed=failed,
            work=sum(int(np.size(v)) for v in tables),
            unexplained=unexplained,
            notes=notes,
        )

    @staticmethod
    def _check(op, values) -> str | None:
        finite = np.isfinite(values)
        if not finite.all():
            return f"{int(np.size(values) - np.count_nonzero(finite))} non-finite values"
        if op["kind"] == "angular":
            norm = oracles.angular_norm(op["t"], values, op["mu1"], op["mu2"])
        else:
            norm = oracles.radial_norm(op["s"], op["rmax"], values, op["mu1"], op["mu2"])
        if not abs(norm - 1.0) <= oracles.NORM_TOL:
            return f"weighted norm {norm!r}"
        return None


def _describe(op) -> str:
    keys = ("mu1", "mu2", "nr", "degree", "e1", "e2", "two_m", "xi", "rmax")
    return " ".join(f"{k}={op[k]!r}" for k in keys if k in op) + f" points={op.get('r', op.get('phi')).size}"


WORKLOADS = {cls.name: cls for cls in (VerifyWorkload, SpectrumWorkload, TabulateWorkload)}

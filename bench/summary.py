"""Reductions from per-operation records and spans to the reported metrics."""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field

from spans import POLY_FUNCTIONS, Span, self_times

TAIL_BEYOND = 10
NTERMS_CAP = 20000
END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclass
class OpRecord:
    """What one operation did, as seen by the benchmark.

    ``units`` are the failure units of the workload (checks, commands or
    tabulated functions); ``known`` counts failed units by the known defect
    they match; ``unexplained`` counts failed units that match none, plus
    any broken report.
    """

    latency_s: float
    units: int
    failed: int
    work: int
    unexplained: int = 0
    bytes_out: int = 0
    notes: list = field(default_factory=list)
    known: Counter = field(default_factory=Counter)


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With n samples sorted
    ascending that is the (n-10)-th smallest, which has exactly ten samples
    after it.  With ten or fewer samples no percentile has ten beyond it; the
    largest sample is returned, as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n


def failed_share(records: list[OpRecord]) -> tuple[int, int, float]:
    """(attempted units, failed units, failed / attempted)."""
    attempted = sum(r.units for r in records)
    failed = sum(r.failed for r in records)
    return attempted, failed, (failed / attempted if attempted else 0.0)


def end_to_end(records: list[OpRecord], setup_samples: list[float], peak_rss_mb: float) -> dict:
    latencies = [r.latency_s for r in records]
    tail, pct, n = tail_percentile(latencies)
    busy = sum(latencies)
    return {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "work_per_s": sum(r.work for r in records) / busy,
        "peak_rss_mb": peak_rss_mb,
        "_tail_percentile": pct,
        "_samples": n,
    }


class LayerTotals:
    """Per-layer counts and self times summed over traced operations."""

    def __init__(self):
        self.self_ns = {}
        self.calls = {}
        self.c = {
            "poly_deg_points": 0,
            "poly_ns": 0,
            "inner_products": 0,
            "quad_nodes": 0,
            "nonfinite_values": 0,
            "evals": 0,
            "term_points": 0,
            "derivative_calls": 0,
            "states_enumerated": 0,
            "enumerate_ns": 0,
            "profiles_built": 0,
            "series_term_points": 0,
            "nterms_cap_hits": 0,
            "checks_run": 0,
            "checks_failed": 0,
            "checks_raised": 0,
            "threads_seen": 0,
            "bytes_out": 0,
        }

    def add(self, spans: list[Span]) -> None:
        selfs = self_times(spans)
        by_id = {sp.sid: sp for sp in spans}
        pool_threads: dict[int, set] = {}
        c = self.c
        for sp in spans:
            self.self_ns[sp.layer] = self.self_ns.get(sp.layer, 0) + selfs[sp.sid]
            self.calls[sp.layer] = self.calls.get(sp.layer, 0) + 1
            counts = sp.counts or {}
            if sp.name in POLY_FUNCTIONS:
                c["poly_deg_points"] += counts["deg_points"]
                c["poly_ns"] += sp.end - sp.start
                c["nonfinite_values"] += counts["nonfinite"]
                parent = by_id.get(sp.parent)
                if sp.name == "laguerre_all" and parent is not None and parent.layer == "coherent":
                    c["series_term_points"] += counts["row_points"]
            elif "quad_nodes" in counts:
                c["inner_products"] += 1
                c["quad_nodes"] += counts["quad_nodes"]
            elif sp.name.endswith("._evaluate"):
                c["evals"] += 1
                c["term_points"] += counts["term_points"]
            elif sp.name in ("derivative_of", "angular_derivative_of"):
                c["derivative_calls"] += 1
            elif sp.name == "enumerate_states":
                c["states_enumerated"] += counts["states"]
                c["enumerate_ns"] += sp.end - sp.start
            elif sp.name in ("radial_sturmian", "angular_wavefunction"):
                c["profiles_built"] += 1
            elif sp.name == "auto_nterms":
                c["nterms_cap_hits"] += int(counts["nterms"] >= NTERMS_CAP)
            elif sp.name == "run_checks":
                c["checks_run"] += counts["checks_run"]
                c["checks_failed"] += counts["checks_failed"]
                c["checks_raised"] += counts["checks_raised"]
            parent = by_id.get(sp.parent)
            if parent is not None and parent.name == "run_checks":
                pool_threads.setdefault(parent.sid, set()).add(sp.thread)
        for threads in pool_threads.values():
            c["threads_seen"] = max(c["threads_seen"], len(threads))

    def metrics(self, fp_events: dict, overhead_share: float) -> dict:
        c = self.c
        s = {layer: self.self_ns.get(layer, 0) * 1e-9 for layer in
             ("specfun", "profiles", "dunkl_ops", "basis", "su11", "coherent", "verify", "cli")}
        calls = self.calls
        return {
            "specfun.self_s": (s["specfun"], "s"),
            "specfun.calls": (calls.get("specfun", 0), "count"),
            "specfun.poly_deg_points": (c["poly_deg_points"], "count"),
            "specfun.ns_per_deg_point": (_ratio(c["poly_ns"], c["poly_deg_points"]), "ns"),
            "specfun.inner_products": (c["inner_products"], "count"),
            "specfun.quad_nodes": (c["quad_nodes"], "count"),
            "specfun.nonfinite_values": (c["nonfinite_values"], "count"),
            "profiles.self_s": (s["profiles"], "s"),
            "profiles.evals": (c["evals"], "count"),
            "profiles.term_points": (c["term_points"], "count"),
            "profiles.derivative_calls": (c["derivative_calls"], "count"),
            "dunkl_ops.self_s": (s["dunkl_ops"], "s"),
            "dunkl_ops.calls": (calls.get("dunkl_ops", 0), "count"),
            "su11.self_s": (s["su11"], "s"),
            "su11.calls": (calls.get("su11", 0), "count"),
            "basis.self_s": (s["basis"], "s"),
            "basis.states_enumerated": (c["states_enumerated"], "count"),
            "basis.us_per_state": (_ratio(c["enumerate_ns"], c["states_enumerated"]) * 1e-3, "us"),
            "basis.profiles_built": (c["profiles_built"], "count"),
            "coherent.self_s": (s["coherent"], "s"),
            "coherent.calls": (calls.get("coherent", 0), "count"),
            "coherent.series_term_points": (c["series_term_points"], "count"),
            "coherent.nterms_cap_hits": (c["nterms_cap_hits"], "count"),
            "verify.self_s": (s["verify"], "s"),
            "verify.checks_run": (c["checks_run"], "count"),
            "verify.checks_failed": (c["checks_failed"], "count"),
            "verify.checks_raised": (c["checks_raised"], "count"),
            "verify.threads_seen": (c["threads_seen"], "count"),
            "cli.self_s": (s["cli"], "s"),
            "cli.bytes_out": (c["bytes_out"], "B"),
            "cli.ns_per_byte": (_ratio(self.self_ns.get("cli", 0), c["bytes_out"]), "ns/B"),
            "fp.overflow": (fp_events["overflow"], "count"),
            "fp.invalid": (fp_events["invalid"], "count"),
            "fp.divide": (fp_events["divide"], "count"),
            "trace.overhead_share": (overhead_share, "ratio"),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

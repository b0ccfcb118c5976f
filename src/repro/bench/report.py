"""One-shot machine-readable report of every reproduced experiment.

``collect()`` runs all Frontier-scale reproductions and returns one
JSON-serializable dict: per experiment the modeled values, the paper's
values, and the shape-check verdicts. ``examples/frontier_campaign.py``
prints the human version; this is the version a CI job archives.
"""

from __future__ import annotations

from repro._version import __version__
from repro.bench import calibration as cal
from repro.bench import fig6, fig7, fig8, listings, table1, table2, table3
from repro.util.units import GB


def collect(*, seed: int = 2023) -> dict:
    """Run every modeled experiment; returns the full report dict."""
    report: dict = {
        "repro_version": __version__,
        "seed": seed,
        "experiments": {},
    }
    experiments = report["experiments"]

    machine = table1.run()
    experiments["table1"] = {
        "checks": table1.shape_checks(machine),
        "nodes": machine.nodes,
        "total_gcds": machine.total_gcds,
    }

    rows = table2.run()
    experiments["table2"] = {
        "checks": table2.shape_checks(rows),
        "rows": {
            r.key: {
                "effective_gb_s": round(r.effective_gb_s, 1),
                "total_gb_s": round(r.total_gb_s, 1),
                "paper_effective": r.paper_effective,
                "paper_total": r.paper_total,
            }
            for r in rows
        },
    }

    columns = table3.run()
    experiments["table3"] = {
        "checks": table3.shape_checks(columns),
        "columns": {
            c.key: {
                "fetch_gb": round(c.fetch_gb, 2),
                "write_gb": round(c.write_gb, 2),
                "duration_ms": round(c.duration_ms, 2),
                "paper_duration_ms": c.paper["avg_duration_ms"],
            }
            for c in columns
        },
    }

    points6 = fig6.run_frontier(seed=seed)
    experiments["fig6"] = {
        "checks": fig6.shape_checks(points6),
        "points": [
            {
                "nranks": p.nranks,
                "mean_s": round(p.mean_seconds, 3),
                "variability": round(p.variability, 4),
            }
            for p in points6
        ],
        "paper_bands": {
            str(k): v for k, v in cal.PAPER_FIG6_VARIABILITY.items()
        },
    }

    result7 = fig7.run(seed=seed)
    experiments["fig7"] = {
        "checks": fig7.shape_checks(result7),
        "jit_fraction": round(result7.jit_fraction, 4),
        "jit_cost_factor": round(result7.jit_cost_factor, 2),
        "paper": cal.PAPER_FIG7,
    }

    points8 = fig8.run_frontier(seed=seed)
    experiments["fig8"] = {
        "checks": fig8.shape_checks(points8),
        "points": [
            {
                "nranks": p.nranks,
                "write_s": round(p.write_seconds, 1),
                "bandwidth_gb_s": round(p.write_bandwidth / GB, 1),
            }
            for p in points8
        ],
        "paper": cal.PAPER_FIG8,
    }

    listing4 = listings.run_listing4()
    experiments["listing4"] = {
        "checks": listings.listing4_shape_checks(listing4),
        "unique_loads": len(listing4.trace.unique_loads),
        "stores": len(listing4.trace.unique_stores),
    }

    all_checks = [
        ok
        for experiment in experiments.values()
        for ok in experiment["checks"].values()
    ]
    report["summary"] = {
        "checks_total": len(all_checks),
        "checks_passed": sum(all_checks),
        "all_passed": all(all_checks),
    }
    return report

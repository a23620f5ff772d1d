"""Figure-series assembly and plain-text rendering.

The original paper ships Jupyter notebooks that turn per-evaluation CSV files
into Figures 3, 4 and 5.  This module is the equivalent for the reproduction:
it turns :class:`~repro.analysis.campaign.CampaignResult` objects into the
exact series each figure plots and renders them as plain-text tables (the
benchmark harness prints these, and they are easy to diff against
EXPERIMENTS.md).

The campaign mappings can come from live runs, CSV directories
(:func:`~repro.analysis.csvio.load_campaign`) or — the cold-start fast path —
a :class:`~repro.analysis.store.CampaignStore` over journaled campaigns
(:func:`fig3_table_from_store`), in which case every series is computed
straight off memory-mapped columns.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.analysis.campaign import AggregatedMetrics, CampaignResult

__all__ = [
    "format_table",
    "fig3_series",
    "fig3_table",
    "fig3_table_from_store",
    "fig4_rows",
    "fig4_table",
    "fig5_rows",
    "fig5_table",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a list of rows as a fixed-width text table."""
    str_rows = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in str_rows)) if str_rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, AggregatedMetrics):
        return f"{value.mean:.1f} [{value.min:.1f}, {value.max:.1f}]"
    if isinstance(value, float):
        return "nan" if not np.isfinite(value) else f"{value:.2f}"
    return str(value)


# --------------------------------------------------------------------- Fig. 3
def fig3_series(
    chain: Mapping[str, Mapping[str, CampaignResult]],
    num_points: int = 60,
) -> Dict[str, Dict[str, Dict[str, np.ndarray]]]:
    """Incumbent-trajectory series for every setup (Fig. 3 a-e).

    Returns ``setup → {"no_tl"/"tl" → {"time", "mean", "min", "max"}}``.
    """
    series: Dict[str, Dict[str, Dict[str, np.ndarray]]] = {}
    for setup, entry in chain.items():
        series[setup] = {
            variant: campaign.trajectory(num_points=num_points)
            for variant, campaign in entry.items()
        }
    return series


def fig3_table(
    chain: Mapping[str, Mapping[str, CampaignResult]],
    sample_times: Sequence[float] = (300.0, 900.0, 1800.0, 3600.0),
) -> str:
    """Text table of the best-known run time at a few search times (Fig. 3).

    Each repetition's incumbent is resolved at every sample time with one
    vectorised :meth:`~repro.core.history.SearchHistory.incumbent_at` call
    (times clipped to the campaign budget) instead of one
    ``best_runtime_at`` scan per (repetition, time) pair.
    """
    headers = ["setup", "variant"] + [f"best@{int(t)}s" for t in sample_times]
    rows: List[List[object]] = []
    for setup, entry in chain.items():
        for variant, campaign in entry.items():
            per_rep = campaign.incumbent_at(sample_times)
            row: List[object] = [setup, variant]
            row.extend(
                AggregatedMetrics.from_values(per_rep[:, j])
                for j in range(len(sample_times))
            )
            rows.append(row)
    return format_table(headers, rows)


def fig3_table_from_store(
    store,
    sample_times: Sequence[float] = (300.0, 900.0, 1800.0, 3600.0),
) -> str:
    """The Fig. 3 table over a whole :class:`~repro.analysis.store.CampaignStore`.

    Groups the stored campaigns by their journal meta's ``setup``/``label``
    fields and renders :func:`fig3_table` — all incumbent resolution happens
    on the journals' memory-mapped metadata columns, so this is the
    cold-start analysis entry point over thousands of stored campaigns.
    """
    return fig3_table(store.grouped(), sample_times=sample_times)


# --------------------------------------------------------------------- Fig. 4
def fig4_rows(
    campaigns: Mapping[str, Mapping[str, CampaignResult]],
    random_label: str = "RAND",
) -> List[Dict[str, object]]:
    """Rows of the Fig. 4 bar charts.

    ``campaigns`` maps ``setup → {method_label → CampaignResult}``.  Each
    returned row carries the five per-method metrics for one (setup, method).
    """
    rows: List[Dict[str, object]] = []
    for setup, methods in campaigns.items():
        random_campaign = methods.get(random_label)
        for label, campaign in methods.items():
            row: Dict[str, object] = {
                "setup": setup,
                "method": label,
                "best": campaign.best(),
                "mean_best": campaign.mean_best(),
                "evaluations": campaign.evaluations(),
                "utilization": campaign.utilization(),
            }
            if random_campaign is not None and label != random_label:
                row["speedup"] = campaign.speedup_over(random_campaign)
            else:
                row["speedup"] = AggregatedMetrics(float("nan"), float("nan"), float("nan"))
            rows.append(row)
    return rows


def fig4_table(campaigns: Mapping[str, Mapping[str, CampaignResult]]) -> str:
    """Text rendering of the Fig. 4 metrics."""
    rows = fig4_rows(campaigns)
    headers = ["setup", "method", "best (s)", "mean best (s)", "#evals", "utilization", "speedup"]
    table_rows = [
        [
            r["setup"],
            r["method"],
            r["best"],
            r["mean_best"],
            r["evaluations"],
            r["utilization"],
            r["speedup"],
        ]
        for r in rows
    ]
    return format_table(headers, table_rows)


# --------------------------------------------------------------------- Fig. 5
def fig5_rows(
    campaigns: Mapping[str, Mapping[str, CampaignResult]],
) -> List[Dict[str, object]]:
    """Rows of the Fig. 5 bar charts (best, mean best, number of evaluations)."""
    rows: List[Dict[str, object]] = []
    for setup, methods in campaigns.items():
        for label, campaign in methods.items():
            rows.append(
                {
                    "setup": setup,
                    "method": label,
                    "best": campaign.best(),
                    "mean_best": campaign.mean_best(),
                    "evaluations": campaign.evaluations(),
                }
            )
    return rows


def fig5_table(campaigns: Mapping[str, Mapping[str, CampaignResult]]) -> str:
    """Text rendering of the Fig. 5 metrics."""
    rows = fig5_rows(campaigns)
    headers = ["setup", "method", "best (s)", "mean best (s)", "#evals"]
    table_rows = [
        [r["setup"], r["method"], r["best"], r["mean_best"], r["evaluations"]] for r in rows
    ]
    return format_table(headers, table_rows)

"""Render a completed campaign: Markdown, CSV, and BENCH trajectory.

Two classes of output with deliberately different determinism:

- The **deterministic report** (``include_timing=False``) is a pure
  function of the per-image attack results, so a SIGKILLed-and-resumed
  campaign renders it byte-identical to an uninterrupted run -- the
  acceptance bar CI enforces.  It carries success rate, query metrics
  and cache hit rate per cell.
- The **full report** (the default) appends wall-clock columns and the
  run's git revision, which are measurements of one particular
  execution and are expected to differ between runs.

``BENCH_campaign_<id>.json`` files flatten the same numbers into the
``repro-bench/1`` metric schema (:mod:`repro.campaign.bench`) so the
campaign joins the benchmark suite's perf trajectory.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Optional

from repro.campaign.bench import bench_metric, write_bench
from repro.runtime.checkpoint import CheckpointStore, load_matrix

#: ``(column header, summary key, format)`` for the deterministic table.
DETERMINISTIC_COLUMNS = (
    ("images", "total_images", "{:d}"),
    ("success", "success_rate", "{:.1%}"),
    ("avg q", "avg_queries", "{:.1f}"),
    ("median q", "median_queries", "{:.1f}"),
    ("penalized q", "penalized_avg_queries", "{:.1f}"),
    ("total q", "total_queries", "{:d}"),
)
TIMING_COLUMNS = (
    ("attack s", "attack_seconds", "{:.2f}"),
    ("wall s", "total_seconds", "{:.2f}"),
)


class ReportError(RuntimeError):
    """The campaign root cannot be rendered (no manifest / no cells)."""


def load_campaign_records(root: str) -> Dict:
    """``{"manifest": ..., "cells": {cell_id: record}}`` from a root dir."""
    store = CheckpointStore(root)
    manifest, cells, _ = load_matrix(store)
    if manifest is None:
        raise ReportError(
            f"{root} holds no campaign manifest; run `repro campaign run` first"
        )
    if not cells:
        raise ReportError(
            f"campaign {manifest.get('campaign')!r} at {root} has no "
            f"completed cells yet"
        )
    return {"manifest": manifest, "cells": cells}


def _ordered_cells(manifest: Dict, cells: Dict[str, Dict]) -> List[Dict]:
    """Cell records in spec order (completed cells only).

    A root without a spec, or whose stored spec this version no longer
    accepts (an older root may name a since-removed override), renders
    in cell-id order: its records still carry every reported number.
    """
    from repro.campaign.spec import CampaignSpec, SpecError

    try:
        expanded = CampaignSpec.from_dict(manifest.get("spec")).expand()
    except SpecError:
        expanded = []
    ordered = [cells[cell.cell_id] for cell in expanded if cell.cell_id in cells]
    # cells the spec does not expand to (none under the fingerprint
    # guard, all without a valid spec) still render, at the end
    known = {record["cell"] for record in ordered}
    ordered.extend(
        cells[cell_id] for cell_id in sorted(cells) if cell_id not in known
    )
    return ordered


def _cell_value(record: Dict, key: str):
    if key in record.get("summary", {}):
        return record["summary"][key]
    return record.get("timing", {}).get(key)


def _format(value, pattern: str) -> str:
    if value is None:
        return "-"
    if pattern.endswith("{:d}"):
        return pattern.format(int(value))
    try:
        return pattern.format(value)
    except (TypeError, ValueError):
        return str(value)


def _cache_rate(record: Dict) -> Optional[float]:
    cache = record.get("cache")
    if not cache:
        return None
    return cache.get("hit_rate")


def campaign_markdown(
    root: str, include_timing: bool = True
) -> str:
    """The campaign report as a Markdown document."""
    loaded = load_campaign_records(root)
    manifest, cells = loaded["manifest"], loaded["cells"]
    records = _ordered_cells(manifest, cells)
    columns = list(DETERMINISTIC_COLUMNS)
    if include_timing:
        columns += list(TIMING_COLUMNS)

    lines = [f"# campaign {manifest['campaign']}", ""]
    expected = manifest.get("cells")
    lines.append(
        f"{len(records)}/{expected} cells complete"
        + (f" · spec {manifest['fingerprint']}" if manifest.get("fingerprint") else "")
    )
    if include_timing:
        revs = sorted(
            {record.get("git_rev", "unknown") for record in records}
        )
        lines.append(f"git rev(s): {', '.join(revs)}")
    lines.append("")

    header = ["cell"] + [name for name, _, _ in columns] + ["cache hit"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for record in records:
        row = [record["cell"]]
        for _, key, pattern in columns:
            row.append(_format(_cell_value(record, key), pattern))
        rate = _cache_rate(record)
        row.append("-" if rate is None else f"{rate:.1%}")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    return "\n".join(lines)


def campaign_csv(root: str, include_timing: bool = True) -> str:
    """The campaign report as CSV (one row per cell)."""
    loaded = load_campaign_records(root)
    records = _ordered_cells(loaded["manifest"], loaded["cells"])
    columns = list(DETERMINISTIC_COLUMNS)
    if include_timing:
        columns += list(TIMING_COLUMNS)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["cell"] + [key for _, key, _ in columns] + ["cache_hit_rate"])
    for record in records:
        writer.writerow(
            [record["cell"]]
            + [_cell_value(record, key) for _, key, _ in columns]
            + [_cache_rate(record)]
        )
    return buffer.getvalue()


#: Per-cell summary keys flattened into BENCH metrics, with units.
BENCH_METRICS = (
    ("success_rate", "fraction"),
    ("avg_queries", "queries"),
    ("median_queries", "queries"),
    ("penalized_avg_queries", "queries"),
    ("total_queries", "queries"),
    ("attack_seconds", "s"),
    ("total_seconds", "s"),
)


def campaign_bench_metrics(root: str) -> List[Dict]:
    """Flatten every completed cell into ``<cell>/<metric>`` entries."""
    loaded = load_campaign_records(root)
    records = _ordered_cells(loaded["manifest"], loaded["cells"])
    metrics = []
    for record in records:
        for key, unit in BENCH_METRICS:
            metrics.append(
                bench_metric(
                    f"{record['cell']}/{key}", _cell_value(record, key), unit
                )
            )
        rate = _cache_rate(record)
        if rate is not None:
            metrics.append(
                bench_metric(f"{record['cell']}/cache_hit_rate", rate, "fraction")
            )
    return metrics


def write_campaign_bench(root: str, directory: str) -> str:
    """Write ``BENCH_campaign_<id>.json`` for the campaign at ``root``."""
    loaded = load_campaign_records(root)
    campaign_id = loaded["manifest"]["campaign"]
    return write_bench(
        directory,
        f"campaign_{campaign_id}",
        campaign_bench_metrics(root),
    )

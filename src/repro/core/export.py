"""Report export: JSON and CSV serializations of experiment reports.

Downstream users typically want the Table II/III rows in machine-readable
form for plotting or aggregation across seeds; this module provides both
formats plus a loader for round-tripping.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.core.report import ExperimentReport, SweepEntry, SweepReport, TableRow
from repro.utils.serialization import save_json


def report_to_dict(report: ExperimentReport) -> dict:
    """Plain-dict form of a report (JSON-serializable)."""
    return {
        "architecture": report.architecture,
        "dataset": report.dataset,
        "layer_names": list(report.layer_names),
        "rows": [
            {
                "iteration": row.iteration,
                "label": row.label,
                "bit_widths": list(row.bit_widths),
                "channel_counts": (
                    list(row.channel_counts) if row.channel_counts else None
                ),
                "test_accuracy": row.test_accuracy,
                "total_ad": row.total_ad,
                "energy_efficiency": row.energy_efficiency,
                "epochs": row.epochs,
                "train_complexity": row.train_complexity,
            }
            for row in report.rows
        ],
    }


def save_report_json(report: ExperimentReport, path) -> None:
    """Write the report as pretty-printed JSON, atomically (see :func:`save_json`)."""
    save_json(path, report_to_dict(report))


def load_report_json(path) -> ExperimentReport:
    """Reconstruct a report from :func:`save_report_json` output."""
    return report_from_dict(json.loads(Path(path).read_text()))


def report_from_dict(payload: dict) -> ExperimentReport:
    """Inverse of :func:`report_to_dict`."""
    report = ExperimentReport(
        architecture=payload["architecture"],
        dataset=payload["dataset"],
        layer_names=list(payload["layer_names"]),
    )
    for row in payload["rows"]:
        report.rows.append(
            TableRow(
                iteration=row["iteration"],
                bit_widths=list(row["bit_widths"]),
                test_accuracy=row["test_accuracy"],
                total_ad=row["total_ad"],
                energy_efficiency=row["energy_efficiency"],
                epochs=row["epochs"],
                train_complexity=row["train_complexity"],
                channel_counts=(
                    list(row["channel_counts"]) if row["channel_counts"] else None
                ),
                label=row.get("label", ""),
            )
        )
    return report


def sweep_report_from_payload(payload: dict) -> SweepReport:
    """Rebuild the aggregate :class:`SweepReport` from a sweep ``--out``
    (or ``repro merge-sweeps``) JSON payload."""
    report = SweepReport(name=payload["sweep"])
    for point in payload["points"]:
        report.add(SweepEntry(
            label=point["label"],
            report=(
                report_from_dict(point["report"])
                if point.get("report") is not None
                else None
            ),
            status=point["status"],
            key=point.get("key", ""),
            error=point.get("error"),
        ))
    return report


def save_report_csv(report: ExperimentReport, path) -> None:
    """Write one CSV row per iteration (bit/channel vectors as JSON cells)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "architecture",
                "dataset",
                "iteration",
                "label",
                "bit_widths",
                "channel_counts",
                "test_accuracy",
                "total_ad",
                "energy_efficiency",
                "epochs",
                "train_complexity",
            ]
        )
        for row in report.rows:
            writer.writerow(
                [
                    report.architecture,
                    report.dataset,
                    row.iteration,
                    row.label,
                    json.dumps(row.bit_widths),
                    json.dumps(row.channel_counts) if row.channel_counts else "",
                    f"{row.test_accuracy:.6f}",
                    f"{row.total_ad:.6f}",
                    f"{row.energy_efficiency:.6f}",
                    row.epochs,
                    f"{row.train_complexity:.6f}",
                ]
            )

"""Report dataclasses: the rows of the paper's Tables II / III.

Kept free of training/pipeline imports so that both the low-level
:mod:`repro.core` machinery and the declarative :mod:`repro.api` layer
can share them without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.tables import format_table


@dataclass
class TableRow:
    """One row of a Table II/III-shaped report."""

    iteration: int
    bit_widths: list[int]
    test_accuracy: float
    total_ad: float
    energy_efficiency: float
    epochs: int
    train_complexity: float
    channel_counts: list[int] | None = None
    label: str = ""


@dataclass
class ExperimentReport:
    """All rows of one experiment plus naming metadata."""

    architecture: str
    dataset: str
    layer_names: list[str]
    rows: list[TableRow] = field(default_factory=list)

    def format(self) -> str:
        """Monospace rendering in the paper's column order."""
        headers = ["Iter", "Bit-widths", "Test Acc", "Total AD",
                   "Energy Eff", "Epochs", "Train Compl"]
        include_channels = any(r.channel_counts is not None for r in self.rows)
        if include_channels:
            headers.insert(2, "nChannels")
        table_rows = []
        for row in self.rows:
            cells = [
                row.label or str(row.iteration),
                str(row.bit_widths),
                f"{row.test_accuracy * 100:.2f}%",
                f"{row.total_ad:.3f}",
                f"{row.energy_efficiency:.2f}x",
                str(row.epochs),
                f"{row.train_complexity:.3f}x",
            ]
            if include_channels:
                cells.insert(2, str(row.channel_counts or "-"))
            table_rows.append(cells)
        title = f"{self.architecture} on {self.dataset}"
        return format_table(headers, table_rows, title=title)


@dataclass
class SweepEntry:
    """One sweep point's outcome: a report, a cache hit, or a failure."""

    label: str
    report: ExperimentReport | None = None
    status: str = "ok"  # "ok" | "cached" | "failed"
    key: str = ""
    error: str | None = None

    @property
    def final_row(self) -> TableRow | None:
        if self.report is None or not self.report.rows:
            return None
        return self.report.rows[-1]


@dataclass
class SearchEntry(SweepEntry):
    """One search trial's outcome plus its place in the search.

    ``feasible`` records whether the trial met the search's acceptance
    rule (within the accuracy-drop budget for AD search, survived the
    pruning rung for successive halving); ``None`` means the rule never
    judged it (e.g. the trial crashed before producing a row).  ``best``
    marks the trial the search ultimately selected.
    """

    feasible: bool | None = None
    best: bool = False

    @property
    def bit_vector(self) -> dict | None:
        """The trial's final per-layer assignment as ``{name: bits}``."""
        row = self.final_row
        if row is None or self.report is None:
            return None
        names = self.report.layer_names
        if len(names) != len(row.bit_widths):
            return None
        return dict(zip(names, row.bit_widths))


@dataclass
class SearchReport:
    """Per-trial rows of an adaptive search (bit-width search, halving).

    The search analogue of :class:`SweepReport`: one entry per trial in
    proposal order, annotated with feasibility and the selected best.
    """

    name: str
    objective: str = "energy_efficiency"
    accuracy_drop: float | None = None
    entries: list[SearchEntry] = field(default_factory=list)

    def add(self, entry: SearchEntry) -> None:
        self.entries.append(entry)

    @property
    def best_entry(self) -> SearchEntry | None:
        for entry in self.entries:
            if entry.best:
                return entry
        return None

    @property
    def best_bit_vector(self) -> dict | None:
        """The winning trial's per-layer assignment (None without one)."""
        best = self.best_entry
        return best.bit_vector if best is not None else None

    @property
    def failed(self) -> list[SearchEntry]:
        return [e for e in self.entries if e.status == "failed"]

    def format(self) -> str:
        """One line per trial plus the selected best and any failures."""
        headers = ["Trial", "Status", "Bit-widths", "Test Acc", "Total AD",
                   "Energy Eff", "Epochs", "Feasible", "Best"]
        table_rows = []
        for entry in self.entries:
            row = entry.final_row
            feasible = "-" if entry.feasible is None else \
                ("yes" if entry.feasible else "no")
            best = "*" if entry.best else ""
            if row is None:
                table_rows.append([entry.label, entry.status, "-", "-", "-",
                                   "-", "-", feasible, best])
                continue
            table_rows.append([
                entry.label,
                entry.status,
                str(row.bit_widths),
                f"{row.test_accuracy * 100:.2f}%",
                f"{row.total_ad:.3f}",
                f"{row.energy_efficiency:.2f}x",
                str(sum(r.epochs for r in entry.report.rows)),
                feasible,
                best,
            ])
        title = f"Search — {self.name} (objective: {self.objective})"
        out = format_table(headers, table_rows, title=title)
        lines = [out]
        best = self.best_entry
        if best is not None and best.final_row is not None:
            row = best.final_row
            lines.append(
                f"best: {best.label} — acc {row.test_accuracy * 100:.2f}%, "
                f"energy eff {row.energy_efficiency:.2f}x"
            )
            vector = best.bit_vector
            if vector is not None:
                assignment = ", ".join(
                    f"{name}={bits}" for name, bits in vector.items()
                )
                lines.append(f"bit vector: {assignment}")
        if self.failed:
            lines.append("failures:")
            lines += [f"  {e.label}: {e.error}" for e in self.failed]
        return "\n".join(lines)


@dataclass
class SweepReport:
    """Cross-run aggregation: every point's rows under one roof.

    The per-point :class:`ExperimentReport` objects are kept whole (the
    sweep runner guarantees they are bit-identical to serial runs); the
    aggregate view summarises each point by its final row, the form the
    paper's tables take when read across a grid axis.
    """

    name: str
    entries: list[SweepEntry] = field(default_factory=list)

    def add(self, entry: SweepEntry) -> None:
        """Fold one more point outcome in (streaming aggregation)."""
        self.entries.append(entry)

    @classmethod
    def merged(cls, name: str, reports) -> "SweepReport":
        """Join several (e.g. per-shard) reports, entry order preserved."""
        merged = cls(name=name)
        for report in reports:
            merged.entries.extend(report.entries)
        return merged

    @property
    def succeeded(self) -> list[SweepEntry]:
        return [e for e in self.entries if e.report is not None]

    @property
    def failed(self) -> list[SweepEntry]:
        return [e for e in self.entries if e.status == "failed"]

    def reports(self) -> list[ExperimentReport]:
        return [e.report for e in self.succeeded]

    def rows(self) -> list[tuple[str, TableRow]]:
        """Every (point label, row) pair across the sweep, in order."""
        return [
            (entry.label, row)
            for entry in self.succeeded
            for row in entry.report.rows
        ]

    def format(self) -> str:
        """One summary line per point (final row), plus failures."""
        headers = ["Point", "Status", "Bit-widths", "Test Acc", "Total AD",
                   "Energy Eff", "Epochs", "Train Compl"]
        table_rows = []
        for entry in self.entries:
            row = entry.final_row
            if row is None:
                table_rows.append(
                    [entry.label, entry.status, "-", "-", "-", "-", "-", "-"]
                )
                continue
            table_rows.append([
                entry.label,
                entry.status,
                str(row.bit_widths),
                f"{row.test_accuracy * 100:.2f}%",
                f"{row.total_ad:.3f}",
                f"{row.energy_efficiency:.2f}x",
                str(sum(r.epochs for r in entry.report.rows)),
                f"{row.train_complexity:.3f}x",
            ])
        out = format_table(headers, table_rows, title=f"Sweep — {self.name}")
        if self.failed:
            lines = [out, "", "failures:"]
            lines += [f"  {e.label}: {e.error}" for e in self.failed]
            out = "\n".join(lines)
        return out


def format_job_table(jobs: list[dict]) -> str:
    """The ``repro status`` view of the master's queue.

    ``jobs`` is a list of ``Job.describe()`` payloads (as returned by
    the service's ``status`` method); the ``Points`` column compresses
    each finished job's summary stats into one cell.
    """
    headers = ["Job", "State", "Pri", "Kind", "Name", "Points"]
    rows = []
    for job in jobs:
        stats = (job.get("summary") or {}).get("stats") or {}
        if stats:
            detail = (f"{stats.get('total', 0)} "
                      f"({stats.get('executed', 0)} run, "
                      f"{stats.get('cached', 0)} cached, "
                      f"{stats.get('failed', 0)} failed)")
            if "speculated" in stats:
                # Speculative searches: how many of the scheduler's bets
                # the confirm step kept, straight from the result stats,
                # and how many of those a worker had already started.
                detail += (f", {stats.get('confirmed', 0)}/"
                           f"{stats['speculated']} bets confirmed")
                if "head_starts" in stats:
                    detail += f" ({stats['head_starts']} with a head start)"
        elif job.get("error"):
            detail = job["error"]
        else:
            detail = "-"
        state = job.get("state", "?")
        if job.get("cancel_requested") and state == "running":
            state = "running*"  # cancel pending at the next round
        rows.append([
            str(job.get("id", "?")), state, str(job.get("priority", 0)),
            job.get("kind", "?"), job.get("name", "?"), detail,
        ])
    return format_table(headers, rows, title="Experiment queue")

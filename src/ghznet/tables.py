"""CSV result tables with reproducible, locale-independent formatting."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Any, Sequence

SIGNIFICANT_DIGITS = 12


def format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # + 0.0 turns -0.0 into 0.0, so no column prints "-0"
        return f"{value + 0.0:.{SIGNIFICANT_DIGITS}g}"
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[Sequence[Any]] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} cells, got {len(values)}")
        self.rows.append(list(values))

    def render(self) -> str:
        out = io.StringIO()
        for key in sorted(self.metadata):
            out.write(f"# {key} = {self.metadata[key]}\n")
        out.write(",".join(self.columns) + "\n")
        for row in self.rows:
            out.write(",".join(format_cell(v) for v in row) + "\n")
        return out.getvalue()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(self.render())

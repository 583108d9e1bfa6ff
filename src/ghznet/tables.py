"""CSV result tables with reproducible, locale-independent formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

SIGNIFICANT_DIGITS = 12
_FLOAT_SPEC = f".{SIGNIFICANT_DIGITS}g"


def format_cell(value: Any) -> str:
    # floats come first, as nearly every cell is one
    if isinstance(value, float):
        # + 0.0 turns -0.0 into 0.0, so no column prints "-0"
        return format(value + 0.0, _FLOAT_SPEC)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
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
        lines = [f"# {key} = {self.metadata[key]}" for key in sorted(self.metadata)]
        lines.append(",".join(self.columns))
        lines += [",".join([format_cell(v) for v in row]) for row in self.rows]
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(self.render())

"""CSV result tables with reproducible, locale-independent formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

SIGNIFICANT_DIGITS = 12
# "%" prints the bytes that format(value, ".12g") prints, in less time
_FLOAT_FORMAT = f"%.{SIGNIFICANT_DIGITS}g"


def _text_cell(value: Any) -> str:
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# the formatter of each exact cell type, which render looks up; + 0.0 turns
# -0.0 into 0.0, so no column prints "-0"
_CELL_FORMATTERS = {
    float: lambda value: _FLOAT_FORMAT % (value + 0.0),
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    int: _text_cell,
    str: _text_cell,
}


def format_cell(value: Any) -> str:
    # float subclasses such as np.float64 print as floats, other types as text
    return _CELL_FORMATTERS.get(float if isinstance(value, float) else type(value), _text_cell)(value)


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
        formatter = _CELL_FORMATTERS.get
        lines += [",".join([formatter(type(v), format_cell)(v) for v in row]) for row in self.rows]
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(self.render())

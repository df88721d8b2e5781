"""Input and output files: the exit-code exceptions, the comment rule of every
input format, the row checks of the CSV readers and the one writer of every
output file.

The command line maps ConfigError to exit 2, DataError to exit 3 and FitError
(a fit that did not converge) to exit 4.  The domain readers
(``load_field_config``, ``read_decay_csv``, ``read_diffusion_csv``,
``read_manifest``) stay with their models and read through these rules.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "DataError",
    "FitError",
    "data_lines",
    "csv_rows",
    "finite",
    "positive_finite",
    "increasing_finite",
    "write_text",
    "write_csv",
    "write_json",
]


class ConfigError(ValueError):
    """Malformed field-model configuration file, or a rejected command line."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        self.reason = message
        self.line = line
        self.key = key
        where = f" (line {line})" if line is not None else ""
        what = f" key '{key}'" if key else ""
        super().__init__(f"config error{where}{what}: {message}")


class DataError(ValueError):
    """Unparseable data file, or data outside its fit's domain; carries the
    offending line number where there is one."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"data error{where}: {message}")


class FitError(ValueError):
    """A fit that did not converge, or whose start point lies outside its
    bounds."""


# ---------------------------------------------------------------------------
# input
# ---------------------------------------------------------------------------

def data_lines(path: str | Path) -> list[tuple[int, str]]:
    """(line number, text) of each line of an input file that holds data.

    This is the comment rule of every input format: a ``#`` starts a comment
    anywhere on a line, the text is stripped of surrounding whitespace, and a
    line left blank is skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [(lineno, raw.split("#", 1)[0].strip()) for lineno, raw in enumerate(fh, 1)]
    return [(lineno, text) for lineno, text in lines if text]


def csv_rows(path: str | Path) -> list[tuple[int, list[str]]]:
    """(line number, cells) of each data line of a CSV file (see data_lines)."""
    return [(lineno, next(csv.reader([text]))) for lineno, text in data_lines(path)]


def finite(name: str, value: float, line: int) -> float:
    """``value`` if it is finite; else a DataError at ``line``.  Both CSV
    readers check every numeric cell with it or with one of the two below."""
    if not math.isfinite(value):
        raise DataError(f"{name} = {value!r} is not finite", line=line)
    return value


def positive_finite(name: str, value: float, line: int) -> float:
    """``value`` if it is positive and finite; else a DataError at ``line``."""
    if not (math.isfinite(value) and value > 0.0):
        raise DataError(f"{name} = {value!r} is not positive and finite", line=line)
    return value


def increasing_finite(name: str, value: float, previous: float, line: int) -> float:
    """``value`` if it is finite and above ``previous``, the value of the row
    before (on the first row, the bound that every value must exceed); else
    a DataError at ``line``.  Both CSV readers check their x column with it."""
    if not finite(name, value, line) > previous:
        raise DataError(f"{name} = {value!r} is not above {previous!r}", line=line)
    return value


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

#: rows per piece of a written CSV
_CSV_ROWS = 2 ** 14


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write text, or its pieces in turn, as UTF-8 with \\n newlines to a new
    file at path; every output file of the package is written here.
    Whatever was at path (an earlier output, a link) is removed first rather
    than rewritten in place: ext4, with its default auto_da_alloc, flushes a
    truncated and rewritten file to disk when it is closed, which costs more
    than the write.  A directory at path stays and raises OSError."""
    Path(path).unlink(missing_ok=True)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence,
              preamble: Sequence[str] = ()) -> None:
    """Write the preamble lines, then one column per header name: float cells
    as repr (the shortest text that reads back to the same double), integer
    cells as str, strings unchanged.  The rows are formatted and written
    _CSV_ROWS at a time, so the text of a long column is never held whole."""
    columns = [np.asarray(column) for column in columns]
    if len({column.shape[0] for column in columns}) > 1:
        raise ValueError("CSV columns differ in length")
    formats = [repr if column.dtype.kind == "f" else str for column in columns]
    n_rows = columns[0].shape[0] if columns else 0

    def pieces():
        yield "\n".join([*preamble, ",".join(header)]) + "\n"
        for start in range(0, n_rows, _CSV_ROWS):
            cells = [map(f, column[start:start + _CSV_ROWS].tolist())
                     for f, column in zip(formats, columns)]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    write_text(path, pieces())


def write_json(path: str | Path, payload: dict) -> None:
    """Strict JSON, indented by two spaces, with a final newline: a number
    that is not finite is written as null."""
    write_text(path, json.dumps(_finite_or_null(payload), indent=2, allow_nan=False) + "\n")


def _finite_or_null(value):
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value

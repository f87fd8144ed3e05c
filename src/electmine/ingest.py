"""Survey CSV ingestion: schema-driven loading, cleaning, binning, and
feature selection. `load` does all four and the encoding in one pass;
load_csv, clean and select_features are the same steps one at a time, on
lists of row dicts.

The schema (columns, missing tokens, numeric bins, consistency rules, keep
list) ships as a YAML document so cleaning choices are data, not code; see
configs/spae2022.yaml for a complete example.
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import yaml

from .model import ItemDictionary, TransactionDb, encode_labels

CATEGORICAL = "categorical"
NUMERIC_BINNED = "numeric_binned"
DROP = "drop"

DEFAULT_MISSING_TOKENS = frozenset({"", "na", "nan"})

@dataclass(frozen=True)
class Bin:
    lower: float
    upper: float  # inclusive in the last bin; bin_numeric has the rule
    label: str


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str = CATEGORICAL
    missing_tokens: frozenset[str] | None = None  # None: use the schema default
    bins: tuple[Bin, ...] = ()

    def __post_init__(self):
        if "_" in self.name:
            raise ValueError(f"column name {self.name!r} contains '_' (reserved separator)")
        if self.kind not in (CATEGORICAL, NUMERIC_BINNED, DROP):
            raise ValueError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.bins and self.kind != NUMERIC_BINNED:
            raise ValueError(f"column {self.name!r}: bins need kind numeric_binned, not {self.kind!r}")
        if self.kind == NUMERIC_BINNED:
            if not self.bins:
                raise ValueError(f"column {self.name!r}: numeric_binned needs bins")
            labels = [b.label for b in self.bins]
            if len(set(labels)) != len(labels):
                raise ValueError(f"column {self.name!r}: bin labels not unique")
            for b in self.bins:
                if not b.lower <= b.upper:  # also false for a NaN bound
                    raise ValueError(f"column {self.name!r}: bin {b.label!r} is reversed or has a NaN bound")
            for a, b in zip(self.bins, self.bins[1:]):
                if b.lower <= a.upper:
                    raise ValueError(f"column {self.name!r}: bins overlap or are unordered")


@dataclass(frozen=True)
class ConsistencyRule:
    """Column=value conjuncts that must not co-occur in one row."""

    description: str
    conjuncts: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if len(self.conjuncts) < 2:
            raise ValueError("a consistency rule needs at least two conjuncts")

    def matches(self, row: Mapping[str, str]) -> bool:
        return all(row.get(col) == value for col, value in self.conjuncts)


@dataclass(frozen=True)
class SchemaSpec:
    columns: tuple[ColumnSpec, ...]
    default_missing_tokens: frozenset[str] = DEFAULT_MISSING_TOKENS
    consistency_rules: tuple[ConsistencyRule, ...] = ()
    keep: tuple[str, ...] = ()

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")
        twice = sorted({name for name in self.keep if self.keep.count(name) > 1})
        if twice:
            raise ValueError(f"keep columns named twice: {twice}")
        dropped = {c.name for c in self.columns if c.kind == DROP}
        ruled = tuple(dict.fromkeys(name for rule in self.consistency_rules for name, _ in rule.conjuncts))
        for what, used in (("keep", self.keep), ("consistency rule", ruled)):
            unknown = [name for name in used if name not in names]
            if unknown:
                raise ValueError(f"{what} columns absent from schema: {unknown}")
            unread = [name for name in used if name in dropped]
            if unread:
                raise ValueError(f"{what} columns of kind drop: {unread}")

    def missing_tokens_for(self, col: ColumnSpec) -> frozenset[str]:
        tokens = col.missing_tokens if col.missing_tokens is not None else self.default_missing_tokens
        return frozenset(t.lower() for t in tokens)


@dataclass
class CleanReport:
    blanked_cells: Counter[str] = field(default_factory=Counter)
    out_of_range: Counter[str] = field(default_factory=Counter)
    rows_dropped: Counter[str] = field(default_factory=Counter)
    ignored_columns: tuple[str, ...] = ()  # header columns not in the schema

    def as_text(self) -> str:
        lines = ["clean report"]
        tallies = {"blanked cells": self.blanked_cells, "out of range": self.out_of_range,
                   "rows dropped": self.rows_dropped}
        for heading, tally in tallies.items():
            lines += (f"  {heading:<14} {key}: {tally[key]}" for key in sorted(tally))
        if len(lines) == 1:
            lines.append("  nothing removed")
        return "\n".join(lines)


@dataclass(frozen=True)
class LoadResult:
    rows: list[dict[str, str]]
    ignored_columns: tuple[str, ...]


def _mapping(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a mapping, not {type(value).__name__}")
    return value


def _known(value, keys: tuple[str, ...], what: str) -> Mapping:
    """_mapping(value, what) with no key outside keys: a misspelt key is an error, not ignored."""
    unknown = sorted(str(k) for k in _mapping(value, what) if k not in keys)
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")
    return value


def _sequence(value, what: str) -> list:
    # A YAML scalar is iterable too: "missing_tokens: na" would read as {'n', 'a'}.
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _bin(entry) -> Bin:
    if not isinstance(entry, list) or len(entry) != 3:
        raise ValueError(f"a bin is [lower, upper, label], not {entry!r}")
    return Bin(float(entry[0]), float(entry[1]), str(entry[2]))


def load_schema(path: str | Path) -> SchemaSpec:
    """Parse a YAML schema into a SchemaSpec; ValueError if it has the wrong shape."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    doc = _known(doc, ("columns", "missing_tokens", "consistency_rules", "keep"), "the schema")
    columns = []
    for entry in doc.get("columns", []):
        entry = _known(entry, ("name", "kind", "missing_tokens", "bins"), "a column entry")
        name = str(entry["name"])
        tokens = entry.get("missing_tokens")
        if tokens is not None:
            tokens = frozenset(map(str, _sequence(tokens, f"column {name!r}: missing_tokens")))
        columns.append(
            ColumnSpec(
                name=name,
                kind=str(entry.get("kind", CATEGORICAL)),
                missing_tokens=tokens,
                bins=tuple(map(_bin, entry.get("bins", []))),
            )
        )
    rules = []
    for entry in doc.get("consistency_rules", []):
        entry = _known(entry, ("description", "conjuncts"), "a consistency rule")
        conjuncts = _mapping(entry["conjuncts"], "conjuncts")
        rules.append(ConsistencyRule(
            description=str(entry["description"]),
            conjuncts=tuple(sorted((str(k), str(v)) for k, v in conjuncts.items())),
        ))
    default_tokens = doc.get("missing_tokens")
    return SchemaSpec(
        columns=tuple(columns),
        default_missing_tokens=(
            frozenset(map(str, _sequence(default_tokens, "missing_tokens")))
            if default_tokens is not None else DEFAULT_MISSING_TOKENS
        ),
        consistency_rules=tuple(rules),
        keep=tuple(map(str, _sequence(doc.get("keep", []), "keep"))),
    )


def load(schema: SchemaSpec, path: str | Path) -> tuple[ItemDictionary, TransactionDb, CleanReport]:
    """Read, clean, select and encode the survey CSV in one pass.

    The result equals load_csv, clean (with the schema's consistency rules),
    select_features (with the schema's keep list, or every non-drop column)
    and encode_rows in turn, and the report also lists the ignored header
    columns. No row is held as a dict: each row becomes its transaction as
    it is read. Each column keeps a memo from raw cell to outcome, so each
    distinct cell is stripped, checked and binned once, and memory is
    bounded by the distinct cells plus the transactions.
    """
    report = CleanReport()
    cells = _cell_memos(schema)
    keep = schema.keep or tuple(c.name for c in schema.columns if c.kind != DROP)
    with _reading(path) as reader:
        positions, report.ignored_columns, width = _header(reader, path, schema)
        # Keep columns first and in keep order, since item ids follow it.
        order = [name for name in keep if name in positions]
        order += [name for name in positions if name not in keep]
        columns = [(name, positions[name], name in keep, cells[name]) for name in order]

        def kept_rows() -> Iterator[list[str]]:
            for row in _records(reader, path, width):
                stripped: dict[str, str] = {}
                labels = []
                out_of_range = []
                empty = None  # the first kept column whose answer is ""
                for name, pos, encode, memo in columns:
                    value, cleaned, label = memo[row[pos]]
                    if value is None:
                        report.blanked_cells[name] += 1
                        continue
                    stripped[name] = value
                    if not cleaned:
                        if cleaned is None:
                            out_of_range.append(name)
                        elif encode:
                            empty = empty or name
                    elif encode:
                        labels.append(label)
                rule = next((r for r in schema.consistency_rules if r.matches(stripped)), None)
                if rule is not None:
                    report.rows_dropped[rule.description] += 1
                    continue
                if empty:
                    raise ValueError(f"{path}: line {reader.line_num}: empty value in column {empty!r}")
                for name in out_of_range:
                    report.out_of_range[name] += 1
                yield labels

        dictionary, db = encode_labels(kept_rows())
    return dictionary, db, report


def load_csv(path: str | Path, schema: SchemaSpec) -> LoadResult:
    """Read the survey CSV, keeping only schema columns with kind != drop.

    Header columns absent from the schema are ignored and reported; a schema
    column absent from the header or named twice in it is an error, and so
    is a line that is not CSV or not UTF-8 (the ValueError names the file
    and the line). Blank lines are skipped.
    """
    with _reading(path) as reader:
        positions, ignored, width = _header(reader, path, schema)
        rows = [{name: row[pos] for name, pos in positions.items()} for row in _records(reader, path, width)]
    return LoadResult(rows=rows, ignored_columns=ignored)


@contextmanager
def _reading(path: str | Path) -> Iterator[Iterator[list[str]]]:
    """A csv.reader over the file. A CSV or UTF-8 error while reading it,
    the header included, becomes a ValueError naming the file and the line."""
    # utf-8-sig drops the byte-order mark that spreadsheet exports put
    # before the first header name.
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:  # raised per decoded chunk, so find the line
            raise ValueError(f"{path}: line {_first_non_utf8_line(path)} is not UTF-8: {exc.reason}") from exc


def _header(reader, path: str | Path, schema: SchemaSpec) -> tuple[dict[str, int], tuple[str, ...], int]:
    """Read the header: the position of each non-drop schema column, the
    header columns absent from the schema, and the header's width."""
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file, no header")
    wanted = [c.name for c in schema.columns if c.kind != DROP]
    missing = [name for name in wanted if name not in header]
    if missing:
        raise ValueError(f"{path}: schema columns missing from header: {missing}")
    for col in schema.columns:
        if header.count(col.name) > 1:
            raise ValueError(f"{path}: column {col.name!r} appears twice in the header")
    known = {c.name for c in schema.columns}
    ignored = tuple(h for h in header if h not in known)
    return {name: header.index(name) for name in wanted}, ignored, len(header)


def _records(reader, path: str | Path, width: int) -> Iterator[list[str]]:
    """The rows after the header, blank lines skipped; a row whose width is
    not the header's is a ValueError."""
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise ValueError(f"{path}: malformed CSV line {reader.line_num}")
        yield row


def _first_non_utf8_line(path: str | Path) -> int:
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return 0  # the file changed after the failed read


def bin_numeric(value: float, bins: Sequence[Bin]) -> str:
    """Label of the bin holding value. Bins are half-open: bin i covers
    [lower_i, lower_{i+1}) and the last bin [lower, upper], so a value
    between two bins, such as an age of 29.5, falls in the lower one."""
    if bins and bins[0].lower <= value <= bins[-1].upper:
        for b in reversed(bins):
            if b.lower <= value:
                return b.label
    raise ValueError(f"out of binning range: {value}")


def _clean_cell(
    raw: str, name: str, missing: frozenset[str], bins: Sequence[Bin], bin_labels: frozenset[str]
) -> tuple[str | None, str | None, str | None]:
    """A cell of column name: the stripped cell (None for a missing answer),
    its cleaned value, which is the stripped cell itself or, in a binned
    column, its bin label (None if out of binning range), and the item
    label "<name>_<cleaned value>". A bin label passes unchanged, so
    cleaning is idempotent. An empty cleaned value, a blank cell when ""
    is not a missing token, is an error in a kept column of a kept row:
    load names its line, and encode_rows its row."""
    value = raw.strip()  # "White " and "White" are one answer
    if value.lower() in missing:
        return None, None, None
    cleaned: str | None = value
    if bins and value not in bin_labels:
        try:
            cleaned = bin_numeric(float(value), bins)
        except ValueError:
            return value, None, None
    return value, cleaned, f"{name}_{cleaned}"


class _Memo(dict):
    """A dict that fills a missing key with fill(key), so fill runs once
    per distinct key."""

    def __init__(self, fill: Callable[[str], tuple]):
        super().__init__()
        self.fill = fill

    def __missing__(self, key: str) -> tuple:
        value = self[key] = self.fill(key)
        return value


def _cell_memos(schema: SchemaSpec) -> dict[str, _Memo]:
    """A memo from raw cell to _clean_cell outcome for each schema column."""
    memos = {}
    for col in schema.columns:
        memos[col.name] = _Memo(partial(
            _clean_cell, name=col.name, missing=schema.missing_tokens_for(col), bins=col.bins,
            bin_labels=frozenset(b.label for b in col.bins),
        ))
    return memos


def clean(
    rows: Sequence[Mapping[str, str]],
    schema: SchemaSpec,
    consistency: Sequence[ConsistencyRule] = (),
) -> tuple[list[dict[str, str]], CleanReport]:
    """Strip cells, blank missing ones, drop contradictory rows, bin numeric columns.

    Missing answers simply disappear from the row (no "missing" item), so
    downstream support denominators stay "all respondents". Rules test the
    stripped cells before binning. Cleaning is idempotent: already-binned
    labels pass through unchanged.
    """
    report = CleanReport()
    cells = _cell_memos(schema)
    cleaned: list[dict[str, str]] = []
    for row in rows:
        stripped: dict[str, str] = {}
        values: dict[str, str | None] = {}
        for name, raw in row.items():
            value, cleaned_value, _ = cells[name][raw]
            if value is None:
                report.blanked_cells[name] += 1
            else:
                stripped[name], values[name] = value, cleaned_value
        rule = next((r for r in consistency if r.matches(stripped)), None)
        if rule is not None:
            report.rows_dropped[rule.description] += 1
            continue
        out: dict[str, str] = {}
        for name, value in values.items():
            if value is None:
                report.out_of_range[name] += 1
            else:
                out[name] = value
        cleaned.append(out)
    return cleaned, report


def select_features(
    rows: Sequence[Mapping[str, str]], keep: Sequence[str], schema: SchemaSpec | None = None
) -> list[dict[str, str]]:
    """Restrict rows to the keep-list attributes, preserving keep order."""
    if schema is not None:
        known = {c.name for c in schema.columns}
        unknown = [name for name in keep if name not in known]
        if unknown:
            raise ValueError(f"keep columns absent from schema: {unknown}")
    return [{name: row[name] for name in keep if name in row} for row in rows]

"""Survey CSV ingestion: schema-driven loading, cleaning, binning, and
feature selection.

The schema (columns, missing tokens, numeric bins, consistency rules, keep
list) ships as a YAML document so cleaning choices are data, not code; see
configs/spae2022.yaml for a complete example.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import yaml

CATEGORICAL = "categorical"
NUMERIC_BINNED = "numeric_binned"
DROP = "drop"

DEFAULT_MISSING_TOKENS = frozenset({"", "na", "nan"})

@dataclass(frozen=True)
class Bin:
    lower: float
    upper: float  # inclusive
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

    def missing_tokens_for(self, col: ColumnSpec) -> frozenset[str]:
        tokens = col.missing_tokens if col.missing_tokens is not None else self.default_missing_tokens
        return frozenset(t.lower() for t in tokens)


@dataclass
class CleanReport:
    blanked_cells: dict[str, int] = field(default_factory=dict)
    out_of_range: dict[str, int] = field(default_factory=dict)
    rows_dropped: dict[str, int] = field(default_factory=dict)

    def as_text(self) -> str:
        lines = ["clean report"]
        for col in sorted(self.blanked_cells):
            lines.append(f"  blanked cells  {col}: {self.blanked_cells[col]}")
        for col in sorted(self.out_of_range):
            lines.append(f"  out of range   {col}: {self.out_of_range[col]}")
        for rule in sorted(self.rows_dropped):
            lines.append(f"  rows dropped   {rule}: {self.rows_dropped[rule]}")
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


def _bin(entry) -> Bin:
    if not isinstance(entry, list) or len(entry) != 3:
        raise ValueError(f"a bin is [lower, upper, label], not {entry!r}")
    return Bin(float(entry[0]), float(entry[1]), str(entry[2]))


def load_schema(path: str | Path) -> SchemaSpec:
    """Parse a YAML schema into a SchemaSpec; ValueError if it has the wrong shape."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = _mapping(yaml.safe_load(fh) or {}, "the schema")
    columns = []
    for entry in doc.get("columns", []):
        entry = _mapping(entry, "a column entry")
        tokens = entry.get("missing_tokens")
        columns.append(
            ColumnSpec(
                name=str(entry["name"]),
                kind=str(entry.get("kind", CATEGORICAL)),
                missing_tokens=frozenset(map(str, tokens)) if tokens is not None else None,
                bins=tuple(map(_bin, entry.get("bins", []))),
            )
        )
    rules = []
    for entry in doc.get("consistency_rules", []):
        entry = _mapping(entry, "a consistency rule")
        conjuncts = _mapping(entry["conjuncts"], "conjuncts")
        rules.append(ConsistencyRule(
            description=str(entry["description"]),
            conjuncts=tuple(sorted((str(k), str(v)) for k, v in conjuncts.items())),
        ))
    default_tokens = doc.get("missing_tokens")
    return SchemaSpec(
        columns=tuple(columns),
        default_missing_tokens=(
            frozenset(map(str, default_tokens)) if default_tokens is not None else DEFAULT_MISSING_TOKENS
        ),
        consistency_rules=tuple(rules),
        keep=tuple(map(str, doc.get("keep", []))),
    )


def load_csv(path: str | Path, schema: SchemaSpec) -> LoadResult:
    """Read the survey CSV, keeping only schema columns with kind != drop.

    Header columns absent from the schema are ignored and reported; a schema
    column absent from the header is an error, and so is a line that is not
    CSV or not UTF-8 (the ValueError names the file and the line).
    """
    wanted = [c.name for c in schema.columns if c.kind != DROP]
    # utf-8-sig drops the byte-order mark that spreadsheet exports put
    # before the first header name.
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None:
                raise ValueError(f"{path}: empty file, no header")
            header = list(reader.fieldnames)
            missing = [name for name in wanted if name not in header]
            if missing:
                raise ValueError(f"{path}: schema columns missing from header: {missing}")
            ignored = tuple(h for h in header if h not in {c.name for c in schema.columns})
            rows = []
            for raw in reader:
                if None in raw or any(v is None for v in raw.values()):
                    raise ValueError(f"{path}: malformed CSV line {reader.line_num}")
                rows.append({name: raw[name] for name in wanted})
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"{path}: line {reader.reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:  # raised per decoded chunk, so find the line
            raise ValueError(f"{path}: line {_first_non_utf8_line(path)} is not UTF-8: {exc.reason}") from exc
    return LoadResult(rows=rows, ignored_columns=ignored)


def _first_non_utf8_line(path: str | Path) -> int:
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return 0  # the file changed after the failed read


def bin_numeric(value: float, bins: Sequence[Bin]) -> str:
    """Label of the unique bin containing value (bounds inclusive)."""
    for b in bins:
        if b.lower <= value <= b.upper:
            return b.label
    raise ValueError(f"out of binning range: {value}")


def clean(
    rows: Sequence[Mapping[str, str]],
    schema: SchemaSpec,
    consistency: Sequence[ConsistencyRule] = (),
) -> tuple[list[dict[str, str]], CleanReport]:
    """Strip cells, blank missing ones, drop contradictory rows, bin numeric columns.

    Missing answers simply disappear from the row (no "missing" item), so
    downstream support denominators stay "all respondents". Cleaning is
    idempotent: already-binned labels pass through unchanged.
    """
    report = CleanReport()
    missing = {c.name: schema.missing_tokens_for(c) for c in schema.columns}
    binned = {
        c.name: (c.bins, frozenset(b.label for b in c.bins))
        for c in schema.columns
        if c.kind == NUMERIC_BINNED
    }
    cleaned: list[dict[str, str]] = []
    for row in rows:
        out: dict[str, str] = {}
        for name, value in row.items():
            value = value.strip()  # "White " and "White" are one answer
            if value.lower() in missing[name]:
                report.blanked_cells[name] = report.blanked_cells.get(name, 0) + 1
                continue
            out[name] = value
        dropped = False
        for rule in consistency:
            if rule.matches(out):
                report.rows_dropped[rule.description] = report.rows_dropped.get(rule.description, 0) + 1
                dropped = True
                break
        if dropped:
            continue
        for name in list(out):
            if name not in binned:
                continue
            bins, labels = binned[name]
            value = out[name]
            if value in labels:
                continue  # already binned (idempotent re-clean)
            try:
                out[name] = bin_numeric(float(value), bins)
            except ValueError:
                del out[name]
                report.out_of_range[name] = report.out_of_range.get(name, 0) + 1
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

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
from collections import Counter, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np
import yaml

from .model import ItemDictionary, TransactionDb

CATEGORICAL = "categorical"
NUMERIC_BINNED = "numeric_binned"
DROP = "drop"

DEFAULT_MISSING_TOKENS = frozenset({"", "na", "nan"})

CHUNK_ROWS = 512  # rows load reads, looks up and encodes at a time

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
        if not self.name:  # its items would be labelled "_value"
            raise ValueError("a column name is empty")
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
            if "" in labels:  # its cells would be empty answers
                raise ValueError(f"column {self.name!r}: a bin label is empty")
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


TEXT, NUMBER = "text", "a number"
# A YAML mapping's shape. what names it in its own errors. If named is set,
# its first key names it: its keys' errors start with named, formatted with
# the keys read so far, or, for that first key, with what and the mapping.
_Record = namedtuple("_Record", "what keys required named", defaults=((), ""))
# The schema document's shape, declared once. A shape is TEXT, NUMBER, a
# _Record, [shape] (a list), {shape} (a list read as a set), {TEXT: TEXT} (a
# mapping read as sorted pairs) or a tuple of (name, shape) positions (a list
# of exactly those).
_SCHEMA = _Record("the schema", {
    "missing_tokens": {TEXT},
    "columns": [_Record("a column entry", {
        "name": TEXT, "kind": TEXT, "missing_tokens": {TEXT},
        "bins": [(("lower", NUMBER), ("upper", NUMBER), ("label", TEXT))]}, ("name",), "column {name!r}: ")],
    "consistency_rules": [_Record("a consistency rule", {"description": TEXT, "conjuncts": {TEXT: TEXT}},
                                  ("description", "conjuncts"), "consistency rule {description!r}: ")],
    "keep": [TEXT],
})


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):  # libyaml's parser where PyYAML has it
    def construct_mapping(self, node, deep=False):
        """The mapping, or a ValueError naming a key it gives twice (merge keys aside) and its line."""
        seen = set()
        for key in (k for k, _ in node.value if isinstance(k, yaml.ScalarNode) and k.tag != "tag:yaml.org,2002:merge"):
            if (name := self.construct_object(key)) in seen:
                raise ValueError(f"line {key.start_mark.line + 1}: key {name!r} given twice in one mapping")
            seen.add(name)
        return super().construct_mapping(node, deep)


def _read(value, shape, what: str = ""):
    """value checked against shape and converted, or a ValueError that names
    it: TEXT (a YAML string or number) to a str, NUMBER (a number or text that
    float() reads) to a float, a list to a tuple, a set to a frozenset."""
    if isinstance(shape, str):  # never a null, a boolean, a list or a mapping
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            try:
                return str(value) if shape == TEXT else float(value)
            except (ValueError, OverflowError):  # text that is no number, or an int past float's range
                pass
        raise ValueError(f"{what} must be {shape}, not {value!r}")
    what = shape.what if isinstance(shape, _Record) else what
    kind = "mapping" if isinstance(shape, (_Record, dict)) else "list"
    if not isinstance(value, dict if kind == "mapping" else list):
        raise ValueError(f"{what} must be a {kind}, not {type(value).__name__}")
    if isinstance(shape, _Record):
        unknown = sorted(str(k) for k in value if k not in shape.keys)
        if unknown:
            raise ValueError(f"{what} has unknown keys {unknown}")
        absent = [k for k in shape.required if k not in value]
        if absent:
            raise ValueError(f"{what} has no {absent[0]!r}: {value!r}")
        out, prefix = {}, f"{what} {value!r}: " if shape.named else ""
        for key in (k for k in shape.keys if k in value):
            out[key] = _read(value[key], shape.keys[key], prefix + key)
            prefix = shape.named.format_map(out)
        return out
    if isinstance(shape, dict):
        ((key, item),) = shape.items()
        pairs = ((_read(k, key, f"{what} key"), _read(v, item, f"{what}[{k!r}]")) for k, v in value.items())
        return tuple(sorted(pairs))
    if isinstance(shape, tuple):
        if len(value) != len(shape):
            raise ValueError(f"{what} must be [{', '.join(name for name, _ in shape)}], not {value!r}")
        return tuple(_read(v, item, f"{what} {name}") for v, (name, item) in zip(value, shape))
    items = (_read(v, *shape, f"{what}[{i}]") for i, v in enumerate(value))
    return frozenset(items) if isinstance(shape, set) else tuple(items)


def load_schema(path: str | Path) -> SchemaSpec:
    """Parse a YAML schema into a SchemaSpec; ValueError if it has the wrong shape."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = _read(yaml.load(fh, _Loader) or {}, _SCHEMA)
    columns = tuple(ColumnSpec(c["name"], c.get("kind", CATEGORICAL), c.get("missing_tokens"),
                               tuple(Bin(*b) for b in c.get("bins", ()))) for c in doc.get("columns", ()))
    rules = tuple(ConsistencyRule(r["description"], r["conjuncts"]) for r in doc.get("consistency_rules", ()))
    return SchemaSpec(columns, doc.get("missing_tokens", DEFAULT_MISSING_TOKENS), rules, doc.get("keep", ()))


def load(schema: SchemaSpec, path: str | Path) -> tuple[ItemDictionary, TransactionDb, CleanReport]:
    """Read, clean, select and encode the survey CSV, CHUNK_ROWS rows at a time.

    The result equals load_csv, clean (with the schema's consistency rules),
    select_features (with the schema's keep list, or every non-drop column)
    and encode_rows in turn, and the report also lists the ignored header
    columns. No row is kept as a dict, and no Python loop runs per cell:
    each non-drop column has one table, a _Column, that maps its raw cells
    to small int codes in one lookup loop in C per chunk, cleans a distinct
    cell once, when its code is made, and keeps per-code arrays: the item id,
    negative where the code has none, and a match per value a rule tests.
    numpy does the rest on the codes and these arrays: it picks each row's
    consistency rule, tallies the report, rejects an empty kept answer and
    gathers and sorts the item ids of the kept rows into the database's
    arrays. Memory is bounded by the distinct cells plus the item ids plus
    one chunk of rows.

    The input is read once, so it may be a pipe: an error's line number
    comes from that read. Faults come in file order. Rows read before a
    line that is malformed, oversized or holds a NUL are checked first.
    Text is decoded in blocks of 8,192 bytes (a pipe may give fewer), and a
    non-UTF-8 byte fails its whole block, so the rows checked before its
    error are those whose lines end in an earlier block.
    """
    report = CleanReport()
    columns = {c.name: _Column(schema, c) for c in schema.columns if c.kind != DROP}
    kept = [columns[name] for name in schema.keep or columns]  # item ids follow keep order
    index: dict[str, int] = {}  # item label -> id, in first-encounter order
    chunks = []  # each chunk's (item ids, row lengths)
    with _reading(path) as reader:
        positions, report.ignored_columns, width = _header(reader, path, schema)
        ends: list[int] = []  # the line each row of the chunk ends on
        records = _records(reader, path, width, ends)
        while True:
            rows: list[list[str]] = []
            ends.clear()
            try:
                rows.extend(islice(records, CHUNK_ROWS))  # keeps the rows read before a fault
                fault = None
            except (ValueError, csv.Error) as exc:
                fault = exc
            rows_kept, cells, items = _tally(rows, positions, columns, kept, schema.consistency_rules, report)
            empty = items == EMPTY
            if empty.any():
                row, j = divmod(int(empty.argmax()), len(kept))  # the first row, then keep order
                raise ValueError(f"{path}: line {ends[rows_kept[row]]}: empty value in column {kept[j].name!r}")
            chunks.append(_encode(index, cells, kept, items))
            if fault is not None:
                raise fault
            if len(rows) < CHUNK_ROWS:
                break
    return ItemDictionary(tuple(index)), TransactionDb.from_arrays(*map(np.concatenate, zip(*chunks)), len(index)), report


MISSING, OUT_OF_RANGE, EMPTY, PENDING = range(-4, 0)  # the item id of a code with none, or none yet


class _Column(dict):
    """One schema column's table: a dict from raw cell to a small int code,
    in first-seen order, whose __missing__ cleans each distinct cell once.
    outcomes[code] is the stripped cell (None for a missing answer) and its
    cleaned value: the stripped cell itself or, in a binned column, its bin
    label (None if out of binning range). A bin label passes unchanged, so
    cleaning is idempotent. An empty cleaned value, a blank cell when "" is
    not a missing token, is an error in a kept column of a kept row: load
    names its line, and encode_rows its row. load reads two more per-code
    arrays, which lookup extends by the codes it makes and never rebuilds:
    item, the item id or why the cell has none, and matches, for each value
    a consistency rule tests, whether the stripped cell equals it."""

    def __init__(self, schema: SchemaSpec, col: ColumnSpec):
        super().__init__()
        self.name, self.bins = col.name, col.bins
        self.missing = schema.missing_tokens_for(col)
        self.bin_labels = frozenset(b.label for b in col.bins)
        self.outcomes: list[tuple[str | None, str | None]] = []
        self.item = np.zeros(0, np.intp)
        self.matches = {value: np.zeros(0, bool) for rule in schema.consistency_rules
                        for name, value in rule.conjuncts if name == col.name}

    def __missing__(self, raw: str) -> int:
        value: str | None = raw.strip()  # "White " and "White" are one answer
        cleaned = value
        if value.lower() in self.missing:
            value = cleaned = None
        elif self.bins and value not in self.bin_labels:
            try:
                cleaned = bin_numeric(float(value), self.bins)
            except ValueError:
                cleaned = None
        self.outcomes.append((value, cleaned))
        code = self[raw] = len(self.outcomes) - 1
        return code

    def lookup(self, rows: list[list[str]], pos: int) -> np.ndarray:
        """The codes of the cells at pos in rows."""
        codes = np.fromiter(map(self.__getitem__, map(itemgetter(pos), rows)), np.intp, len(rows))
        new = self.outcomes[len(self.item):]
        if new:
            items = [MISSING if v is None else OUT_OF_RANGE if c is None else PENDING if c else EMPTY for v, c in new]
            self.item = np.concatenate([self.item, np.array(items, np.intp)])
            for value, table in self.matches.items():
                self.matches[value] = np.concatenate([table, np.array([v == value for v, _ in new], bool)])
        return codes


def _tally(
    rows: list[list[str]], positions: Mapping[str, int], columns: Mapping[str, _Column], kept: Sequence[_Column],
    rules: Sequence[ConsistencyRule], report: CleanReport,
) -> tuple[np.ndarray, np.ndarray]:
    """Look up a chunk's cells, one column at a time, and add its dropped
    rows, missing cells (in every row) and out-of-range cells (in rows no
    rule drops) to report. Returns the indices of the rows no rule drops
    and their (row x kept column) code matrix and item id matrix."""
    codes = {name: columns[name].lookup(rows, pos) for name, pos in positions.items()}
    # A row's rule is the first whose every conjunct matches its stripped cells.
    rule = np.full(len(rows), len(rules))
    for i in reversed(range(len(rules))):
        hit = np.ones(len(rows), bool)
        for name, value in rules[i].conjuncts:
            hit &= columns[name].matches[value][codes[name]]
        rule[hit] = i
    for r, count in zip(rules, np.bincount(rule, minlength=len(rules)).tolist()):
        if count:  # as_text prints every key
            report.rows_dropped[r.description] += count
    rows_kept = np.flatnonzero(rule == len(rules))
    for name, code in codes.items():
        for tally, reason, at in ((report.blanked_cells, MISSING, code),
                                  (report.out_of_range, OUT_OF_RANGE, code[rows_kept])):
            count = int(np.count_nonzero(columns[name].item[at] == reason))
            if count:
                tally[name] += count
    cells = np.empty((len(rows_kept), len(kept)), np.intp)
    items = np.empty_like(cells)
    for j, col in enumerate(kept):
        cells[:, j] = codes[col.name][rows_kept]
        items[:, j] = col.item[cells[:, j]]
    return rows_kept, cells, items


def _encode(
    index: dict[str, int], cells: np.ndarray, kept: Sequence[_Column], items: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The item ids of a (kept rows x kept columns) code matrix, row after
    row and sorted in each, in the smallest unsigned dtype for the ids so
    far, and each row's count. items is the matrix looked up; a PENDING
    label gets the next id in first-encounter order, by row, then in keep
    order, in items and its column's table; codes of one label share it."""
    pending = np.flatnonzero(items == PENDING)  # row-major, so in first-encounter order
    if len(pending):
        col_of, code_of = pending % len(kept), cells.ravel()[pending]
        _, first, key_of = np.unique(code_of * len(kept) + col_of, return_index=True, return_inverse=True)
        ids = np.empty(len(first), np.intp)
        for k in np.argsort(first).tolist():  # each (code, column) key in first-encounter order
            col, code = kept[col_of[first[k]]], int(code_of[first[k]])
            ids[k] = col.item[code] = index.setdefault(f"{col.name}_{col.outcomes[code][1]}", len(index))
        items.flat[pending] = ids[key_of]
    items.sort(axis=1)
    labelled = items >= 0
    return items[labelled].astype(np.min_scalar_type(max(0, len(index) - 1))), np.count_nonzero(labelled, axis=1)


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
    the header included, becomes a ValueError naming the file and the line,
    and so does a NUL byte, which csv.reader passes from Python 3.11 on."""
    def lines(fh) -> Iterator[str]:
        for line_num, line in enumerate(fh, 1):
            if "\x00" in line:
                raise ValueError(f"{path}: line {line_num}: line contains NUL")
            yield line

    # utf-8-sig drops the byte-order mark that spreadsheet exports put
    # before the first header name.
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(lines(fh))
        try:
            yield reader
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:  # raised per decode block, so add its line ends before the byte
            line = reader.line_num + 1 + exc.object.count(b"\n", 0, exc.start)
            raise ValueError(f"{path}: line {line} is not UTF-8: {exc.reason}") from exc


def _header(reader, path: str | Path, schema: SchemaSpec) -> tuple[dict[str, int], tuple[str, ...], int]:
    """Read the header: the position of each non-drop schema column, the
    header columns absent from the schema, and the header's width."""
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file, no header")
    header = [name.strip() for name in header]  # as cells are: "q9 " is q9
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


def _records(reader, path: str | Path, width: int, ends: list[int] | None = None) -> Iterator[list[str]]:
    """The rows after the header, blank lines skipped; a row whose width is
    not the header's is a ValueError. The line each row ends on is appended
    to ends, if given, before the row is yielded."""
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise ValueError(f"{path}: malformed CSV line {reader.line_num}")
        if ends is not None:
            ends.append(reader.line_num)
        yield row


def bin_numeric(value: float, bins: Sequence[Bin]) -> str:
    """Label of the bin holding value. Bins are half-open: bin i covers
    [lower_i, lower_{i+1}) and the last bin [lower, upper], so a value
    between two bins, such as an age of 29.5, falls in the lower one."""
    if bins and bins[0].lower <= value <= bins[-1].upper:
        for b in reversed(bins):
            if b.lower <= value:
                return b.label
    raise ValueError(f"out of binning range: {value}")


def clean(
    rows: Sequence[Mapping[str, str]],
    schema: SchemaSpec,
    consistency: Sequence[ConsistencyRule] = (),
) -> tuple[list[dict[str, str]], CleanReport]:
    """Strip cells, blank missing ones, drop contradictory rows, bin numeric columns.

    Each cell is cleaned through its column's table, the _Column that load
    uses too, so a distinct cell is cleaned once per column. Missing
    answers simply disappear from the row (no "missing" item), so
    downstream support denominators stay "all respondents". Rules test the
    stripped cells before binning. Cleaning is idempotent: already-binned
    labels pass through unchanged.
    """
    report = CleanReport()
    columns = {c.name: _Column(schema, c) for c in schema.columns}
    cleaned: list[dict[str, str]] = []
    for row in rows:
        stripped: dict[str, str] = {}
        values: dict[str, str | None] = {}
        for name, raw in row.items():
            col = columns[name]
            value, cleaned_value = col.outcomes[col[raw]]
            if value is None:
                report.blanked_cells[name] += 1
            else:
                stripped[name], values[name] = value, cleaned_value
        rule = next((r for r in consistency if all(stripped.get(col) == value for col, value in r.conjuncts)), None)
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

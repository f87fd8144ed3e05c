"""Seeded survey inputs for the electmine benchmark.

Two generators, both pure functions of the seed (same seed, same bytes):

* ``spae_csv``: respondents on the ``configs/spae2022.yaml`` schema, with
  skewed answers, correlated q39/q40/q41 confidence answers, all three
  missing-token spellings, a header column the schema does not know, rows
  that trip the mail-voter consistency rule and a few out-of-range ages, so
  every ``CleanReport`` counter is non-zero.
* ``oracle_csv``: respondents on the 6-attribute, 3-value schema in
  ``oracle6.yaml`` (18 items), driven by one latent factor so that rules
  pass the default confidence and lift thresholds.

Each also returns the cleaned transactions it expects electmine to build,
as a boolean respondent x "attribute_value" matrix, so the benchmark can
recount rule metrics independently of the program under test.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

MISSING_SPELLINGS = ("", "NA", "nan")
EXTRA_COLUMN = "caseid"  # in the export, not in the schema: ignored on load

# Answer distributions. Skewed on purpose: survey answers pile up on one or
# two options, which is what makes the itemset lattice deep.
RACE = (("White", 0.62), ("Black", 0.14), ("Hispanic", 0.13), ("Asian", 0.06), ("Other", 0.05))
INCOME = (("Under 20k", 0.12), ("20k-40k", 0.18), ("40k-60k", 0.18), ("60k-80k", 0.16),
          ("80k-100k", 0.13), ("100k-150k", 0.13), ("Over 150k", 0.10))
GENDER = (("Woman", 0.51), ("Man", 0.47), ("Other", 0.02))
LOCATION = (("Suburban", 0.42), ("Urban", 0.30), ("Rural", 0.28))
NEWSINT = (("Most of the time", 0.38), ("Some of the time", 0.33), ("Only now and then", 0.17),
           ("Hardly at all", 0.12))
Q4 = (("In person on Election Day", 0.45), ("In person before Election Day", 0.25),
      ("Voted by mail (or absentee)", 0.30))
MAIL = 2  # index of the mail answer in Q4
Q5 = (("Very easy", 0.48), ("Fairly easy", 0.34), ("Somewhat difficult", 0.11),
      ("Very difficult", 0.07))
Q9 = (("No", 0.74), ("Yes", 0.26))
Q12 = (("Not at all", 0.50), ("Less than 10 minutes", 0.28), ("10-30 minutes", 0.14),
       ("31 minutes - 1 hour", 0.05), ("More than an hour", 0.03))
OVER_AN_HOUR = 4  # index of the answer the consistency rule forbids for mail voters
CONFIDENCE = (("Very confident", 0.46), ("Somewhat confident", 0.32), ("Not too confident", 0.13),
              ("Not at all confident", 0.09))
Q55 = (("No", 0.68), ("Yes", 0.32))

# Probability that q39, q40 and q41 copy the respondent's latent trust level
# instead of drawing independently: this is what makes real rules exist.
TRUST_COPY = {"q39": 0.70, "q40": 0.62, "q41": 0.56}
# Black respondents are more often urban: gives minority-tagged rules.
URBAN_IF_BLACK = 0.62
MAIL_OVER_AN_HOUR = 0.03  # mail voters who still report a long wait (row dropped)
MISSING_RATE = 0.02  # per cell, on the columns below
MISSING_COLUMNS = ("income", "newsint", "q5", "q9", "q39", "q40", "q41", "q55", "location")
OUT_OF_RANGE_RATE = 0.004
OUT_OF_RANGE_AGES = (12, 15, 17, 121, 150, 999)
AGE_BINS = ((18, 29, "18-29"), (30, 44, "30-44"), (45, 64, "45-64"), (65, 120, "65+"))

# Column order of the generated export (the schema's keep list decides the
# encoding order, not this).
SPAE_HEADER = (EXTRA_COLUMN, "race", "income", "gender", "age", "location", "newsint", "q4", "q5",
               "q9", "q12", "q39", "q40", "q41", "q55")


@dataclass(frozen=True)
class Generated:
    """One generated input file and the cleaned transactions it should yield."""

    data: bytes
    rows: int  # data rows in the CSV (header excluded)
    labels: tuple[str, ...]  # "attribute_value" item labels, columns of `matrix`
    matrix: np.ndarray  # bool, kept respondents x labels


def _choice(rng: np.random.Generator, dist, n: int) -> np.ndarray:
    """n draws of answer indices from a ((label, p), ...) distribution."""
    p = np.array([w for _, w in dist], dtype=float)
    return np.searchsorted(np.cumsum(p / p.sum()), rng.random(n), side="right").clip(0, len(p) - 1)


def _csv_bytes(header, columns: list[list[str]]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buf.getvalue().encode("utf-8")


def _truth(answers: dict[str, tuple[np.ndarray, tuple[str, ...]]], present: dict[str, np.ndarray],
           kept: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """One-hot matrix of the answers that survive cleaning, rows in `kept`."""
    labels: list[str] = []
    cols: list[np.ndarray] = []
    for attr, (idx, values) in answers.items():
        for v, value in enumerate(values):
            col = (idx == v) & present[attr]
            if col[kept].any():
                labels.append(f"{attr}_{value}")
                cols.append(col[kept])
    return tuple(labels), np.stack(cols, axis=1)


def spae_csv(seed: int, rows: int) -> Generated:
    """A spae2022-schema survey export of `rows` respondents."""
    rng = np.random.default_rng([seed, 2022])
    n = rows
    idx: dict[str, np.ndarray] = {}
    idx["race"] = _choice(rng, RACE, n)
    idx["income"] = _choice(rng, INCOME, n)
    idx["gender"] = _choice(rng, GENDER, n)
    idx["location"] = _choice(rng, LOCATION, n)
    black = idx["race"] == 1
    urban = rng.random(n) < URBAN_IF_BLACK
    idx["location"] = np.where(black, np.where(urban, 1, idx["location"]), idx["location"])
    idx["newsint"] = _choice(rng, NEWSINT, n)
    idx["q4"] = _choice(rng, Q4, n)
    idx["q5"] = _choice(rng, Q5, n)
    idx["q9"] = _choice(rng, Q9, n)
    idx["q12"] = _choice(rng, Q12, n)
    trust = _choice(rng, CONFIDENCE, n)
    for q, copy in TRUST_COPY.items():
        idx[q] = np.where(rng.random(n) < copy, trust, _choice(rng, CONFIDENCE, n))
    idx["q55"] = _choice(rng, Q55, n)

    present = {attr: np.ones(n, dtype=bool) for attr in idx}
    # Mail voters skip the wait-time question, except a few who contradict
    # themselves and trip the schema's consistency rule.
    mail = idx["q4"] == MAIL
    long_wait = rng.random(n) < MAIL_OVER_AN_HOUR
    idx["q12"] = np.where(mail & long_wait, OVER_AN_HOUR, idx["q12"])
    present["q12"] = ~mail | long_wait
    for attr in MISSING_COLUMNS:
        present[attr] &= rng.random(n) >= MISSING_RATE
    # Any missing cell may be spelled any of the three ways.
    spelling = rng.integers(0, len(MISSING_SPELLINGS), size=(n, len(SPAE_HEADER)))

    ages = rng.integers(18, 91, size=n)
    ages = np.where(rng.random(n) < 0.25, rng.integers(18, 36, size=n), ages)
    bad_age = rng.random(n) < OUT_OF_RANGE_RATE
    ages = np.where(bad_age, rng.choice(OUT_OF_RANGE_AGES, size=n), ages)

    values = {
        "race": RACE, "income": INCOME, "gender": GENDER, "location": LOCATION, "newsint": NEWSINT,
        "q4": Q4, "q5": Q5, "q9": Q9, "q12": Q12, "q39": CONFIDENCE, "q40": CONFIDENCE,
        "q41": CONFIDENCE, "q55": Q55,
    }
    columns: list[list[str]] = []
    for c, name in enumerate(SPAE_HEADER):
        if name == EXTRA_COLUMN:
            columns.append([str(100000 + i) for i in range(n)])
        elif name == "age":
            columns.append([str(a) for a in ages.tolist()])
        else:
            labels = np.array([v for v, _ in values[name]], dtype=object)
            cells = labels[idx[name]]
            missing = np.array(MISSING_SPELLINGS, dtype=object)[spelling[:, c]]
            columns.append(np.where(present[name], cells, missing).tolist())
    data = _csv_bytes(SPAE_HEADER, columns)

    answers = {name: (idx[name], tuple(v for v, _ in values[name])) for name in values}
    age_idx = np.full(n, -1)
    for b, (lo, hi, _) in enumerate(AGE_BINS):
        age_idx[(ages >= lo) & (ages <= hi)] = b
    answers["age"] = (age_idx, tuple(label for _, _, label in AGE_BINS))
    present["age"] = age_idx >= 0
    kept = ~(mail & present["q12"] & (idx["q12"] == OVER_AN_HOUR))
    labels, matrix = _truth(answers, present, kept)
    return Generated(data, n, labels, matrix)


ORACLE_ATTRIBUTES = ("p1", "p2", "p3", "p4", "p5", "p6")
ORACLE_VALUES = (("lo", 0.50), ("mid", 0.30), ("hi", 0.20))
# Probability that each attribute copies the latent level.
ORACLE_COPY = (0.73, 0.63, 0.53, 0.48, 0.38, 0.28)


def oracle_csv(seed: int, rows: int) -> Generated:
    """Respondents on the oracle6.yaml schema: 6 attributes x 3 values."""
    rng = np.random.default_rng([seed, 6])
    latent = _choice(rng, ORACLE_VALUES, rows)
    idx = {
        attr: np.where(rng.random(rows) < copy, latent, _choice(rng, ORACLE_VALUES, rows))
        for attr, copy in zip(ORACLE_ATTRIBUTES, ORACLE_COPY)
    }
    values = tuple(v for v, _ in ORACLE_VALUES)
    names = np.array(values, dtype=object)
    data = _csv_bytes(ORACLE_ATTRIBUTES, [names[idx[a]].tolist() for a in ORACLE_ATTRIBUTES])
    present = {a: np.ones(rows, dtype=bool) for a in ORACLE_ATTRIBUTES}
    labels, matrix = _truth({a: (idx[a], values) for a in ORACLE_ATTRIBUTES}, present,
                            np.ones(rows, dtype=bool))
    return Generated(data, rows, labels, matrix)


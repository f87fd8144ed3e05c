from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from support import ORACLE_SCHEMA, SPAE_SCHEMA, gen


class Input(NamedTuple):
    csv: Path
    schema: Path

    @property
    def args(self) -> list[str]:
        return ["--input", str(self.csv), "--schema", str(self.schema)]


def _words(folder: Path, name: str, names: list[str], values: np.ndarray) -> Input:
    """name.csv of the cells "v<value>" under the header names, and name.yaml naming each column."""
    (folder / f"{name}.csv").write_text(",".join(names) + "\n" + "".join(",".join(f"v{v}" for v in row) + "\n"
                                                                          for row in values))
    (folder / f"{name}.yaml").write_text("columns:\n" + "".join(f"  - name: {n}\n" for n in names))
    return Input(folder / f"{name}.csv", folder / f"{name}.yaml")


@pytest.fixture(scope="session")
def inputs(tmp_path_factory) -> dict[str, Input]:
    """Every input the suite reads, written once: the benchmark's seed-1 4,000- and 50,000-row inputs
    and verify-oracle input (2,000 rows of 18 items); many, 20,000 rows of 8 columns of 500 values
    at weights 1/sqrt(k), so about 4,000 labels that reach load in many of its chunks; wide, 3,000
    rows of 26 columns of 5 values, four of them correlated."""
    folder = tmp_path_factory.mktemp("inputs")
    for name, data in (("spae", gen.spae_csv(1, 4000)), ("spae50k", gen.spae_csv(1, 50000)),
                       ("oracle", gen.oracle_csv(1, 2000))):
        (folder / f"{name}.csv").write_bytes(data.data)
    rng = np.random.default_rng(11)
    weights = 1 / np.sqrt(np.arange(1, 501))
    many = rng.choice(500, size=(20000, 8), p=weights / weights.sum())
    rng = np.random.default_rng(7)
    factor, wide = rng.integers(0, 5, 3000), rng.integers(0, 5, (3000, 26))
    wide[:, :4] = np.where(rng.random((3000, 4)) < 0.8, factor[:, None], wide[:, :4])
    return {"spae": Input(folder / "spae.csv", SPAE_SCHEMA), "spae50k": Input(folder / "spae50k.csv", SPAE_SCHEMA),
            "oracle": Input(folder / "oracle.csv", ORACLE_SCHEMA),
            "many": _words(folder, "many", [f"c{j}" for j in range(8)], many),
            "wide": _words(folder, "wide", [f"c{j:02d}" for j in range(26)], wide)}

"""The oracle's fingerprint: its results on a fixed set of instances.

Run from the repository root to rewrite oracle_fingerprint.json beside this
file:

    PYTHONPATH=src python tests/oracle_fingerprint.py

test_oracle.py compares enumerate_solutions with the file on every instance.
A change that means to alter the oracle's results rewrites the file and says
why in CHANGES.md; any other change leaves it as it is.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import numpy as np

from icpkit.core import IcpInstance
from icpkit.generator import F_FAMILIES, MATRIX_FAMILIES, GeneratorSpec, generate_planted
from icpkit.oracle import OracleResult, enumerate_solutions
from support import small_integer_instances

PATH = Path(__file__).resolve().with_name("oracle_fingerprint.json")


def instances():
    """(label, instance) pairs: generated families, 512 isolated solutions, and small integer data."""
    for matrix_family in MATRIX_FAMILIES:
        for f_family in F_FAMILIES:
            for n in (3, 8, 12):
                for seed in range(3):
                    spec = GeneratorSpec(n=n, seed=seed, matrix_family=matrix_family, f_family=f_family, gamma=0.5)
                    yield f"{matrix_family}/{f_family}/n{n}/s{seed}", generate_planted(spec)[0]
    # The benchmark's oracle_many construction at seed 1: A = -diag(u), b = v, f = 0.
    rng = np.random.default_rng([1, 2])
    u, v = rng.uniform(0.5, 2.0, 9), rng.uniform(0.5, 2.0, 9)
    yield "isolated/n9", IcpInstance(A=-np.diag(u), b=v)
    # The same construction with b = 1e-7 v: its 16 solutions lie between
    # 2.5e-8 and 4e-7 apart, so a wider DEDUP_RADIUS or TIGHT_TOL shows.
    yield "isolated/n4/close", IcpInstance(A=-np.diag(u[:4]), b=1e-7 * v[:4])
    # The first 30 take the tree and send unstable subtrees to the full path,
    # with singular subsystems; from k = 60 on, I - C is singular and the
    # full path runs whole.
    small = list(islice(small_integer_instances(5), 70))
    for k in [*range(30), *range(60, 70)]:
        yield f"small_integer/n5/k{k}", small[k]


def record(result: OracleResult) -> dict:
    """result as JSON, with each solution as indices into its distinct entries, stored as float.hex to keep every bit."""
    values = list(dict.fromkeys(float(x).hex() for sol in result.solutions for x in sol))
    index = {v: i for i, v in enumerate(values)}
    return {
        "values": values,
        "solutions": [[index[float(x).hex()] for x in sol] for sol in result.solutions],
        "flags": result.degenerate_flags,
        "singular_skipped": result.singular_skipped,
        "subsets_tested": result.subsets_tested,
    }


def main() -> None:
    rows = [{"instance": label, **record(enumerate_solutions(inst))} for label, inst in instances()]
    # One instance per line keeps a changed result on its own diff line.
    PATH.write_text("[\n" + ",\n".join(json.dumps(row, separators=(",", ":")) for row in rows) + "\n]\n")


if __name__ == "__main__":
    main()

"""The two on-disk formats: instance files and result rows.

Instance files are strict JSON with keys ``n``, ``A`` (row-major n*n numbers),
``b``, ``f`` ({"type": "zero"} or {"type": "affine", "C": ..., "d": ...}) plus
optional ``planted``, ``seed`` and a free-form ``spec`` echo.  Every number
must be finite: non-finite tokens are rejected, and so is a literal such as
``1e400`` that overflows a float.  Floats are serialized as Python's shortest
round-trip decimals, so save/load reproduces residual evaluations bit for bit.

Result rows are ``ResultRow`` records, one per (instance, formulation, point),
written as CSV under the ``RESULT_COLUMNS`` header or as a JSON list of
objects with those keys in that order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .core import AffineMap, IcpInstance, ZeroMap

# ---------------------------------------------------------------------------
# instance files


def _reject_constant(token: str):
    raise ValueError(f"non-finite number token {token!r} is not allowed in instance files")


def _number_list(doc, key: str, length: int) -> np.ndarray:
    if key not in doc:
        raise ValueError(f"field {key!r} is missing")
    values = doc[key]
    if not isinstance(values, list) or len(values) != length:
        raise ValueError(f"field {key!r} must be a list of {length} numbers")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ValueError(f"field {key!r} must contain numbers only")
    try:
        array = np.array(values, dtype=float)
    except OverflowError:
        raise ValueError(f"field {key!r} has an integer too large for a float") from None
    # Non-finite tokens never parse, so only a literal that overflows lands here.
    if not np.all(np.isfinite(array)):
        raise ValueError(f"field {key!r} has a non-finite number: a literal out of the float range")
    return array


@dataclass
class LoadedInstance:
    instance_id: str
    instance: IcpInstance
    planted: np.ndarray | None = None


def load_instance(path: str) -> LoadedInstance:
    """Read and validate an instance file; its id is the file name's stem."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except RecursionError:
            raise ValueError("instance file nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("instance file must hold a JSON object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"field 'n' must be a positive integer, got {n!r}")
    a = _number_list(doc, "A", n * n).reshape(n, n)
    b = _number_list(doc, "b", n)
    f_doc = doc.get("f")
    if not isinstance(f_doc, dict) or "type" not in f_doc:
        raise ValueError("field 'f' must be an object with a 'type' key")
    if f_doc["type"] == "zero":
        f = ZeroMap()
    elif f_doc["type"] == "affine":
        f = AffineMap(_number_list(f_doc, "C", n * n).reshape(n, n), _number_list(f_doc, "d", n))
    else:
        raise ValueError(f"unknown implicit map type {f_doc['type']!r}")
    planted = _number_list(doc, "planted", n) if "planted" in doc else None
    seed = doc.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise ValueError(f"field 'seed' must be an integer, got {seed!r}")
    spec = doc.get("spec")
    if spec is not None and not isinstance(spec, dict):
        raise ValueError("field 'spec' must be an object")
    stem = os.path.splitext(os.path.basename(path))[0]
    return LoadedInstance(stem, IcpInstance(A=a, b=b, f=f), planted)


def save_instance(
    path: str,
    inst: IcpInstance,
    planted: np.ndarray | None = None,
    seed: int | None = None,
    spec_echo: dict | None = None,
) -> None:
    doc: dict = {
        "n": inst.n,
        "A": inst.A.flatten().tolist(),
        "b": inst.b.tolist(),
    }
    if isinstance(inst.f, AffineMap):
        doc["f"] = {"type": "affine", "C": inst.f.C.flatten().tolist(), "d": inst.f.d.tolist()}
    elif isinstance(inst.f, ZeroMap):
        doc["f"] = {"type": "zero"}
    else:
        raise ValueError(f"implicit map {type(inst.f).__name__} has no file representation")
    if planted is not None:
        doc["planted"] = np.asarray(planted, dtype=float).tolist()
    if seed is not None:
        doc["seed"] = int(seed)
    if spec_echo is not None:
        doc["spec"] = spec_echo
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# result rows


@dataclass
class ResultRow:
    instance_id: str
    n: int
    formulation: str
    point_source: str
    residual_inf: float
    is_solution: bool
    iterations: int | None
    wall_ms: float

    def as_record(self) -> dict:
        return {**vars(self), "residual_inf": json_float(self.residual_inf)}

    def as_csv_fields(self) -> tuple:
        """Cells for csv.writer, which writes str(value), and None as an empty cell."""
        cells = {**vars(self), "is_solution": str(self.is_solution).lower(), "wall_ms": f"{self.wall_ms:.3f}"}
        return tuple(cells.values())


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def json_float(x: float):
    """``x`` as a JSON number, or None (null) when it is not finite."""
    return float(x) if math.isfinite(x) else None


def write_rows(rows: list[ResultRow], fmt: str, out_path: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(row.as_csv_fields() for row in rows)
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps([row.as_record() for row in rows], indent=2, allow_nan=False) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)

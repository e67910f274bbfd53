import csv
import errno
import io
import json
import os
import subprocess
import sys
import threading
from dataclasses import MISSING, fields

import numpy as np
import pytest

import icpkit.cli as cli
from icpkit.cli import _collect_points, _draw_scalings, build_parser, main, run_verification
from icpkit.core import AffineMap, IcpInstance, ImplicitMap, ToleranceConfig, ZeroMap, is_solution
from icpkit.formats import RESULT_COLUMNS, LoadedInstance, ResultRow, load_instance, save_instance, write_rows
from icpkit.generator import F_FAMILIES, MATRIX_FAMILIES, GeneratorSpec, generate_planted
from icpkit.linalg import DiagonalScaling
from icpkit.oracle import OracleResult, enumerate_solutions, match
from icpkit.residuals import DELTA_CATALOG, delta_residual, natural_residual, scaled_residual
from icpkit.solver import SolverConfig, projection_iterate


def run_icpkit(*args, **kwargs):
    """Run `python -m icpkit` in a fresh process, as a shell starts it: stdout
    is buffered, any warning is an error, and a hang fails after 60 s."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONWARNINGS"] = "error"
    return subprocess.run([sys.executable, "-m", "icpkit", *args], env=env, timeout=60, **kwargs)


def read_within(read, seconds):
    """read() on another thread; fails if it has not returned after seconds."""
    result = []
    reader = threading.Thread(target=lambda: result.append(read()), daemon=True)
    reader.start()
    reader.join(seconds)
    assert result, f"no read returned within {seconds} s"
    return result[0]


def gen_args(path, seed=7, n=4, f_family="contractive_affine", active=0.5):
    return [
        "gen",
        "--n",
        str(n),
        "--seed",
        str(seed),
        "--f-family",
        f_family,
        "--gamma",
        "0.5",
        "--active-fraction",
        str(active),
        "--out",
        str(path),
    ]


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(gen_args(a)) == 0
    assert main(gen_args(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_invalid_spec(tmp_path):
    assert main(gen_args(tmp_path / "x.json", n=0)) == 2


@pytest.mark.parametrize("argv", [["gen", "--out", "x.json"], ["verify", "--gen", "1", "--out-path", "rows.csv"]])
def test_generator_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys, argv):
    # numpy raises MemoryError (as _ArrayMemoryError) when an n x n matrix
    # does not fit, as at --n 100000; the stub raises it without allocating.
    def out_of_memory(spec):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("icpkit.cli.generate_planted", out_of_memory)
    assert main(argv + ["--n", "100000"]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 74.5 GiB\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["gen", "--n", "3", "--out"], ["verify", "--gen", "1", "--out-path"]])
def test_negative_seed_is_named(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + [str(out), "--seed", "-5"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -5\n"
    assert not out.exists()


def test_round_trip_preserves_residuals(tmp_path):
    spec = GeneratorSpec(n=6, seed=3, matrix_family="dense", f_family="contractive_affine",
                         gamma=0.6, active_fraction=0.5)
    inst, planted, _ = generate_planted(spec)
    path = tmp_path / "inst.json"
    save_instance(str(path), inst, planted=planted, seed=3)
    loaded = load_instance(str(path))
    assert loaded.instance_id == "inst"
    assert np.array_equal(loaded.planted, planted)
    rng = np.random.default_rng(0)
    for _ in range(10):
        r = rng.uniform(-3.0, 3.0, 6)
        assert np.array_equal(natural_residual(loaded.instance, r), natural_residual(inst, r))


def test_load_rejects_malformed_and_nonfinite(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_instance(str(bad))

    nonfinite = tmp_path / "nan.json"
    nonfinite.write_text('{"n": 1, "A": [NaN], "b": [0.0], "f": {"type": "zero"}}')
    with pytest.raises(ValueError):
        load_instance(str(nonfinite))

    inconsistent = tmp_path / "short.json"
    inconsistent.write_text('{"n": 2, "A": [1.0, 0.0, 0.0, 1.0], "b": [0.0], "f": {"type": "zero"}}')
    with pytest.raises(ValueError):
        load_instance(str(inconsistent))


@pytest.mark.parametrize("command", ["oracle", "solve", "verify"])
def test_integer_too_large_for_a_float_is_a_parse_error(tmp_path, capsys, command):
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 1, "A": [1' + "0" * 400 + '], "b": [0.0], "f": {"type": "zero"}}')
    assert main([command, str(huge)]) == 2
    assert "error: field 'A'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle", "solve", "verify"])
def test_deeply_nested_file_is_a_parse_error(tmp_path, capsys, command):
    # json.load recurses once per bracket, so deep nesting exhausts the stack.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    assert main([command, str(deep)]) == 2
    assert capsys.readouterr().err == "error: instance file nests too deeply\n"


@pytest.mark.parametrize("command", ["oracle", "solve", "verify"])
@pytest.mark.parametrize("field", ["A", "b", "C", "d"])
def test_missing_field_is_named(tmp_path, capsys, command, field):
    path = tmp_path / "inst.json"
    save_instance(str(path), IcpInstance(A=np.eye(2), b=np.ones(2), f=AffineMap(0.5 * np.eye(2), np.zeros(2))))
    doc = json.loads(path.read_text())
    del (doc["f"] if field in ("C", "d") else doc)[field]
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: field '{field}' is missing\n"


@pytest.mark.parametrize("command", ["oracle", "solve", "verify"])
@pytest.mark.parametrize("field", ["A", "b", "C", "d", "planted"])
def test_overflowing_literal_is_a_parse_error(tmp_path, capsys, command, field):
    # json reads 1e400 as inf, which no field of an instance file may hold.
    values = {"A": "2, 0, 0, 2", "b": "-1, 1", "C": "0.5, 0, 0, 0.5", "d": "0, 0", "planted": "0.5, 0"}
    values[field] = "1e400" + values[field][values[field].index(","):]
    path = tmp_path / "inst.json"
    path.write_text('{"n": 2, "A": [%(A)s], "b": [%(b)s], "f": {"type": "affine", "C": [%(C)s], "d": [%(d)s]}, '
                    '"planted": [%(planted)s]}' % values)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: field '{field}' has a non-finite number")


VALID_DOC = '{"n": 1, "A": [2], "b": [-1], "f": {"type": "zero"}, "seed": 3, "spec": {}}'


@pytest.mark.parametrize("command", ["oracle", "solve", "verify"])
@pytest.mark.parametrize(
    "old, new, message",
    [
        (VALID_DOC, "[1, 2]", "instance file must hold a JSON object"),
        ('"n": 1', '"n": 0', "field 'n' must be a positive integer, got 0"),
        ('"n": 1', '"n": true', "field 'n' must be a positive integer, got True"),
        ('"n": 1', '"n": "2"', "field 'n' must be a positive integer, got '2'"),
        ('{"type": "zero"}', '"zero"', "field 'f' must be an object with a 'type' key"),
        ('{"type": "zero"}', "{}", "field 'f' must be an object with a 'type' key"),
        ('"zero"}', '"cubic"}', "unknown implicit map type 'cubic'"),
        ("[2]", "[true]", "field 'A' must contain numbers only"),
        ("[-1]", '["1"]', "field 'b' must contain numbers only"),
        ('"seed": 3', '"seed": 3.0', "field 'seed' must be an integer, got 3.0"),
        ('"spec": {}', '"spec": [1]', "field 'spec' must be an object"),
    ],
)
def test_load_rejections_are_one_error_line(tmp_path, capsys, command, old, new, message):
    path = tmp_path / "inst.json"
    path.write_text(VALID_DOC)
    load_instance(str(path))  # each case breaks one part of a valid file
    path.write_text(VALID_DOC.replace(old, new))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Key order, indent=2, the trailing newline and shortest round-trip floats.
SAVED_INSTANCE = """{
  "n": 2,
  "A": [
    4.0,
    0.1,
    -0.3,
    2.0
  ],
  "b": [
    -1.0,
    0.3333333333333333
  ],
  "f": {
    "type": "affine",
    "C": [
      0.25,
      0.0,
      1e-17,
      -0.5
    ],
    "d": [
      0.1,
      0.0
    ]
  },
  "planted": [
    0.25,
    0.0
  ],
  "seed": 7,
  "spec": {
    "rng": "numpy-pcg64",
    "active_set": [
      0
    ]
  }
}
"""


def test_save_instance_writes_the_pinned_text(tmp_path):
    inst = IcpInstance(A=[[4.0, 0.1], [-0.3, 2.0]], b=[-1.0, 1 / 3],
                       f=AffineMap([[0.25, 0.0], [1e-17, -0.5]], [0.1, 0.0]))
    path = tmp_path / "inst.json"
    save_instance(str(path), inst, planted=np.array([0.25, 0.0]), seed=7,
                  spec_echo={"rng": "numpy-pcg64", "active_set": [0]})
    assert path.read_bytes() == SAVED_INSTANCE.encode()
    back = load_instance(str(path))
    assert np.array_equal(back.instance.A, inst.A) and np.array_equal(back.instance.b, inst.b)
    assert np.array_equal(back.instance.f.C, inst.f.C) and np.array_equal(back.instance.f.d, inst.f.d)
    assert np.array_equal(back.planted, [0.25, 0.0])

    zero = tmp_path / "zero.json"
    save_instance(str(zero), IcpInstance(A=np.eye(1), b=np.zeros(1), f=ZeroMap()))
    assert json.loads(zero.read_text()) == {"n": 1, "A": [1.0], "b": [0.0], "f": {"type": "zero"}}



class TanhMap(ImplicitMap):
    def evaluate(self, r):
        return np.tanh(r)


def test_save_instance_names_a_map_it_cannot_write(tmp_path):
    path = tmp_path / "tanh.json"
    with pytest.raises(ValueError) as exc:
        save_instance(str(path), IcpInstance(A=np.eye(2), b=np.zeros(2), f=TanhMap()))
    assert str(exc.value) == "implicit map TanhMap has no file representation"
    assert not path.exists()


def test_oracle_rejects_a_map_that_is_not_affine():
    with pytest.raises(ValueError) as exc:
        enumerate_solutions(IcpInstance(A=np.eye(2), b=np.zeros(2), f=TanhMap()))
    assert str(exc.value) == "oracle enumeration requires a zero or affine implicit map"


def test_write_rows_rejects_an_unknown_format_before_opening_the_file(tmp_path):
    path = tmp_path / "rows.xml"
    with pytest.raises(ValueError) as exc:
        write_rows([], "xml", str(path))
    assert str(exc.value) == "unknown output format 'xml'"
    assert not path.exists()


def test_verify_passes_on_sound_corpus(tmp_path):
    paths = []
    for seed in (1, 2, 3):
        p = tmp_path / f"i{seed}.json"
        assert main(gen_args(p, seed=seed)) == 0
        paths.append(str(p))
    out = tmp_path / "rows.csv"
    rc = main(["verify", *paths, "--out", "csv", "--out-path", str(out)])
    assert rc == 0

    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0].keys()) == set(RESULT_COLUMNS)
    sources = {row["point_source"] for row in rows}
    assert sources == {"planted", "oracle", "perturbed"}
    formulations = {row["formulation"] for row in rows}
    assert formulations == {"R", "Rbar", "G:identity", "G:cubic", "G:tanh", "G:asinh"}
    for row in rows:
        float(row["residual_inf"])
        assert row["is_solution"] in ("true", "false")
        if row["point_source"] in ("planted", "oracle"):
            assert float(row["residual_inf"]) <= 1e-7
            assert row["is_solution"] == "true"


def test_verify_csv_quotes_odd_instance_ids(tmp_path):
    # The instance id is the file stem, so a comma or a quote in the file
    # name must be quoted in the CSV rather than split into extra fields.
    p = tmp_path / 'a,b"c.json'
    assert main(gen_args(p, seed=9)) == 0
    out = tmp_path / "rows.csv"
    assert main(["verify", str(p), "--out-path", str(out)]) == 0
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == list(RESULT_COLUMNS)
    assert rows and all(len(row) == len(RESULT_COLUMNS) for row in rows)
    assert {row[0] for row in rows} == {'a,b"c'}


def test_verify_flags_corrupted_planted(tmp_path):
    p = tmp_path / "good.json"
    assert main(gen_args(p, seed=5)) == 0
    doc = json.loads(p.read_text())
    doc["planted"] = [x + 0.5 for x in doc["planted"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["verify", str(bad), "--out", "csv", "--out-path", str(tmp_path / "rows.csv")])
    assert rc == 1


def test_verify_reports_the_failures_of_a_point_in_check_order(tmp_path, capsys):
    # Every entry of the planted point is off by 0.5, so the oracle, which
    # skipped no subsystem, misses it first; then the point fails each check
    # on a solution: first R, then each scaling pair, then each delta.
    path = tmp_path / "bad.json"
    assert main(["gen", "--n", "4", "--seed", "5", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["planted"] = [x + 0.5 for x in doc["planted"]]
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--out-path", str(tmp_path / "rows.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "FAIL bad/planted: not among the 1 oracle solutions",
        "FAIL bad/planted: expected a solution, is_solution is false",
        "FAIL bad/planted: |R| = 9.700e-01 exceeds 1.0e-10",
        "FAIL bad/planted: scaled residual 4.360e+02 too large",
        "FAIL bad/planted: scaled residual 4.922e+02 too large",
        "FAIL bad/planted: scaled residual 2.536e+02 too large",
        "FAIL bad/planted: delta residual (identity) 1.940e+00 too large",
        "FAIL bad/planted: delta residual (cubic) 1.009e+01 too large",
        "FAIL bad/planted: delta residual (tanh) 1.295e+00 too large",
        "FAIL bad/planted: delta residual (asinh) 1.616e+00 too large",
        "10 equivalence check(s) failed",
    ]


# A = I, b = -1, f = 0 has the one solution (1, 1), where R, Rbar and G are
# exactly 0.  The points are planted and oracle (1, 1), then the perturbed
# (1 + 1e-6, 1), (1, 1.01) and (1.5, 1), where R = (0.5, 0) and G = (-1, 0).
# Each case changes one residual at one component of one point, so that
# exactly one check fires.
@pytest.mark.parametrize(
    "name, point, component, value, line",
    [
        ("natural_residual", 4, 0, 1e-11, "perturbed: non-solution with |R| = 1.000e-11 <= 1.0e-10"),
        ("scaled_residual", 0, 0, 1e-300, "planted: exact-zero disagreement between R and Rbar"),
        ("scaled_residual", 4, 1, 1.0, "perturbed: componentwise zero sets of R and Rbar differ"),
        ("delta_residual", 0, 0, 1e-300, "planted: R is exactly zero but G:identity is not"),
        ("delta_residual", 4, 0, 0.0, "perturbed: G:identity is exactly zero but |R| = 5.000e-01"),
    ],
)
def test_verify_reports_each_residual_disagreement(tmp_path, monkeypatch, capsys, name, point, component, value, line):
    path = tmp_path / "eye.json"
    save_instance(str(path), IcpInstance(A=np.eye(2), b=-np.ones(2), f=ZeroMap()), planted=np.ones(2))
    argv = ["verify", str(path), "--deltas", "identity", "--scalings", "1", "--out-path", str(tmp_path / "rows.csv")]
    assert main(argv) == 0
    residual = getattr(cli, name)

    def disagreeing(*args):
        out = residual(*args)
        out[point, component] = value
        return out

    monkeypatch.setattr(cli, name, disagreeing)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"FAIL eye/{line}", "1 equivalence check(s) failed"]


@pytest.mark.parametrize("skipped, code, err", [
    (0, 1, ["FAIL eye/planted: not among the 0 oracle solutions", "1 equivalence check(s) failed"]),
    # After a skipped subsystem the miss is undecided, so nothing fails.
    (3, 0, []),
])
def test_verify_fails_a_plant_that_the_oracle_misses(skipped, code, err, tmp_path, monkeypatch, capsys):
    # A = I, b = -1, f = 0 is solved by its plant (1, 1), which the oracle
    # here reports missing.
    path = tmp_path / "eye.json"
    save_instance(str(path), IcpInstance(A=np.eye(2), b=-np.ones(2), f=ZeroMap()), planted=np.ones(2))
    monkeypatch.setattr(cli, "enumerate_solutions", lambda inst: OracleResult([], [], skipped, 4))
    assert main(["verify", str(path), "--out-path", str(tmp_path / "rows.csv")]) == code
    assert capsys.readouterr().err.splitlines() == err


def test_verify_passes_a_plant_that_the_oracle_misses_by_rounding(tmp_path, capsys):
    # Rows of A and b are 2^-43, 2^24 and 2^39 times small integers, and the
    # plant (-28, 18, 62) solves the instance with exact H and F.  The
    # oracle's candidate for it fails the 1e-9 tolerances by rounding alone
    # (F_2 = -3.9e-3), so the miss is undecided and nothing fails.
    scale = np.ldexp(1.0, [-43, 24, 39])
    inst = IcpInstance(
        A=np.array([[-2.0, 1, 1], [-1, -2, 2], [-1, 2, -1]]) * scale[:, None],
        b=np.array([-1.0, 1, -2]) * scale,
        f=AffineMap(np.array([[1, -1, -1], [0, 1, 1], [1, 0, 1]]) / 4, np.array([-1.0, -2, 0])),
    )
    path = tmp_path / "scaled.json"
    save_instance(str(path), inst, planted=np.array([-28.0, 18, 62]))
    assert main(["verify", str(path), "--out-path", str(tmp_path / "rows.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_verify_verdict_on_a_plant_inside_rounding(tmp_path, capsys):
    # A = 0, b = 1e-13, f = 0, planted 2000: H F = 2e-10 fails comp_tol, and
    # |R| = 1e-13, yet G:identity and G:cubic are exactly 0.  No "is exactly
    # zero" line fires, since above_roundoff's bound 4 eps max(1, |H|, |F|)
    # = 1.8e-12 excuses it; and no plant line, since the F = 0 subsystem
    # 0 r = -1e-13 is singular, so the oracle's miss is undecided.
    path, out = tmp_path / "n1.json", tmp_path / "rows.json"
    path.write_text('{"n": 1, "A": [0], "b": [1e-13], "f": {"type": "zero"}, "planted": [2000]}')
    assert main(["verify", str(path), "--out", "json", "--out-path", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "FAIL n1/planted: expected a solution, is_solution is false",
        *["FAIL n1/perturbed: non-solution with |R| = 1.000e-13 <= 1.0e-10"] * 3,
        "4 equivalence check(s) failed",
    ]
    planted = {row["formulation"]: row["residual_inf"] for row in json.loads(out.read_text())
               if row["point_source"] == "planted"}
    assert (planted["R"], planted["G:identity"], planted["G:cubic"]) == (1e-13, 0.0, 0.0)
    result = enumerate_solutions(load_instance(str(path)).instance)
    assert result.singular_skipped == 1
    assert match(result, np.array([2000.0])) is None


def test_verify_handles_instances_without_planted(tmp_path):
    # No planted vector: oracle solutions anchor the campaign instead.
    p = tmp_path / "bare.json"
    save_instance(str(p), IcpInstance(A=np.eye(2), b=np.array([-1.0, 1.0]), f=ZeroMap()))
    out = tmp_path / "rows.csv"
    rc = main(["verify", str(p), "--out-path", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["point_source"] for row in rows} == {"oracle", "perturbed"}

    # Empty solution set and no planted vector: nothing to check, still sound.
    empty = tmp_path / "empty.json"
    save_instance(str(empty), IcpInstance(A=[[-1.0]], b=[-1.0], f=ZeroMap()))
    rc = main(["verify", str(empty), "--out-path", str(tmp_path / "none.csv")])
    assert rc == 0
    assert (tmp_path / "none.csv").read_text().strip() == ",".join(RESULT_COLUMNS)


def test_verify_parse_error_and_usage(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{]")
    assert main(["verify", str(broken)]) == 2
    assert main(["verify"]) == 2  # no inputs
    assert main(["verify", "--deltas", "sigmoid", "--gen", "1"]) == 2


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_verify_rejects_invalid_tolerance(tol, capsys):
    assert main(["verify", "--gen", "1", "--tol", tol]) == 2
    assert capsys.readouterr().err.startswith("error: --tol")


@pytest.mark.parametrize("count", ["0", "-2"])
def test_verify_rejects_scalings_below_one(count, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["verify", "--gen", "1", "--scalings", count, "--out-path", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --scalings must be >= 1, got {count}\n"
    assert not out.exists()


def test_verify_rejects_negative_gen_count(tmp_path, capsys):
    p = tmp_path / "inst.json"
    assert main(gen_args(p)) == 0
    out = tmp_path / "rows.csv"
    assert main(["verify", str(p), "--gen", "-2", "--out-path", str(out)]) == 2
    assert capsys.readouterr().err == "error: --gen must be >= 0, got -2\n"
    assert not out.exists()


def test_stacked_campaign_matches_per_point_calls():
    # The campaign evaluates each formulation once over all points of an
    # instance; every row must equal the single-point evaluation bit for bit.
    units = []
    for matrix_family in MATRIX_FAMILIES:
        for f_family in F_FAMILIES:
            spec = GeneratorSpec(n=5, seed=len(units), matrix_family=matrix_family, f_family=f_family,
                                 gamma=0.5, active_fraction=0.5)
            inst, planted, _ = generate_planted(spec)
            units.append(LoadedInstance(f"gen-{spec.seed}", inst, planted=planted))
    tol = 1e-10
    rows, _ = run_verification(units, tol, list(DELTA_CATALOG), scaling_count=3, with_solver=True)

    expected = []
    for index, unit in enumerate(units):
        inst = unit.instance
        points, _ = _collect_points(unit, with_solver=True)
        for source, point, iters in points:
            solution = is_solution(inst, point, ToleranceConfig(tol, tol))
            norms = [float(np.max(np.abs(natural_residual(inst, point))))]
            worst = 0.0
            for omega1, omega2 in _draw_scalings(inst.n, 3, index):
                worst = float(np.maximum(worst, np.max(np.abs(scaled_residual(inst, point, omega1, omega2)))))
            norms.append(worst)
            norms += [float(np.max(np.abs(delta_residual(inst, point, d)))) for d in DELTA_CATALOG.values()]
            expected += [(unit.instance_id, source, iters, np.float64(x).tobytes(), solution) for x in norms]

    assert {row.point_source for row in rows} == {"planted", "oracle", "perturbed", "solver"}
    assert all(type(row.residual_inf) is float and type(row.is_solution) is bool for row in rows)
    got = [
        (row.instance_id, row.point_source, row.iterations, np.float64(row.residual_inf).tobytes(), row.is_solution)
        for row in rows
    ]
    assert got == expected


def test_verify_generated_corpus_json_rows(tmp_path):
    out = tmp_path / "rows.json"
    rc = main([
        "verify", "--gen", "4", "--n", "5", "--seed", "40",
        "--f-family", "contractive_affine", "--out", "json", "--out-path", str(out),
    ])
    assert rc == 0
    rows = json.loads(out.read_text())
    # The row schema is part of the CLI contract: JSON keys and the CSV
    # header name the same columns in the same order.
    assert RESULT_COLUMNS == ("instance_id", "n", "formulation", "point_source", "residual_inf", "is_solution", "iterations", "wall_ms")
    assert all(tuple(row) == RESULT_COLUMNS for row in rows)
    assert {row["instance_id"] for row in rows} == {"gen-40", "gen-41", "gen-42", "gen-43"}


def test_verify_writes_one_row_per_formulation_and_point(tmp_path):
    # Each instance has one solution, so it gives the planted, the oracle's
    # and three perturbed points, plus the solver's with --solver, and each
    # point one row per formulation, of which there are 6.
    paths = [str(tmp_path / "inst4.json"), str(tmp_path / "inst12.json")]
    assert main(["gen", "--n", "4", "--seed", "1", "--out", paths[0]]) == 0
    assert main(["gen", "--n", "12", "--seed", "1", "--f-family", "contractive_affine", "--out", paths[1]]) == 0
    csv_out, json_out = tmp_path / "rows.csv", tmp_path / "rows.json"
    assert main(["verify", *paths, "--solver", "--out-path", str(csv_out)]) == 0
    assert len(csv_out.read_text().splitlines()) == 1 + 2 * 6 * 6
    argv = ["verify", "--gen", "2", "--n", "6", "--f-family", "contractive_affine", "--out", "json"]
    assert main([*argv, "--out-path", str(json_out)]) == 0
    assert len(json.loads(json_out.read_text())) == 2 * 5 * 6


def test_csv_fields_line_up_with_the_header(tmp_path):
    out = tmp_path / "rows.csv"
    rows = [
        ResultRow("i3", 3, "R", "planted", 1.5e-17, True, None, 2.25),
        ResultRow('odd,"id', 4, "Rbar", "solver", float("nan"), False, 12, 0.0625),
        ResultRow("i3", 3, "G:cubic", "perturbed", float("inf"), False, None, 1234.5),
    ]
    write_rows(rows, "csv", str(out))
    assert out.read_text() == (
        "instance_id,n,formulation,point_source,residual_inf,is_solution,iterations,wall_ms\n"
        "i3,3,R,planted,1.5e-17,true,,2.250\n"
        '"odd,""id",4,Rbar,solver,nan,false,12,0.062\n'
        "i3,3,G:cubic,perturbed,inf,false,,1234.500\n"
    )


def test_verify_solver_rows(tmp_path):
    out = tmp_path / "rows.json"
    rc = main([
        "verify", "--gen", "1", "--n", "4", "--seed", "12", "--solver",
        "--out", "json", "--out-path", str(out),
    ])
    assert rc == 0
    rows = json.loads(out.read_text())
    solver_rows = [row for row in rows if row["point_source"] == "solver"]
    assert solver_rows and all(row["iterations"] >= 0 for row in solver_rows)


def test_verify_beyond_oracle_cap_fails_but_writes_rows(tmp_path, capsys):
    # The campaign's claim rests on the oracle, so an instance it cannot
    # enumerate is not verified, even when every residual check passes.
    out = tmp_path / "rows.csv"
    rc = main(["verify", "--gen", "1", "--n", "17", "--out-path", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "FAIL gen-0: oracle unavailable (oracle handles n <= 16, got n = 17)",
        "1 equivalence check(s) failed",
    ]
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24  # planted and three perturbations, six formulations each
    assert {row["point_source"] for row in rows} == {"planted", "perturbed"}


def rows_without_wall_ms(path):
    with open(path, newline="") as fh:
        return [{k: v for k, v in row.items() if k != "wall_ms"} for row in csv.DictReader(fh)]


def subcommand_defaults(command, *required):
    """The defaults that build_parser gives the flags of one subcommand."""
    return vars(build_parser().parse_args([command, *required]))


def test_cli_defaults_are_the_librarys(tmp_path):
    spec_fields = fields(GeneratorSpec)
    for command, required in (("gen", ["--out", "x.json"]), ("verify", [])):
        defaults = subcommand_defaults(command, *required)
        assert {field.name for field in spec_fields} <= defaults.keys(), command
        for field in spec_fields:
            if field.default is not MISSING:
                assert defaults[field.name] == field.default, (command, field.name)
    solve = subcommand_defaults("solve", "inst.json")
    assert (solve["max_iters"], solve["tol"]) == (SolverConfig.max_iters, SolverConfig.resid_tol)
    assert subcommand_defaults("verify")["deltas"].split(",") == list(DELTA_CATALOG)

    inst, _, _ = generate_planted(GeneratorSpec(n=4, seed=1, f_family="contractive_affine"))
    assert np.any(inst.f.C != 0.0)
    default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
    argv = ["gen", "--n", "4", "--seed", "1", "--f-family", "contractive_affine", "--out"]
    assert main(argv + [str(default)]) == 0
    assert main(argv + [str(explicit), "--gamma", "0.5"]) == 0
    assert default.read_bytes() == explicit.read_bytes()


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_calls_sharing_the_parser_stay_independent(tmp_path):
    # The parser outlives each call, so a flag given to one call must not
    # reach the next; a fresh process builds its own parser.
    p = tmp_path / "inst.json"
    assert main(gen_args(p, seed=21)) == 0
    with_solver, plain, fresh = (tmp_path / name for name in ("solver.csv", "plain.csv", "fresh.csv"))
    assert main(["verify", str(p), "--solver", "--out-path", str(with_solver)]) == 0
    assert main(["verify", str(p), "--out-path", str(plain)]) == 0
    proc = run_icpkit("verify", str(p), "--out-path", str(fresh))
    assert proc.returncode == 0
    assert "solver" in {row["point_source"] for row in rows_without_wall_ms(with_solver)}
    rows = rows_without_wall_ms(plain)
    assert rows and "solver" not in {row["point_source"] for row in rows}
    assert rows == rows_without_wall_ms(fresh)


def test_parse_error_between_calls_changes_nothing(tmp_path, capsys):
    p = tmp_path / "inst.json"
    assert main(gen_args(p, seed=22)) == 0
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    assert main(["verify", str(p), "--out-path", str(before)]) == 0
    assert main(["verify", "--scalings", "x"]) == 2
    assert "--scalings" in capsys.readouterr().err
    assert main(["verify", str(p), "--out-path", str(after)]) == 0
    assert rows_without_wall_ms(after) == rows_without_wall_ms(before)


def test_help_is_the_same_on_every_call(capsys):
    assert main(["--help"]) == 0
    first = capsys.readouterr().out
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("usage: icpkit")


def test_solve_command(tmp_path, capsys):
    p = tmp_path / "lcp.json"
    save_instance(str(p), IcpInstance(A=[[1.0]], b=[-1.0], f=ZeroMap()))
    rc = main(["solve", str(p), "--omega", "identity"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert report["status"] == "converged"
    assert report["iterations"] == 1
    assert report["final_point"] == [1.0]
    assert report["residual_history"] == [1.0, 0.0]


def test_solve_with_a_numeric_omega_scales_every_step_by_it(tmp_path, capsys):
    p = tmp_path / "inst.json"
    assert main(["gen", "--n", "4", "--seed", "1", "--out", str(p)]) == 0
    rc = main(["solve", str(p), "--omega", "0.5"])
    report = json.loads(capsys.readouterr().out)
    cfg = SolverConfig(omega=DiagonalScaling(np.full(4, 0.5)))
    expected = projection_iterate(load_instance(str(p)).instance, np.zeros(4), cfg)
    assert rc == 0
    assert report["status"] == "converged"
    assert report["iterations"] == expected.iterations == 32
    assert report["residual_history"] == expected.residual_history


def test_solve_generated_instance_converges(tmp_path, capsys):
    p = tmp_path / "gen.json"
    assert main(gen_args(p, seed=8, n=16)) == 0
    rc = main(["solve", str(p), "--tol", "1e-8"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["final_residual"] <= 1e-8


def test_solve_divergent_case_exits_one(tmp_path, capsys):
    # Negative diagonal with identity scaling: the update blows up from zero.
    p = tmp_path / "div.json"
    save_instance(str(p), IcpInstance(A=[[-2.0]], b=[1.0], f=ZeroMap()))
    rc = main(["solve", str(p), "--omega", "identity", "--start", "10.0", "--max-iters", "200"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["status"] in ("diverged", "max_iters_reached")


def test_solve_overrelaxed_dense_instance_exits_one(tmp_path, capsys):
    # Dense instance where a uniform step of 2 is observed to blow up (seed 0).
    p = tmp_path / "dense.json"
    rc = main(["gen", "--n", "8", "--seed", "0", "--matrix-family", "dense",
               "--f-family", "zero", "--active-fraction", "0.5", "--out", str(p)])
    assert rc == 0
    rc = main(["solve", str(p), "--omega", "2", "--max-iters", "500"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["status"] in ("diverged", "max_iters_reached")


def test_solve_has_no_relaxation_flag(tmp_path, capsys):
    # The step is one positive diagonal, --omega; a scalar factor on top of it is not an option.
    p = tmp_path / "inst.json"
    assert main(["gen", "--n", "3", "--seed", "1", "--out", str(p)]) == 0
    capsys.readouterr()
    assert main(["solve", str(p), "--relaxation", "1.0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: icpkit ")
    assert captured.err.endswith("icpkit: error: unrecognized arguments: --relaxation 1.0\n")


# 1 / A_00 overflows to inf, so the default jacobi scaling is the identity.
TINY_DIAGONAL = '{"n": 1, "A": [1e-320], "b": [-1], "f": {"type": "zero"}}'


def test_solve_with_a_tiny_positive_diagonal_reports_a_status(tmp_path, capsys):
    # With the identity, each step adds about 1 to r, which never settles.
    p = tmp_path / "tiny.json"
    p.write_text(TINY_DIAGONAL)
    rc = main(["solve", str(p), "--max-iters", "50"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["status"] == "max_iters_reached"
    assert report["final_point"] == [50.0]


def test_verify_solver_with_a_tiny_positive_diagonal_writes_its_rows(tmp_path):
    # The one solution, r = 1e320, is not a float: only the solver's rows remain.
    p, out = tmp_path / "tiny.json", tmp_path / "rows.json"
    p.write_text(TINY_DIAGONAL)
    assert main(["verify", str(p), "--solver", "--out", "json", "--out-path", str(out)]) in (0, 1)
    rows = json.loads(out.read_text())
    assert [row["point_source"] for row in rows] == ["solver"] * 6


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_solve_rejects_non_finite_tolerance(tol, tmp_path, capsys):
    # With --tol inf the stop test passed at iteration 0 on a non-solution.
    p = tmp_path / "inst.json"
    assert main(["gen", "--n", "3", "--seed", "1", "--out", str(p)]) == 0
    assert main(["solve", str(p), "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: resid_tol")


def test_solve_bad_inputs(tmp_path):
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    p = tmp_path / "ok.json"
    save_instance(str(p), IcpInstance(A=np.eye(2), b=np.zeros(2)))
    assert main(["solve", str(p), "--start", "1.0"]) == 2  # wrong length


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--omega", "abc", "--omega must be 'jacobi', 'identity' or a positive number, got 'abc'"),
        ("--omega", "-1", "--omega must be 'jacobi', 'identity' or a positive number, got '-1'"),
        ("--omega", "nan", "--omega must be 'jacobi', 'identity' or a positive number, got 'nan'"),
        ("--omega", "0", "--omega must be 'jacobi', 'identity' or a positive number, got '0'"),
        ("--omega", "inf", "--omega must be 'jacobi', 'identity' or a positive number, got 'inf'"),
        ("--start", "1,2,x", "--start must be 'zero' or 2 comma-separated finite numbers, got '1,2,x'"),
        ("--start", "1,2,3", "--start must be 'zero' or 2 comma-separated finite numbers, got '1,2,3'"),
    ],
)
def test_solve_names_a_bad_flag_value(flag, value, message, tmp_path, capsys):
    p = tmp_path / "ok.json"
    save_instance(str(p), IcpInstance(A=np.eye(2), b=np.zeros(2)))
    assert main(["solve", str(p), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_solve_takes_a_subnormal_omega(tmp_path, capsys):
    p = tmp_path / "ok.json"
    save_instance(str(p), IcpInstance(A=np.eye(2), b=-np.ones(2)))
    assert main(["solve", str(p), "--omega", "1e-320", "--max-iters", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["status"] == "max_iters_reached"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_solve_rejects_a_non_finite_start(bad, tmp_path, capsys):
    # A non-finite start is a bad flag value, not a run that diverges at once.
    p = tmp_path / "ok.json"
    save_instance(str(p), IcpInstance(A=np.eye(3), b=np.zeros(3)))
    value = f"1,2,{bad}"
    assert main(["solve", str(p), "--start", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --start must be 'zero' or 3 comma-separated finite numbers, got '{value}'\n"


def test_verify_without_delta_functions_is_named(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["verify", "--gen", "1", "--deltas", ",", "--out-path", str(out)]) == 2
    assert capsys.readouterr().err == "error: --deltas: no delta function given; choose from identity, cubic, tanh, asinh\n"
    assert not out.exists()


def test_verify_rejects_a_repeated_delta_function(tmp_path, capsys):
    # Each delta function gives one G row per point; a repeated one would write its rows twice.
    out = tmp_path / "rows.csv"
    assert main(["verify", "--gen", "1", "--deltas", "identity,cubic,identity", "--out-path", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --deltas: repeated delta functions ['identity']; choose from identity, cubic, tanh, asinh\n"
    )
    assert not out.exists()


def test_oracle_near_the_largest_float_prints_no_warnings(tmp_path):
    # The one solution, about (1.5e308, 1.7e308), overflows the dedup keys w.x.
    p = tmp_path / "huge.json"
    p.write_text('{"n": 2, "A": [1e-308, 0, 0, 1e-308], "b": [-1.5, -1.7], "f": {"type": "zero"}}')
    proc = run_icpkit("oracle", str(p), capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert np.allclose(json.loads(proc.stdout)["solutions"], [[1.5e308, 1.7e308]])


def test_oracle_on_overflowing_data_reports_no_solution_without_warnings(tmp_path, capsys):
    # q = A P d + b overflows, so the full path runs.  Its row scaling brings
    # row 0 of A, 1e200, down to one magnitude with row 1, so no system is
    # singular.  The two that take row 0 from A give r_0 = 0, where
    # H_0 = -1e200.  The other two give r_0 = 1e200, whose F_0 overflows.
    # check_solution rejects all four, and none is undecided, since each has
    # an entry below -1e-9 or one that is not finite: no solution, exit 3.
    p = tmp_path / "overflow.json"
    p.write_text('{"n": 2, "A": [1e200, 0, 0, 1], "b": [0, 1], "f": {"type": "affine", "C": [0, 0, 0, 0], "d": [1e200, 0]}}')
    assert main(["oracle", str(p)]) == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["solutions"] == []
    assert report["singular_skipped"] == 0
    assert captured.err == ""


@pytest.mark.parametrize(
    "doc, flags, some",
    [
        # Near the largest float, the cubic delta of F - H overflows at the
        # perturbed points, while the solver's end point is exact.
        ('{"n": 1, "A": [1e308], "b": [-1e308], "f": {"type": "zero"}}', ["--solver"], "perturbed: G:cubic"),
        # At the solution 0, H = 1e200: R is exactly 0, but H^3 overflows.
        ('{"n": 1, "A": [1], "b": [0], "f": {"type": "affine", "C": [0], "d": [-1e200]}}', [], "oracle: G:cubic"),
        # At the planted point F = -inf, so R and Rbar are infinite as well.
        ('{"n": 1, "A": [-1e308], "b": [0], "f": {"type": "zero"}, "planted": [1e308]}', [], "perturbed: Rbar"),
    ],
    ids=["cubic_overflow", "cubic_at_a_solution", "infinite_R"],
)
def test_verify_fails_each_residual_that_is_not_finite(doc, flags, some, tmp_path, capsys):
    p, out = tmp_path / "big.json", tmp_path / "rows.json"
    p.write_text(doc)
    assert main(["verify", str(p), *flags, "--out", "json", "--out-path", str(out)]) == 1
    err = capsys.readouterr().err
    suffix = " residual is not finite"
    fails = sorted(line[len("FAIL big/") : -len(suffix)] for line in err.splitlines() if line.endswith(suffix))
    rows = json.loads(out.read_text())
    # JSON writes a residual that is not finite as null.
    not_finite = [f"{row['point_source']}: {row['formulation']}" for row in rows if row["residual_inf"] is None]
    assert fails == sorted(not_finite)
    assert some in fails
    assert "exactly zero" not in err


def test_oracle_into_a_closed_pipe_prints_no_traceback(tmp_path):
    # A = -diag(u), b = v, f = 0 has 1,024 solutions at n = 10, so the report
    # outgrows the pipe buffer and its writes fail once the reader is gone.
    n = 10
    rng = np.random.default_rng(7)
    u, v = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    p = tmp_path / "many.json"
    save_instance(str(p), IcpInstance(A=-np.diag(u), b=v, f=ZeroMap()))
    cmd = [sys.executable, "-m", "icpkit", "oracle", str(p)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            assert read_within(proc.stdout.readline, 60) == "{\n"
            proc.stdout.close()
            err = read_within(proc.stderr.read, 60)
            assert proc.wait(timeout=60) == 1
        finally:
            # Popen's exit waits for the child with no deadline.
            proc.kill()
    assert "Traceback" not in err
    assert err == ""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
def test_oracle_into_a_closed_pipe_in_process_closes_its_descriptors(tmp_path, monkeypatch):
    # main points the broken stdout at devnull and must not keep the
    # descriptor it opened for that: one leaked per broken pipe adds up in a
    # long-lived caller.
    p = tmp_path / "lcp2.json"
    save_instance(str(p), IcpInstance(A=np.eye(2), b=np.array([-1.0, 1.0]), f=ZeroMap()))
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        before = len(os.listdir("/proc/self/fd"))
        assert main(["oracle", str(p)]) == 1
        after = len(os.listdir("/proc/self/fd"))
        monkeypatch.undo()
    assert after == before


class FullStdout(io.TextIOBase):
    """A stdout whose writes fail as on a full disk (`> /dev/full`)."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [["oracle"], ["solve"], ["verify", "--out-path", "-"]])
def test_full_stdout_is_one_error_line(argv, tmp_path, monkeypatch, capsys):
    p = tmp_path / "lcp2.json"
    save_instance(str(p), IcpInstance(A=np.eye(2), b=np.array([-1.0, 1.0]), f=ZeroMap()))
    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert main(argv[:1] + [str(p)] + argv[1:]) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["oracle", "solve"])
def test_full_stdout_subprocess_is_one_error_line(command, tmp_path):
    # A real stdout is buffered: its failed flush keeps the report, and
    # Python's flush at exit must not fail again with a second error and
    # exit status 120.  PYTHONUNBUFFERED would hide that, so run_icpkit unsets it.
    p = tmp_path / "lcp2.json"
    save_instance(str(p), IcpInstance(A=np.eye(2), b=np.array([-1.0, 1.0]), f=ZeroMap()))
    with open("/dev/full", "w") as full:
        proc = run_icpkit(command, str(p), stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("command", ["oracle", "solve", "verify"])
def test_loading_out_of_memory_is_one_error_line(command, tmp_path, monkeypatch, capsys):
    def out_of_memory(path):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr("icpkit.cli.load_instance", out_of_memory)
    assert main([command, str(tmp_path / "huge.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 74.5 GiB\n"


def test_oracle_command(tmp_path, capsys):
    p = tmp_path / "lcp2.json"
    save_instance(str(p), IcpInstance(A=np.eye(2), b=np.array([-1.0, 1.0]), f=ZeroMap()))
    rc = main(["oracle", str(p)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["solutions"] == [[1.0, 0.0]]
    assert report["singular_skipped"] == 0

    empty = tmp_path / "empty.json"
    save_instance(str(empty), IcpInstance(A=[[-1.0]], b=[-1.0], f=ZeroMap()))
    assert main(["oracle", str(empty)]) == 3
    capsys.readouterr()

    big = tmp_path / "big.json"
    save_instance(str(big), IcpInstance(A=np.eye(20), b=np.ones(20), f=ZeroMap()))
    assert main(["oracle", str(big)]) == 2


# Row 0 of C is e_0, so I - C is singular and only the full path runs.  At
# n = 1 the tree's root is its last level.  f = 0 makes M = A: the n = 3
# file's last column of A is 0, so every pivot of the last level fails and
# sends the 4 sets that leave index 2 free to the full path, which skips them
# as singular; in the last file the last level mixes both outcomes.
@pytest.mark.parametrize(
    "doc, solutions, singular_skipped",
    [
        ('{"n": 2, "A": [1, 0, 0, 1], "b": [-1, 1], "f": {"type": "affine", "C": [1, 0, 0.5, 0], "d": [-1, 0]}}',
         [[1.0, 0.5]], 2),
        ('{"n": 1, "A": [2], "b": [-1], "f": {"type": "zero"}}', [[0.5]], 0),
        ('{"n": 3, "A": [3, 1, 0, 1, 3, 0, 1, 1, 0], "b": [-4, -4, 1], "f": {"type": "zero"}}', [[1.0, 1.0, 0.0]], 4),
        ('{"n": 2, "A": [1, 1, 1, 0], "b": [-1, -0.5], "f": {"type": "zero"}}', [[0.5, 0.5], [1.0, 0.0]], 1),
    ],
    ids=["singular_I_minus_C", "root_is_last_level", "zero_last_column", "mixed_last_level"],
)
def test_oracle_command_on_full_path_and_last_level_files(doc, solutions, singular_skipped, tmp_path, capsys):
    p = tmp_path / "inst.json"
    p.write_text(doc)
    assert main(["oracle", str(p)]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert len(report["solutions"]) == len(solutions)
    assert np.allclose(report["solutions"], solutions, rtol=0.0, atol=1e-8)
    assert report["singular_skipped"] == singular_skipped
    assert captured.err == ""


# The oracle's pivot tree, the dense files with larger pivot growth.  From
# n = 12 on the tree halves its node batches to stay within its byte budget,
# so the dense n = 16 file carries that growth across the halvings.
@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "4"],
        ["--n", "8", "--matrix-family", "dense"],
        ["--n", "12", "--f-family", "contractive_affine"],
        ["--n", "14", "--f-family", "contractive_affine"],
        ["--n", "16", "--matrix-family", "dense", "--f-family", "contractive_affine"],
    ],
    ids=["n4", "n8_dense", "n12", "n14", "n16_dense"],
)
def test_oracle_command_finds_the_planted_solution_of_a_generated_file(flags, tmp_path, capsys):
    p = tmp_path / "inst.json"
    assert main(["gen", "--seed", "1", *flags, "--out", str(p)]) == 0
    assert main(["oracle", str(p)]) == 0
    captured = capsys.readouterr()
    planted = json.loads(p.read_text())["planted"]
    assert any(np.max(np.abs(np.subtract(s, planted))) <= 1e-8 for s in json.loads(captured.out)["solutions"])
    assert captured.err == ""


def test_python_m_icpkit_subprocess(tmp_path):
    p = tmp_path / "inst.json"
    assert main(gen_args(p, seed=77)) == 0
    proc = run_icpkit("oracle", str(p), capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["solutions"]

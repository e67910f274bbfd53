import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from icpkit.cli import (
    RESULT_COLUMNS,
    LoadedInstance,
    _collect_points,
    _draw_scalings,
    build_parser,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    main,
    run_verification,
    save_instance,
)
from icpkit.core import AffineMap, IcpInstance, ToleranceConfig, ZeroMap, is_solution
from icpkit.generator import F_FAMILIES, MATRIX_FAMILIES, GeneratorSpec, generate_planted
from icpkit.residuals import DELTA_CATALOG, delta_residual, natural_residual, scaled_residual


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
    inst = IcpInstance(A=np.eye(2), b=np.ones(2), f=AffineMap(0.5 * np.eye(2), np.zeros(2)))
    doc = instance_to_dict(inst)
    del (doc["f"] if field in ("C", "d") else doc)[field]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: field '{field}' is missing\n"


def test_instance_dict_schema():
    inst = IcpInstance(A=np.eye(2), b=np.array([-1.0, 1.0]), f=AffineMap(0.5 * np.eye(2), np.zeros(2)))
    doc = instance_to_dict(inst, planted=np.array([0.5, 0.5]), seed=11, spec_echo={"rng": "numpy-pcg64"})
    assert doc["n"] == 2 and doc["spec"] == {"rng": "numpy-pcg64"}
    assert doc["A"] == [1.0, 0.0, 0.0, 1.0]
    assert doc["f"]["type"] == "affine" and len(doc["f"]["C"]) == 4
    back = instance_from_dict(doc, "roundtrip")
    assert np.array_equal(back.instance.A, inst.A)
    assert np.array_equal(back.instance.f.C, inst.f.C)
    assert back.seed == 11

    zero_doc = instance_to_dict(IcpInstance(A=np.eye(1), b=np.zeros(1), f=ZeroMap()))
    assert zero_doc["f"] == {"type": "zero"}


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
    assert "--scalings" in capsys.readouterr().err
    assert not out.exists()


def test_verify_rejects_negative_gen_count(tmp_path, capsys):
    p = tmp_path / "inst.json"
    assert main(gen_args(p)) == 0
    out = tmp_path / "rows.csv"
    assert main(["verify", str(p), "--gen", "-2", "--out-path", str(out)]) == 2
    assert "--gen" in capsys.readouterr().err
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
            units.append(LoadedInstance(f"gen-{spec.seed}", inst, planted=planted, seed=spec.seed))
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
    assert all(set(row.keys()) == set(RESULT_COLUMNS) for row in rows)
    assert {row["instance_id"] for row in rows} == {"gen-40", "gen-41", "gen-42", "gen-43"}


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
    proc = subprocess.run([sys.executable, "-m", "icpkit", "verify", str(p), "--out-path", str(fresh)])
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
    assert main(["verify", "--scalings", "0"]) == 2
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
    # Dense instance where relaxation 2.0 is observed to blow up (seed 0).
    p = tmp_path / "dense.json"
    rc = main(["gen", "--n", "8", "--seed", "0", "--matrix-family", "dense",
               "--f-family", "zero", "--active-fraction", "0.5", "--out", str(p)])
    assert rc == 0
    rc = main(["solve", str(p), "--relaxation", "2.0", "--max-iters", "500"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["status"] in ("diverged", "max_iters_reached")


# 1 / A_00 overflows to inf, so the default jacobi scaling is the identity.
TINY_DIAGONAL = '{"n": 1, "A": [1e-320], "b": [-1], "f": {"type": "zero"}}'


@pytest.mark.filterwarnings("error")
def test_solve_with_a_tiny_positive_diagonal_reports_a_status(tmp_path, capsys):
    # With the identity, each step adds about 1 to r, which never settles.
    p = tmp_path / "tiny.json"
    p.write_text(TINY_DIAGONAL)
    rc = main(["solve", str(p), "--max-iters", "50"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["status"] == "max_iters_reached"
    assert report["final_point"] == [50.0]


@pytest.mark.filterwarnings("error")
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
    assert main(["solve", str(p), "--relaxation", "3.0"]) == 2


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--omega", "abc", "--omega must be 'jacobi', 'identity' or a positive number, got 'abc'"),
        ("--omega", "-1", "--omega must be 'jacobi', 'identity' or a positive number, got '-1'"),
        ("--omega", "nan", "--omega must be 'jacobi', 'identity' or a positive number, got 'nan'"),
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


def test_oracle_near_the_largest_float_prints_no_warnings(tmp_path):
    # The one solution, about (1.5e308, 1.7e308), overflows the dedup keys w.x.
    p = tmp_path / "huge.json"
    p.write_text('{"n": 2, "A": [1e-308, 0, 0, 1e-308], "b": [-1.5, -1.7], "f": {"type": "zero"}}')
    proc = subprocess.run([sys.executable, "-m", "icpkit", "oracle", str(p)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert np.allclose(json.loads(proc.stdout)["solutions"], [[1.5e308, 1.7e308]])


@pytest.mark.filterwarnings("error")
def test_oracle_on_overflowing_data_reports_no_solution_without_warnings(tmp_path, capsys):
    # q = A P d + b overflows, so the full path runs.  The two systems that
    # take row 0 from A have scale 1e200, so their second pivot, 1, counts as
    # singular.  The other two give r_0 = 1e200, whose F_0 overflows, so
    # check_solution rejects them: no solution, exit code 3.
    p = tmp_path / "overflow.json"
    p.write_text('{"n": 2, "A": [1e200, 0, 0, 1], "b": [0, 1], "f": {"type": "affine", "C": [0, 0, 0, 0], "d": [1e200, 0]}}')
    assert main(["oracle", str(p)]) == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["solutions"] == []
    assert report["singular_skipped"] == 2
    assert captured.err == ""


@pytest.mark.filterwarnings("error")
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
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
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


def test_console_entry_point_subprocess(tmp_path):
    p = tmp_path / "inst.json"
    assert main(gen_args(p, seed=77)) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "icpkit", "oracle", str(p)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["solutions"]

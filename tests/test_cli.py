import contextlib
import io
import json
import subprocess
import sys

import pytest

from reggescissors import cli, scissors
from reggescissors.exceptions import (
    DegenerateSystemError,
    GeometryDomainError,
    NonUnitRootError,
    QuadratureError,
)

from conftest import IDEAL_BESIDE_HYPERIDEAL, _perfbench_module

ANGLES_FINITE = ["1.2", "1.2", "1.2", "1.2", "1.2", "1.2"]
ANGLES_GENERIC = ["1.15", "1.2", "1.1", "1.22", "1.18", "1.25"]


def run_cli(*args):
    """One in-process CLI call, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_module(*args):
    """One `python -m reggescissors` subprocess: the module entry point."""
    return subprocess.run(
        [sys.executable, "-m", "reggescissors", *args],
        capture_output=True,
        text=True,
    )


def strict_json(text):
    """json.loads that refuses Infinity and NaN, which are not JSON."""
    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=reject)


def test_volume_finite():
    result = run_cli("volume", *ANGLES_FINITE)
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["classification"] == "Finite"
    assert payload["volume"] == pytest.approx(0.046712861991968745, abs=1e-10)
    assert payload["holonomy"]["volume_plus_root"] == pytest.approx(
        -payload["volume"], abs=1e-9
    )


def test_volume_hyperideal_rejected():
    result = run_cli("volume", *["1.0"] * 6)
    assert result.returncode == 1
    assert "Hyperideal" in result.stderr
    payload = json.loads(result.stdout)
    assert "Hyperideal" in payload["error"]


def test_volume_rejects_an_ideal_vertex_beside_a_hyperideal_one():
    result = run_cli("volume", *map(repr, IDEAL_BESIDE_HYPERIDEAL.as_tuple()))
    assert result.returncode == 1
    assert json.loads(result.stdout) == {
        "error": "requires a Finite or Ideal tetrahedron; classification: Hyperideal"}


# in range and of Gram signature (3, 1), with positive vertex cofactors, but
# with a negative edge cofactor: no tetrahedron has these angles
ANGLES_NEGATIVE_EDGE_COFACTOR = ["1.1254017058096042", "1.79264461722925", "1.640964041367555",
                                 "1.1080289698236316", "1.9796308258459807", "2.0981213956176514"]


@pytest.mark.parametrize("command", ["volume", "oracle"])
def test_negative_edge_cofactor_is_input_error(command, capsys):
    assert cli.main([command, *ANGLES_NEGATIVE_EDGE_COFACTOR]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert json.loads(out)["error"].endswith("tetrahedron; classification: Invalid")
    assert err.startswith("input error:")


def test_unparseable_angle_names_field():
    result = run_cli("volume", "1.2", "oops", "1.2", "1.2", "1.2", "1.2")
    assert result.returncode == 1
    assert "angle B" in result.stderr
    # a primed label: the 4th angle is A'
    result = run_cli("volume", "1.2", "1.2", "1.2", "oops", "1.2", "1.2")
    assert result.returncode == 1
    assert result.stderr == "input error: angle A': could not parse 'oops'\n"
    assert json.loads(result.stdout) == {"error": "angle A': could not parse 'oops'"}


def test_out_of_range_angle_names_field():
    result = run_cli("volume", "1.2", "1.2", "3.5", "1.2", "1.2", "1.2")
    assert result.returncode == 1
    assert "angle C" in result.stderr
    for k, name in enumerate(["A", "B", "C", "A'", "B'", "C'"]):
        raw = ["1.2"] * 6
        raw[k] = "3.5"
        with pytest.raises(GeometryDomainError) as exc:
            cli._parse_angles(raw, degrees=False)
        assert str(exc.value) == f"angle {name}: 3.500000 rad is outside (0, pi)"


def test_degrees_flag():
    radians = run_cli("volume", *ANGLES_GENERIC)
    degs = [repr(float(a) * 180.0 / 3.141592653589793) for a in ANGLES_GENERIC]
    degrees = run_cli("volume", *degs, "--degrees")
    v1 = json.loads(radians.stdout)["volume"]
    v2 = json.loads(degrees.stdout)["volume"]
    assert v2 == pytest.approx(v1, abs=1e-9)


def test_decompose_pieces():
    result = run_cli("decompose", *ANGLES_GENERIC)
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert len(payload["pieces"]) == 16
    total = sum(p["signed_volume"] for p in payload["pieces"])
    assert total == pytest.approx(payload["twice_tet_volume"], abs=1e-9)


def test_regge_command():
    result = run_cli("regge", *ANGLES_GENERIC, "--which", "b")
    payload = json.loads(result.stdout)
    assert payload["image_classification"] == "Finite"
    s = payload["s"]
    assert payload["transformed"]["A"] == pytest.approx(s - 1.15, abs=1e-12)
    assert payload["transformed"]["B"] == pytest.approx(1.2, abs=1e-15)


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf", "-inf"])
def test_verify_non_positive_tol_is_input_error(tol, capsys):
    # "--tol=" because argparse reads a bare "-inf" as an option
    assert cli.main(["verify", *ANGLES_GENERIC, "--which", "b", f"--tol={tol}"]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == "tol must be positive and finite"
    assert err.startswith("input error:")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", *ANGLES_GENERIC, "--which", "b", "--tol", "abc"],
         "reggescissors verify: argument --tol: invalid float value: 'abc'"),
        (["suite", "--count", "x"], "reggescissors suite: argument --count: invalid int value: 'x'"),
        (["suite", "--seed", "x"], "reggescissors suite: argument --seed: invalid int value: 'x'"),
        # orbit's size cap was deleted: a stale --max-size is an unknown option
        (["orbit", *ANGLES_GENERIC, "--max-size", "x"],
         "reggescissors: unrecognized arguments: --max-size x"),
        ([], "reggescissors: the following arguments are required: command"),
        (["volume", "1.2"], "reggescissors volume: the following arguments are required: ANGLE"),
    ],
    ids=["tol", "count", "seed", "max-size", "no-command", "missing-angles"],
)
def test_usage_error_is_input_error(argv, message, capsys):
    assert cli.main(argv) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == message
    assert err.startswith("input error:")


@pytest.mark.parametrize("error", [DegenerateSystemError, NonUnitRootError, QuadratureError, ArithmeticError])
def test_numerical_failure_exits_three(error, monkeypatch, capsys):
    def fail(t):
        raise error("no solve")

    monkeypatch.setattr(cli, "solve_holonomy", fail)
    assert cli.main(["volume", *ANGLES_GENERIC]) == cli.EXIT_NUMERIC == 3
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": "no solve"}
    assert err == "numerical failure: no solve\n"


def test_edge_length_failure_exits_three(flipped_gram, capsys):
    # a cosh ratio below 1 in edge_lengths, which oracle reaches through
    # schlafli_residual: a JSON error and exit 3, not a math.acosh traceback
    assert cli.main(["oracle", *ANGLES_GENERIC]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    message = json.loads(out)["error"]
    assert message.startswith("edge C (0, 3): cosh ratio -1.") and message.endswith(" is below 1")
    assert err == f"numerical failure: {message}\n"


def test_oracle_computes_the_edge_lengths_once(monkeypatch, capsys):
    # schlafli_residual and schlafli_max_relative read the lengths kept on t
    from reggescissors import tetra

    calls = []
    compute = tetra._edge_lengths
    monkeypatch.setattr(tetra, "_edge_lengths", lambda t: calls.append(t) or compute(t))
    assert cli.main(["oracle", *ANGLES_GENERIC]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=["top", "verify"])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: reggescissors")


def test_verify_fixed_point():
    result = run_cli("verify", "1.21", "1.1", "1.1", "1.13", "1.1", "1.1", "--which", "a")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["passed"] is True
    assert payload["volume_gap"] == 0.0


@pytest.mark.kernel_independent
@pytest.mark.parametrize("which", ["a", "c"])
def test_verify_prints_the_volume_that_volume_prints(which):
    volume = json.loads(run_cli("volume", *ANGLES_GENERIC).stdout)["volume"]
    payload = json.loads(run_cli("verify", *ANGLES_GENERIC, "--which", which).stdout)
    assert payload["passed"] is True
    assert float.hex(payload["volume"]) == float.hex(volume)


ANGLE_COMMANDS = [["volume"], ["decompose"], *(["regge", "--which", w] for w in "abc"), ["orbit"],
                  *(["verify", "--which", w] for w in "abc"), ["oracle"]]


#: A fresh interpreter runs every angle command but oracle, the first through
#: the module entry (`python -m reggescissors`) and the rest through
#: `cli.main`, then imports the names of the Klein oracle and the suite, and
#: prints whether numpy was loaded before that import.
_NO_NUMPY = """
import contextlib, io, json, runpy, sys
first, *rest = json.loads(sys.argv[1])
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    sys.argv = ["reggescissors", *first]
    try:
        runpy.run_module("reggescissors", run_name="__main__")
    except SystemExit as exit:
        codes.append(exit.code)
    from reggescissors import cli
    codes += [cli.main(command) for command in rest]
loaded = "numpy" in sys.modules
from reggescissors import run_suite, SuiteConfig, klein_vertices, volume_numeric
import reggescissors
assert reggescissors.klein.klein_vertices is klein_vertices and reggescissors.suite.run_suite is run_suite
print(json.dumps({"codes": codes, "numpy": loaded}))
"""


@pytest.mark.kernel_independent
def test_angle_commands_load_no_numpy():
    commands = [[c[0], *ANGLES_GENERIC, *c[1:]] for c in ANGLE_COMMANDS if c != ["oracle"]]
    result = subprocess.run([sys.executable, "-c", _NO_NUMPY, json.dumps(commands)],
                            capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) == {"codes": [cli.EXIT_OK] * len(commands), "numpy": False}


@pytest.fixture(scope="module")
def ideal_image_inputs():
    """Inputs 105 and 116 of the benchmark's `formula` stream for seed 3:
    Finite, with Regge images a and b that classify calls Ideal when it is
    run on their own angles."""
    angles, _ = _perfbench_module("inputs").TetStream(3, 1, 0.998).take(117)
    return [[repr(float(x)) for x in angles[k]] for k in (105, 116)]


@pytest.mark.parametrize("command", ANGLE_COMMANDS, ids=" ".join)
def test_every_angle_command_prints_strict_json(command, ideal_image_inputs):
    for tokens in ideal_image_inputs:
        result = run_cli(command[0], *tokens, *command[1:])
        payload = strict_json(result.stdout)
        assert result.returncode == cli.EXIT_OK
        if command[0] == "verify":
            # the images take the class of their Finite source, so every check runs and passes
            assert payload["passed"] is True and payload["failure"] is None
            assert max(payload["volume_gap"], payload["slot_gap"]) <= payload["tol"]


def test_degenerate_verify_exits_two_with_null_gaps(monkeypatch, capsys):
    def degenerate(t):
        raise DegenerateSystemError("no solve")

    monkeypatch.setattr(scissors, "decompose", degenerate)
    assert cli.main(["verify", *ANGLES_GENERIC, "--which", "b"]) == cli.EXIT_VERIFY
    payload = strict_json(capsys.readouterr().out)
    assert payload["passed"] is False
    assert payload["failure"] == "angle system degenerate: no solve"
    assert [payload[k] for k in ("volume_gap", "slot_gap", "volume", "volume_image")] == [None] * 4


def test_verify_generic_and_failure_exit_code():
    ok = run_cli("verify", *ANGLES_GENERIC, "--which", "b")
    assert ok.returncode == 0
    forced = run_cli("verify", *ANGLES_GENERIC, "--which", "b", "--tol", "1e-30")
    assert forced.returncode == 2
    assert json.loads(forced.stdout)["passed"] is False


def test_orbit_command():
    result = run_cli("orbit", *ANGLES_GENERIC)
    payload = json.loads(result.stdout)
    assert set(payload) == {"command", "size", "members"}
    assert payload["size"] >= 2
    vols = [m["volume"] for m in payload["members"]]
    assert max(vols) - min(vols) < 1e-9


def test_oracle_command():
    result = run_cli("oracle", *ANGLES_GENERIC, "--tol", "1e-5")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["volume_gap"] < 1e-4
    assert payload["schlafli_max_relative"] < 1e-3
    assert len(payload["klein_vertices"]) == 4


def test_table_output():
    result = run_cli("volume", *ANGLES_FINITE, "--table")
    assert result.returncode == 0
    assert "volume:" in result.stdout
    assert "{" not in result.stdout.splitlines()[0]
    # the table is rendered from the JSON values, not from numpy scalar reprs
    degrees = run_cli("volume", *["60"] * 6, "--degrees", "--table")
    assert "discriminant: [-27.0" in degrees.stdout
    oracle = run_cli("oracle", *ANGLES_GENERIC, "--table")
    assert oracle.returncode == 0
    assert "klein_vertices:" in oracle.stdout and "schlafli_residuals:" in oracle.stdout
    for table in (result, degrees, oracle):
        assert "np." not in table.stdout


def test_out_file(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("volume", *ANGLES_FINITE, "--out", str(out))
    assert result.returncode == 0
    on_disk = json.loads(out.read_text())
    assert on_disk == json.loads(result.stdout)


def test_out_under_missing_directory_is_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert cli.main(["volume", *ANGLES_FINITE, "--out", str(target)]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert error.startswith("--out: ") and str(target) in error
    assert err.startswith("input error:")
    assert not target.parent.exists()


def test_suite_out_file_is_stdout(tmp_path, capsys):
    out = tmp_path / "suite.json"
    argv = ["suite", "--count", "4", "--seed", "11", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.endswith("}\n")
    assert out.read_bytes() == stdout.encode("utf-8")


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0"])
def test_oracle_tol_outside_positive_finite_is_input_error(tol, capsys):
    # "--tol=" because argparse reads a bare "-inf" as an option
    assert cli.main(["oracle", *ANGLES_GENERIC, f"--tol={tol}"]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert strict_json(out)["error"] == "tol must be positive and finite"
    assert err.startswith("input error:")


def test_suite_small_deterministic():
    # a fresh process through the module entry point, then one in this process
    first = run_module("suite", "--count", "4", "--seed", "11")
    second = run_cli("suite", "--count", "4", "--seed", "11")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout  # byte-identical reports
    payload = json.loads(first.stdout)
    assert payload["passed"] is True
    assert len(payload["criteria"]) == 9


@pytest.mark.parametrize("count", ["0", "-3"])
def test_suite_count_below_one_is_input_error(count, capsys):
    assert cli.main(["suite", "--count", count]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == f"count must be at least 1, got {count}"
    assert err.startswith("input error:")


def test_bad_env_seed_leaves_other_commands_alone(monkeypatch, capsys):
    # REGGE_SUITE_SEED was deleted: a stale value reaches no command, suite included
    monkeypatch.setenv("REGGE_SUITE_SEED", "abc")
    assert cli.main(["volume", *ANGLES_GENERIC]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["classification"] == "Finite"
    assert cli.main(["suite", "--count", "1"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 7


def test_suite_negative_seed_is_input_error(capsys):
    assert cli.main(["suite", "--count", "1", "--seed", "-1"]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == "seed must be at least 0, got -1"
    assert err.startswith("input error:")

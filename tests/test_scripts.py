import importlib.util
import math
import pathlib
import runpy
import subprocess
import sys
import types

import pytest

import reggescissors

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["decomposition_demo.py", "volume_sweep.py"])
def test_script_runs(name):
    result = subprocess.run([sys.executable, str(SCRIPTS / name)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    if name == "decomposition_demo.py":
        # the demo shows the slot-by-slot match of 2T and 2 R_b(T); it must hold, not only print
        gaps = [line for line in result.stdout.splitlines() if line.startswith("worst slot gap:")]
        assert len(gaps) == 1 and float(gaps[0].split(":")[1]) <= 1e-9, result.stdout


@pytest.mark.parametrize("flag,value", [("--oracle-every", "0"), ("--steps", "-2")])
def test_volume_sweep_rejects_counts_below_one(flag, value):
    # a usage error, not a ZeroDivisionError or numpy traceback
    result = subprocess.run([sys.executable, str(SCRIPTS / "volume_sweep.py"), flag, value],
                            capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("usage:") and "Traceback" not in result.stderr
    assert f"argument {flag}: must be a positive integer, got {int(value)}" in result.stderr


@pytest.mark.parametrize("angles,message", [
    (["1"] * 6, "requires a Finite or Ideal tetrahedron; classification: Hyperideal"),
    (["1", "2", "3"], "expected six angles (A, B, C, A', B', C')"),
], ids=["hyperideal", "three-angles"])
def test_decomposition_demo_rejects_bad_angles(angles, message, monkeypatch, capsys):
    # a usage error, not a GeometryDomainError traceback
    script = str(SCRIPTS / "decomposition_demo.py")
    monkeypatch.setattr(sys, "argv", [script, *angles])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(script, run_name="__main__")
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage:") and err.endswith(f"error: {message}\n")


@pytest.fixture
def bench_record():
    """scripts/bench_record.py as a module."""
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPTS / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_times_a_layer(bench_record):
    # a rename or move of a layer the recorder times fails here, not only in a full recording
    assert {"lobachevsky_scalar", "lobachevsky_array", "oracle_quadrature",
            "lobachevsky_quadrature_scalar"} <= set(bench_record.PER_CALL)
    for call in bench_record.PER_CALL.values():
        call(reggescissors, reggescissors.TetAngles(1.15, 1.2, 1.1, 1.22, 1.18, 1.25))
    result = subprocess.run([sys.executable, str(SCRIPTS / "bench_record.py"), "--time-layer", "classify"],
                            capture_output=True, text=True, env=bench_record.src_env())
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 1 and 0 < float(lines[0]) < math.inf, result.stdout


def test_bench_record_alternates_which_side_runs_first(bench_record, monkeypatch):
    calls = []

    def fresh(checkout, *args):
        calls.append((checkout, args))
        return f"{len(calls)}\n"

    monkeypatch.setattr(bench_record, "fresh", fresh)
    parent, here = pathlib.Path("parent"), bench_record.ROOT
    runs = bench_record.alternate(parent, "us", float, "--time-layer", "classify")
    assert bench_record.SUITE_RUNS == 5
    assert [checkout for checkout, _ in calls] == [parent, here, here, parent, parent, here, here, parent, parent, here]
    assert {args for _, args in calls} == {("--time-layer", "classify")}
    assert runs == {"before_us": [1.0, 4.0, 5.0, 8.0, 9.0], "us": [2.0, 3.0, 6.0, 7.0, 10.0]}
    summary = bench_record.quartiles(runs)
    assert set(summary) == {"before_us", "before_us_q1", "before_us_q3", "us", "us_q1", "us_q3", "wins"}
    assert summary["wins"] == 2  # rounds 2 and 4: 3 < 4 and 7 < 8

    calls.clear()
    runs = bench_record.alternate(None, "s", float, "--time-suite")
    assert runs == {"s": [1.0, 2.0, 3.0, 4.0, 5.0]}
    assert [checkout for checkout, _ in calls] == [here] * 5
    assert "wins" not in bench_record.quartiles(runs)


def test_bench_record_times_cold_classifications(bench_record, monkeypatch):
    # picking the rows classifies them; each timed call must classify its row
    # once more, inside its own timed interval, on an instance picking did not touch
    monkeypatch.setattr(sys, "path", list(sys.path))
    tetra = reggescissors.tetra
    events = []
    compute, clock = tetra._classify, bench_record.time.perf_counter
    monkeypatch.setattr(tetra, "_classify", lambda t: events.append(t) or compute(t))
    monkeypatch.setattr(bench_record, "time", types.SimpleNamespace(
        perf_counter=lambda: events.append("tick") or clock()))
    assert 0 < bench_record.time_layer("classify") < math.inf
    n = bench_record.PER_CALL_INPUTS
    first = events.index("tick")
    picking, timed = events[:first - 1], events[first:]
    picked = [t for t in picking if compute(t).kind is tetra.TetraKind.FINITE]
    assert len(picked) == n + 1 and picking[-1] is picked[-1]
    assert timed[0::3] == timed[2::3] == ["tick"] * n
    assert timed[1::3] == picked[:n] and not {id(t) for t in timed[1::3]} & {id(t) for t in picking}


def test_bench_record_marks_the_in_process_timings_scaled(bench_record, monkeypatch):
    # time_layer and time_suite_criteria record perfbench's reference_seconds
    monkeypatch.setattr(bench_record, "fresh",
                        lambda checkout, *args: '{"import": 0.5}' if "--time-suite" in args else "2.0")
    per_call = bench_record.run_per_call(None)
    assert per_call["scaled"] is True and per_call["layers"]["classify"]["us"] == 2.0
    criteria = bench_record.run_suite_criteria(None)
    assert criteria["scaled"] is True and criteria["steps"]["import"]["s"] == 0.5


@pytest.fixture
def output_digest(monkeypatch):
    """scripts/output_digest.py as a module; it extends sys.path on import."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPTS / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_check_names_what_moved(output_digest, monkeypatch, capsys):
    pinned = dict(output_digest.PINNED)
    assert list(pinned) == ["suite_seed7", "suite_seed2", "formula_seed1", "formula_seed2",
                            "formula_seed3", "oracle_seed1"]
    assert output_digest.moved(pinned) == []
    fake = {**pinned, "formula_seed2": "0" * 64}
    del fake["suite_seed7"]
    assert output_digest.moved(fake) == ["suite_seed7", "formula_seed2"]

    # the flag only adds the comparison; the digest lines are printed either way
    monkeypatch.setattr(output_digest, "digests", lambda: iter(fake.items()))
    assert output_digest.main([]) == 0
    plain = capsys.readouterr().out
    assert plain == "".join(f"{name} {digest}\n" for name, digest in fake.items())
    assert output_digest.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert out.startswith(plain)
    assert out[len(plain):].splitlines() == [
        f"moved: suite_seed7 (pinned {pinned['suite_seed7']})",
        f"moved: formula_seed2 (pinned {pinned['formula_seed2']})",
    ]
    monkeypatch.setattr(output_digest, "digests", lambda: iter(pinned.items()))
    assert output_digest.main(["--check"]) == 0
    assert capsys.readouterr().out.endswith("all 6 digests match their pinned values\n")


def test_stream_digests_keep_their_bytes(output_digest):
    # a quick slice of the formula and oracle digests; inputs 28 and 4 are
    # classified Ideal, so the class gate's error output is covered too.  A
    # change that moves output on purpose re-pins these with PINNED.
    formula = output_digest.stream_digest("formula", 1, 30, output_digest.ANGLE_COMMANDS)
    assert formula == "0ba78ceae77b41be5d0583910a9174738e6e42c5baf6f24dd6f133a4cbb3cb9a"
    oracle = output_digest.stream_digest("oracle", 1, 5, [("oracle",)])
    assert oracle == "6ffee803a80d6869ae3e82a21ed512f8c6ba05126c3508550713381a890397da"

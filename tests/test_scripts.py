import importlib.util
import itertools
import json
import math
import os
import pathlib
import runpy
import subprocess
import sys
import types

import pytest

import reggescissors

from conftest import IDEAL_BESIDE_HYPERIDEAL

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["decomposition_demo.py", "volume_sweep.py"])
def test_script_runs(name):
    result = subprocess.run([sys.executable, str(SCRIPTS / name)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    if name == "decomposition_demo.py":
        # the demo shows the slot-by-slot match of 2T and 2 R_b(T); it must hold, not only print
        gaps = [line for line in result.stdout.splitlines() if line.startswith("worst slot gap:")]
        assert len(gaps) == 1 and float(gaps[0].split(":")[1]) <= 1e-9, result.stdout
        # and it is the b check's own slot gap, the one `verify --which b` prints
        verify = subprocess.run([sys.executable, "-m", "reggescissors", "verify", "1.15", "1.2", "1.1",
                                 "1.22", "1.18", "1.25", "--which", "b"], capture_output=True, text=True)
        assert verify.returncode == 0, verify.stderr
        assert float(gaps[0].split(":")[1]) == json.loads(verify.stdout)["slot_gap"]


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
    ([*map(repr, IDEAL_BESIDE_HYPERIDEAL.as_tuple())],
     "requires a Finite or Ideal tetrahedron; classification: Hyperideal"),
    (["1", "2", "3"], "expected six angles (A, B, C, A', B', C')"),
], ids=["hyperideal", "ideal-beside-hyperideal", "three-angles"])
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


@pytest.fixture
def small_bench_record(bench_record, monkeypatch):
    """bench_record timing one pass of 3 inputs per layer and a 2-draw suite,
    so its `--time` mode can run in this process."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(bench_record, "PER_CALL_INPUTS", 3)
    monkeypatch.setattr(bench_record, "MIN_LAYER_PERIODS", 0)
    monkeypatch.setattr(bench_record, "SUITE_CONFIG", {"seed": 7, "count": 2, "oracle_count": 1})
    return bench_record


def finite_rows(bench_record, stream):
    """The first PER_CALL_INPUTS + 1 Finite angle rows of the perfbench `stream` for seed 1."""
    from inputs import TetStream
    from worker import RMAX, STREAM

    tetra = reggescissors.tetra
    rows = []
    for angles, _ in TetStream(1, STREAM[stream], RMAX[stream]):
        if tetra.classify(tetra.TetAngles.of(angles)).kind is tetra.TetraKind.FINITE:
            rows.append(angles)
            if len(rows) > bench_record.PER_CALL_INPUTS:
                return rows


def test_bench_record_times_a_layer(small_bench_record, monkeypatch, capsys):
    # a rename or move of a layer the recorder times fails here, not only in a full recording
    bench_record = small_bench_record
    assert {"lobachevsky_scalar", "lobachevsky_array", "solve_holonomy", "klein_vertices", "volume_numeric",
            "lobachevsky_quadrature_scalar"} <= set(bench_record.PER_CALL)
    for name, call in bench_record.PER_CALL.items():
        t = reggescissors.TetAngles(1.15, 1.2, 1.1, 1.22, 1.18, 1.25)
        call(reggescissors, bench_record.layer_arg(name, reggescissors, t))
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--time"])
    assert bench_record.main() == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1, out
    timings = json.loads(out)
    steps = [criterion.__name__ for criterion in reggescissors.suite._CRITERIA]
    assert list(timings) == ["s", "us"]
    assert list(timings["s"]) == steps and list(timings["us"]) == list(bench_record.PER_CALL)
    assert all(0 < value < math.inf for section in timings.values() for value in section.values())


def test_bench_record_alternates_which_side_runs_first(bench_record, monkeypatch):
    calls = []

    def fresh(checkout, *args):
        calls.append((checkout, args))
        return f"{len(calls)}\n"

    monkeypatch.setattr(bench_record, "fresh", fresh)
    parent, here = pathlib.Path("parent"), bench_record.ROOT
    runs = bench_record.alternate(parent)
    assert bench_record.SUITE_RUNS == 5
    assert [checkout for checkout, _ in calls] == [parent, here, here, parent, parent, here, here, parent, parent, here]
    assert {args for _, args in calls} == {("--time",)}
    assert runs == {"before_": [1, 4, 5, 8, 9], "": [2, 3, 6, 7, 10]}
    summary = bench_record.quartiles({"before_us": runs["before_"], "us": runs[""]})
    assert set(summary) == {"before_us", "before_us_q1", "before_us_q3", "us", "us_q1", "us_q3", "wins"}
    assert summary["wins"] == 2  # rounds 2 and 4: 3 < 4 and 7 < 8

    calls.clear()
    runs = bench_record.alternate(None)
    assert runs == {"": [1, 2, 3, 4, 5]}
    assert [checkout for checkout, _ in calls] == [here] * 5
    assert "wins" not in bench_record.quartiles({"s": runs[""]})


def test_bench_record_alternates_the_cold_starts(bench_record, monkeypatch):
    # after one untimed cold start per side, the cold starts alternate with
    # the parent's as the timing processes do, and the parent's quartiles
    # and the wins sit beside this checkout's
    calls = []
    monkeypatch.setattr(bench_record, "cold_start", lambda checkout: calls.append(checkout) or float(len(calls)))
    monkeypatch.setattr(bench_record, "src_digest", lambda checkout: "digest")
    parent, here = pathlib.Path("parent"), bench_record.ROOT
    row = bench_record.run_cold_start(parent)
    assert bench_record.COLD_START_RUNS == 10
    assert calls == [parent, here] + [parent, here, here, parent] * 5
    # this checkout ran 4, 5, 8, 9, ..., 20, 21 and the parent 3, 6, 7, 10, ..., 19, 22
    assert (row["median"], row["before_median"]) == (12.5, 12.5)
    assert row["wins"] == 5 and row["before_src_sha256"] == "digest" and row["runs"] == 10
    assert {"q1", "q3", "before_q1", "before_q3", "scaled", "unit", "command"} <= set(row)

    calls.clear()
    row = bench_record.run_cold_start(None)
    assert calls == [here] * 11 and row["median"] == 6.5
    assert not {"wins", "before_median", "before_src_sha256"} & set(row)


def test_bench_record_times_cold_classifications(small_bench_record, monkeypatch):
    # picking the rows classifies them; each timed call must classify its row
    # once more, inside its own timed interval, on an instance picking did not touch
    bench_record = small_bench_record
    monkeypatch.setattr(bench_record, "PER_CALL", {"classify": bench_record.PER_CALL["classify"]})
    monkeypatch.setattr(bench_record, "PER_CALL_STREAM", {"classify": "formula"})
    tetra = reggescissors.tetra
    events = []
    compute, clock = tetra._classify, bench_record.time.perf_counter
    monkeypatch.setattr(tetra, "_classify", lambda t: events.append(t) or compute(t))
    monkeypatch.setattr(bench_record, "time", types.SimpleNamespace(
        perf_counter=lambda: events.append("tick") or clock()))
    assert 0 < bench_record.time_in_process()["us"]["classify"] < math.inf
    n = bench_record.PER_CALL_INPUTS
    # each suite criterion takes two ticks, before the layers
    ticks = [i for i, event in enumerate(events) if event == "tick"]
    suite_ticks = 2 * len(reggescissors.suite._CRITERIA)
    first = ticks[suite_ticks]
    picking, timed = events[ticks[suite_ticks - 1] + 1:first - 1], events[first:]
    picked = [t for t in picking if compute(t).kind is tetra.TetraKind.FINITE]
    assert len(picked) == n + 1 and picking[-1] is picked[-1]
    assert timed[0::3] == timed[2::3] == ["tick"] * n
    assert timed[1::3] == picked[:n] and not {id(t) for t in timed[1::3]} & {id(t) for t in picking}


def test_bench_record_times_each_layer_on_its_stream(small_bench_record, monkeypatch):
    # the Klein layers on the inputs the `oracle` workload runs, the others on
    # the `formula` workload's; each layer's untimed warm-up (its last row)
    # comes first
    bench_record = small_bench_record
    seen = {}

    def recording(name, call):
        def record(m, arg):
            seen.setdefault(name, []).append(arg)
            return call(m, arg)
        return record

    monkeypatch.setattr(bench_record, "PER_CALL",
                        {name: recording(name, call) for name, call in bench_record.PER_CALL.items()})
    bench_record.time_in_process()
    klein = {"schlafli_residual", "klein_vertices", "volume_numeric"}
    rows = {stream: finite_rows(bench_record, stream) for stream in ("formula", "oracle")}
    assert list(seen) == list(bench_record.PER_CALL)
    for name, calls in seen.items():
        stream = rows["oracle" if name in klein else "formula"]
        expected = [bench_record.layer_arg(name, reggescissors, reggescissors.TetAngles.of(row))
                    for row in [stream[-1], *stream[:-1]]]
        assert len(calls) == len(expected), name
        # volume_numeric takes the Klein realization, the others the TetAngles
        key = (lambda x: x.vertices.tolist()) if name in bench_record.PER_CALL_ARG else (lambda x: x.as_tuple())
        assert [key(arg) for arg in calls] == [key(x) for x in expected], name


def test_bench_record_repeats_passes_until_a_layer_spans_ten_periods(small_bench_record, monkeypatch):
    # under a clock that makes each call take 4 ms, a pass of 3 calls spans
    # 12 ms, so 10 periods of 20 ms take 17 passes; each pass times every
    # row on a fresh TetAngles, and the row is the mean over all 51 timed calls
    bench_record = small_bench_record
    monkeypatch.setattr(bench_record, "MIN_LAYER_PERIODS", 10)
    sys.path.insert(0, str(bench_record.ROOT / "perfbench"))
    import machine

    assert machine.PERIOD_S == 0.02
    monkeypatch.setattr(machine, "reference_seconds", lambda pairs, samples: [b - a for a, b in pairs])
    ticks = itertools.count()
    monkeypatch.setattr(bench_record, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks) * 0.004))
    seen, call = [], bench_record.PER_CALL["tet_volume"]
    monkeypatch.setattr(bench_record, "PER_CALL", {
        "tet_volume": lambda m, t: seen.append(t) or call(m, t)})
    monkeypatch.setattr(bench_record, "PER_CALL_STREAM", {"tet_volume": "formula"})
    us = bench_record.time_in_process()["us"]["tet_volume"]
    rows = finite_rows(bench_record, "formula")
    warm_up, timed = seen[0], seen[1:]
    assert warm_up.as_tuple() == tuple(rows[-1])
    assert [t.as_tuple() for t in timed] == [tuple(row) for row in rows[:-1]] * 17
    assert len({id(t) for t in seen}) == len(seen)
    assert us == pytest.approx(4000.0)


def test_bench_record_counts_work_exactly_and_restores_the_package(small_bench_record, monkeypatch):
    bench_record = small_bench_record
    monkeypatch.setattr(bench_record, "WORK_OPS", {"formula": 3, "oracle": 9})
    tetra, octahedron, scissors = reggescissors.tetra, reggescissors.octahedron, reggescissors.scissors
    series = sys.modules["reggescissors.lobachevsky"]

    def bindings():
        return (tetra._classify, octahedron._solve_holonomy, scissors._decompose, scissors.decompose,
                reggescissors.suite.decompose, reggescissors.decompose, series._lobachevsky_float,
                octahedron._lobachevsky_float, scissors._lobachevsky_float, reggescissors.klein._rule_batch)

    def hook(frame, event, arg):
        pass

    originals, previous = bindings(), sys.getprofile()
    sys.setprofile(hook)
    try:
        first = bench_record.count_work()
        assert sys.getprofile() is hook  # the hook set before counting is put back
    finally:
        sys.setprofile(previous)
    assert bindings() == originals
    assert bench_record.count_work() == first  # counts, not times: they repeat
    # the counts that a counter wrapping every package binding of the six
    # functions (and summing the triangles given to _rule_batch) also reads
    # on this configuration.  Of the 9 oracle sources, row 4 is a sliver
    # that classify calls Ideal (the op fails), and row 5's margin is below
    # 0, so its 12 Schlafli steps are classified; the other 7 classify the
    # source alone.  Row 8's steps were classified too (33 in all) when the
    # margin's link and det constants were 8 and 10.4
    assert first == {
        "formula": {"ops": 3, "failed": 0, "_classify": 1.0, "_solve_holonomy": 9.0, "decompose": 5.0,
                    "series_calls": 168.0, "_relabels_onto": 0.0, "_rule_batch": 0.0, "rule_triangles": 0.0},
        "oracle": {"ops": 9, "failed": 1, "_classify": 21 / 9, "_solve_holonomy": 104 / 9, "decompose": 0.0,
                   "series_calls": 192.0, "_relabels_onto": 0.0, "_rule_batch": 8 / 9, "rule_triangles": 160 / 9},
        "suite": {"_classify": 47, "_solve_holonomy": 155, "decompose": 30, "series_calls": 10109,
                  "_relabels_onto": 0, "_rule_batch": 5, "rule_triangles": 100},
    }
    keys = ["_classify", "_solve_holonomy", "decompose", "series_calls", "_relabels_onto", "_rule_batch",
            "rule_triangles"]
    assert list(first) == ["formula", "oracle", "suite"]
    assert [list(row) for row in first.values()] == [["ops", "failed", *keys]] * 2 + [keys]


def test_bench_record_gives_each_checkout_its_own_bytecode_prefix(bench_record, tmp_path):
    parent = tmp_path / "parent"
    envs = {checkout: bench_record.src_env(checkout / "src") for checkout in (bench_record.ROOT, parent)}
    prefixes = {checkout: pathlib.Path(env["PYTHONPYCACHEPREFIX"]) for checkout, env in envs.items()}
    assert len(set(prefixes.values())) == 2
    for checkout, prefix in prefixes.items():
        assert prefix.parent == bench_record.pycache_root() and prefix.parent.is_dir()
        assert not prefix.resolve().is_relative_to(checkout.resolve())
        assert envs[checkout]["PYTHONPATH"].split(os.pathsep)[0] == str(checkout / "src")
        assert "PYTHONDONTWRITEBYTECODE" not in envs[checkout]
    # the same checkout keeps its prefix for the whole recording
    assert bench_record.src_env(parent / "src")["PYTHONPYCACHEPREFIX"] == str(prefixes[parent])
    assert "PYTHONPYCACHEPREFIX" not in bench_record.src_env(own_bytecode=False)


def test_bench_record_counts_a_call_by_its_code_object(small_bench_record, monkeypatch):
    # a call counts whatever name it is made through: here each op calls
    # _classify through a reference taken before counting, which no module binds
    bench_record = small_bench_record
    monkeypatch.setattr(bench_record, "WORK_OPS", {"formula": 2})
    sys.path.insert(0, str(bench_record.ROOT / "perfbench"))
    import ops

    classify, of = reggescissors.tetra._classify, reggescissors.TetAngles.of
    monkeypatch.setattr(ops, "formula", lambda angles: classify(of(angles)) and None)
    monkeypatch.setattr(reggescissors.suite, "run_suite", lambda config: classify(of([1.2] * 6)))
    assert bench_record.count_work() == {
        "formula": {"ops": 2, "failed": 0, "_classify": 1.0, "_solve_holonomy": 0.0, "decompose": 0.0,
                    "series_calls": 0.0, "_relabels_onto": 0.0, "_rule_batch": 0.0, "rule_triangles": 0.0},
        "suite": {"_classify": 1, "_solve_holonomy": 0, "decompose": 0, "series_calls": 0, "_relabels_onto": 0,
                  "_rule_batch": 0, "rule_triangles": 0},
    }


def test_bench_record_puts_the_parent_counts_beside_each_count(bench_record, monkeypatch):
    counts = {"formula": {"ops": 2, "series_calls": 3.5}, "suite": {"series_calls": 10}}
    parent = {"formula": {"ops": 2, "series_calls": 4.0}, "suite": {"series_calls": 12}}
    monkeypatch.setattr(bench_record, "fresh", lambda checkout, *args: json.dumps(
        parent if checkout == pathlib.Path("parent") else counts))
    monkeypatch.setattr(bench_record, "src_digest", lambda checkout: "digest")
    work = bench_record.run_work(pathlib.Path("parent"))
    assert work["counts"] == {"formula": {"ops": 2, "series_calls": 3.5, "before_ops": 2, "before_series_calls": 4.0},
                              "suite": {"series_calls": 10, "before_series_calls": 12}}
    assert work["before_src_sha256"] == "digest"
    assert "before_src_sha256" not in bench_record.run_work(None)


def test_bench_record_sizes_each_module_beside_the_parent(bench_record, monkeypatch, tmp_path):
    # lines are newlines, as wc -l counts them; a module that one side lacks
    # has only the other side's counts
    here, parent = tmp_path / "here", tmp_path / "parent"
    for checkout, files in ((here, {"pkg/a.py": "x = 1\n\ny = 2\n", "pkg/b.py": "z = 3"}),
                            (parent, {"pkg/a.py": "x = 1\n", "pkg/old.py": "w = 4\n"})):
        for name, text in files.items():
            path = checkout / "src" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    monkeypatch.setattr(bench_record, "ROOT", here)
    section = bench_record.run_src(parent)
    assert section["modules"] == {
        "pkg/a.py": {"lines": 3, "bytes": 13, "before_lines": 1, "before_bytes": 6},
        "pkg/b.py": {"lines": 0, "bytes": 5},
        "total": {"lines": 3, "bytes": 18, "before_lines": 2, "before_bytes": 12},
        "pkg/old.py": {"before_lines": 1, "before_bytes": 6},
    }
    assert section["before_src_sha256"] == bench_record.src_digest(parent)
    assert bench_record.run_src(None) == {"modules": bench_record.src_sizes(here)}


def test_bench_record_marks_the_in_process_timings_scaled(bench_record, monkeypatch):
    # time_in_process records perfbench's reference_seconds, for both sections
    monkeypatch.setattr(bench_record, "fresh",
                        lambda checkout, *args: '{"s": {"criterion_1": 0.5}, "us": {"classify": 2.0}}')
    per_call, criteria = bench_record.run_in_process(None)
    assert per_call["scaled"] is True and per_call["layers"]["classify"]["us"] == 2.0
    assert per_call["workload"] == bench_record.PER_CALL_STREAM
    assert criteria["scaled"] is True and criteria["steps"]["criterion_1"]["s"] == 0.5


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
    # a quick slice of the oracle digest; input 4 is classified Ideal, so the
    # class gate's error output is covered too.  The same slice of the
    # formula digest is pinned from frozen rows by
    # test_formula_output_does_not_depend_on_the_kernels.  A change that
    # moves output on purpose re-pins it with PINNED.
    oracle = output_digest.stream_digest("oracle", 1, 5, [("oracle",)])
    assert oracle == "a0f8c8a7d18e126ae9650974f1c2700c9cee0ed1e0fde6a208eaceba722fa717"


# the first 30 inputs of the benchmark's `formula` stream for seed 1, frozen
# as float.hex: the stream's own last bits move with numpy's and OpenBLAS's
# kernels, so the test must not regenerate them
FORMULA_SEED1_ROWS = """\
0x1.d730224413317p-1 0x1.447ca7b5ae1aep+0 0x1.25b344289efaep+0 0x1.3533a55001644p+0 0x1.02701ca6c751fp+1 0x1.5e3e92791d068p-1
0x1.9d95e7a9c162dp-1 0x1.dc284ed475e34p-1 0x1.19bb387d9fb17p+1 0x1.c2c1672b040b6p-1 0x1.f962435afcb10p-1 0x1.6acccf8f411c7p+0
0x1.3be6f9560919dp-2 0x1.40ea049ddb86dp-3 0x1.5d187c1789dfcp+1 0x1.5f68953b08cf6p-2 0x1.2b11d22f148dep-3 0x1.5dba159b29f16p+1
0x1.ae53e4675c980p-4 0x1.d1690e12ddaf7p-5 0x1.85409ef29dcdbp+1 0x1.51de70939de7cp-4 0x1.204313e256d6fp-5 0x1.80bae85831e76p+1
0x1.b29c2f4884298p-1 0x1.18e531c703620p+1 0x1.33001c1daaa6dp-3 0x1.a8aeb0c595a3ep-1 0x1.169e4d1710f91p+1 0x1.2fde47520489cp-3
0x1.32ff4bbef755bp-1 0x1.39fed24ac37cbp+1 0x1.7fe6b69156f41p-3 0x1.48662eea4bf0ep-2 0x1.5474f065349d8p+1 0x1.8f740b15c717bp-2
0x1.1ec8eac0ea173p-3 0x1.aa510d9d08830p-3 0x1.65b26a6c00b27p+1 0x1.e6830e3946fa3p-6 0x1.47ff47ba5ab9dp-2 0x1.7922ab085afebp+1
0x1.bb9beb7dafdbep+0 0x1.1cddc90329cc6p+0 0x1.94a919dbae6acp-1 0x1.8f4cb9ff643dap-1 0x1.acf9d5ee7e43dp+0 0x1.5710abf27d1f3p+0
0x1.606f0028fec3ap-5 0x1.4136840e89f2ep-4 0x1.8420bb6051dacp+1 0x1.f75f08c03c053p-4 0x1.655b389e5cf2dp-3 0x1.795e22cbbece9p+1
0x1.406f9f37d93e2p-3 0x1.bfe2d29324a27p-4 0x1.75059d7342b85p+1 0x1.459787ec48031p-3 0x1.2863ad8977ff9p-4 0x1.796d860a89dfap+1
0x1.2c6db6d9e31b0p+1 0x1.6681a636278c1p-2 0x1.34264564e4f6cp-1 0x1.34fa5add6abc1p+1 0x1.3d075240b0567p-2 0x1.192ea095ad4aap-1
0x1.b640e51a67223p-2 0x1.94e88bcd1872ep-1 0x1.0974cd8ffab4fp+1 0x1.24bd256040980p+0 0x1.49b02e732df28p+0 0x1.859bb41a79bf4p+0
0x1.eee53fcc11960p-1 0x1.ee5a0846f5d57p-2 0x1.232de77db9b82p+1 0x1.4996b95174ba2p-1 0x1.0225879423c44p-2 0x1.0ef745794908ep+1
0x1.5f074a3b502f4p+1 0x1.83a2454012c06p-3 0x1.2779989265018p-2 0x1.56dbfe80243fcp+1 0x1.36972dd328be3p-2 0x1.3efd0738e847cp-2
0x1.2de4da1275c94p+0 0x1.3af6aaec2087dp+0 0x1.ef83e8eeccbfcp+0 0x1.5afb1ce494dcep-1 0x1.67fc4c28c6a9ap-1 0x1.4f1c3bd423733p+0
0x1.1c494341ece82p+1 0x1.6e2fe8b3f1140p+1 0x1.33a33bf9b318bp+1 0x1.2071b6bf3db48p-5 0x1.691f33579c659p-1 0x1.1a7dc94cd1bb7p-2
0x1.db3e2651eb7d8p+0 0x1.0cd826c72ddbap+1 0x1.15afad1fd7912p+1 0x1.a5260519f950cp-2 0x1.319eba2b804dcp-1 0x1.651283b71c956p-1
0x1.60d25e038a8b8p+0 0x1.51e72320c9848p+0 0x1.5548079b3f67dp+1 0x1.3a4a571a0b221p-2 0x1.57eef40779bf4p-2 0x1.8492f31262880p+0
0x1.2dd579e42f364p+1 0x1.c6e478d317addp-2 0x1.627f5723cf11ep-2 0x1.fcc5488c511cep-3 0x1.470e9398d9bb1p+1 0x1.39e5717a1e87fp+1
0x1.ca8c607940e87p-2 0x1.344ed993919dap+0 0x1.8f909f610e495p+0 0x1.7a88ba220d76cp+0 0x1.0abe16678a4efp-3 0x1.4d8b14d4371e1p+1
0x1.7310cf7a985a3p-4 0x1.d9a8d1c8f2ea4p-3 0x1.699407cab5fa3p+1 0x1.65466dd784c8bp-3 0x1.63b20e201d598p-2 0x1.646b18db2663cp+1
0x1.7434e0a25ed7ep-1 0x1.0cbdf6b80b83dp+0 0x1.969028e936166p+0 0x1.54cd9345b871ap-1 0x1.df9ffe14d6590p-1 0x1.d2b82b4cd0811p+0
0x1.5b1bb0d51ef7fp-2 0x1.91a95580f0e07p-2 0x1.3a4b57a64e234p+1 0x1.02133eaf3e99fp-1 0x1.1857c78ad1ffep-2 0x1.49d87d35c4cbcp+1
0x1.338cddb62c286p+0 0x1.0569cb8c9a147p+0 0x1.1a8075890248cp+0 0x1.ad9485f750024p+0 0x1.7805dbaed5d4dp-2 0x1.a4f167667ccb5p+0
0x1.2c360467c8fd2p+1 0x1.0de59aee553edp-1 0x1.40c07ab68ec2cp-2 0x1.477e5011e45ccp+1 0x1.03e5e21e6aa6ap-1 0x1.2dee6ef057838p-2
0x1.67b7e0eece8e4p-1 0x1.167b13f07adddp+1 0x1.5067d7f75c302p-1 0x1.b58dfe1d99fe1p-2 0x1.22944dc0ec91ap+1 0x1.1b301446cf038p-1
0x1.4e25037a2edf0p+1 0x1.9bfc738d47195p-2 0x1.531d4cbd75a24p-3 0x1.5a0df41c44001p+1 0x1.5a9288a3232bcp-2 0x1.90e7422f1dd83p-3
0x1.1e29a23ec233fp+0 0x1.c5face711916cp+0 0x1.6b3c9ebd02618p-2 0x1.f235bef8cf1f0p+0 0x1.b8f22e36bc6b8p-1 0x1.6a9306471211dp+0
0x1.800438b39f18ap-9 0x1.53ae4f6e7aba3p-9 0x1.916df03d91edfp+1 0x1.e9ed1116dcd63p-9 0x1.28a153c8f0163p-9 0x1.91af308725000p+1
0x1.022f91608d29bp-3 0x1.1e78fa5c9b456p-4 0x1.7b27c72d28c7ap+1 0x1.8dc58651e9c25p-4 0x1.5bae28cf07f81p-4 0x1.7d68e759d607dp+1
"""

# the rows from stdin in a fresh process, through output_digest.rows_digest
_ROWS_DIGEST_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import output_digest
rows = [[float.fromhex(x) for x in line.split()] for line in sys.stdin]
print(output_digest.rows_digest(rows, output_digest.ANGLE_COMMANDS))
"""


def test_formula_output_does_not_depend_on_the_kernels(output_digest):
    # the six angle commands use no numpy kernel whose bits vary by CPU:
    # their output is the same with numpy's AVX-512 kernels switched off
    # and with OpenBLAS forced to its Haswell kernels
    rows = [[float.fromhex(x) for x in line.split()] for line in FORMULA_SEED1_ROWS.splitlines()]
    digest = output_digest.rows_digest(rows, output_digest.ANGLE_COMMANDS)
    assert digest == "2630ca752ca8f5d919f08bd46f353d8218b865baeabcbfca7b72368ac3557fd4"
    for setting in ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
                    {"OPENBLAS_CORETYPE": "Haswell"}):
        result = subprocess.run([sys.executable, "-c", _ROWS_DIGEST_CODE, str(SCRIPTS)],
                                input=FORMULA_SEED1_ROWS, capture_output=True, text=True,
                                env={**os.environ, **setting})
        assert result.returncode == 0, result.stderr
        assert result.stdout == digest + "\n", setting

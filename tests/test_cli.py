import json
import os
import subprocess
import sys
from importlib.util import find_spec

import pytest

import stratmst
from stratmst import graph_from_edges, write_edge_list
from stratmst import bench
from stratmst.cli import build_parser, main
from stratmst.mst import SOLVERS, Metrics
from stratmst.validation import CLRS_EDGES, ValidationCase, run_validation


def write_graph(path, n, triples):
    g = graph_from_edges(n, triples)
    with open(path, "w") as stream:
        write_edge_list(g, stream)
    return path


@pytest.fixture
def clrs_file(tmp_path):
    return write_graph(tmp_path / "clrs.txt", 9, CLRS_EDGES)


def test_gen_grid_writes_file_and_summary(tmp_path, capsys):
    out = tmp_path / "g.txt"
    rc = main(["gen", "--family", "grid", "--rows", "4", "--cols", "4",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "16 24"
    assert out.read_text().splitlines()[0] == "16 24"


def test_gen_path_header(tmp_path, capsys):
    out = tmp_path / "p.txt"
    assert main(["gen", "--family", "path", "--n", "10", "--seed", "1",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "10 9"


def test_gen_defaults_to_stdout(capsys):
    assert main(["gen", "--family", "sparse", "--n", "20", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "20 24"  # header doubles as the n m summary
    assert len(lines) == 1 + 24


def test_gen_infeasible_params(capsys):
    rc = main(["gen", "--family", "sparse", "--n", "3", "--m", "9", "--seed", "1"])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err
    assert main(["gen", "--family", "path", "--n", "0"]) == 2
    assert capsys.readouterr().err == "error: need n >= 1, got 0\n"


def test_gen_grid_needs_dims(capsys):
    assert main(["gen", "--family", "grid", "--seed", "1"]) == 2
    assert "--rows" in capsys.readouterr().err
    for family in ("path", "sparse"):
        assert main(["gen", "--family", family]) == 2
        assert capsys.readouterr().err == f"error: {family} family needs --n\n"


def test_mst_eds_on_clrs(clrs_file, capsys):
    assert main(["mst", "--algo", "eds", "--input", str(clrs_file)]) == 0
    assert capsys.readouterr().out.strip() == "37.0000 8"


def test_mst_std_negative_weights(tmp_path, capsys):
    path = write_graph(tmp_path / "neg.txt", 3,
                       [(0, 1, -5.0), (1, 2, -3.0), (0, 2, -1.0)])
    assert main(["mst", "--algo", "std", "--input", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "-8.0000 2"


def test_mst_k1_matches_std(clrs_file, capsys):
    main(["mst", "--algo", "std", "--input", str(clrs_file)])
    std_out = capsys.readouterr().out
    main(["mst", "--algo", "eds", "--k", "1", "--input", str(clrs_file)])
    assert capsys.readouterr().out == std_out


def test_mst_metrics_json(clrs_file, capsys):
    assert main(["mst", "--algo", "eds", "--k", "4", "--metrics",
                 "--input", str(clrs_file)]) == 0
    err = capsys.readouterr().err
    payload = json.loads(err)
    # Peak RSS comes from the resource module, which Windows lacks.
    cli_fields = ["load_ns", *(["peak_rss_kb"] if find_spec("resource") else [])]
    assert list(payload) == [*Metrics._fields, *cli_fields]
    assert payload["sort_ops"] <= 14
    for name in cli_fields:
        assert type(payload[name]) is int and payload[name] > 0
    # Without --metrics, nothing goes to standard error.
    assert main(["mst", "--algo", "eds", "--k", "4", "--input", str(clrs_file)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mst", "--k", "x"], "expected an integer or 'auto', got 'x'"),
        (["mst", "--k", "0"], "stratum count must be >= 1, got 0"),
        (["sweep-k", "--k-values", "2,x"], "expected comma-separated integers, got '2,x'"),
        (["grid", "--density", "a"], "expected comma-separated numbers, got 'a'"),
    ],
)
def test_bad_option_values_exit_2(clrs_file, capsys, argv, message):
    if argv[0] != "grid":
        argv = [*argv, "--input", str(clrs_file)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(message)


def test_mst_missing_file(capsys):
    assert main(["mst", "--input", "/nonexistent/graph.txt"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_mst_malformed_file_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 1\n")
    assert main(["mst", "--input", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["1000000000000000000000000000000", "3000000000", str(2**31 + 1)])
def test_mst_rejects_a_vertex_count_past_the_limit(tmp_path, capsys, n):
    # Rejected at the header, before the solve asks for an n-slot forest.
    bad = tmp_path / "huge.txt"
    bad.write_text(f"{n} 1\n0 1 1.5\n")
    assert main(["mst", "--input", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {bad}: line 1: n={n} exceeds the limit of {2**31} vertices\n"


def test_mst_rejects_an_edge_count_past_the_limit(tmp_path, capsys):
    bad = tmp_path / "many.txt"
    bad.write_text(f"2 {2**31 + 1}\n0 1 1.5\n")
    assert main(["mst", "--input", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {bad}: line 1: m={2**31 + 1} exceeds the limit of {2**31} edges\n"


def test_mst_rejects_input_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"2 1\n0 1 \xff\n")
    assert main(["mst", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: input is not valid UTF-8 (invalid start byte)\n"


def _cli_child_env():
    """Environment whose ``python -m stratmst.cli`` imports this checkout's
    package, wherever pytest found it."""
    path = [os.path.dirname(os.path.dirname(stratmst.__file__))]
    path += filter(None, [os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


# Development mode with warnings as errors: a ResourceWarning in the child,
# such as an unclosed output file, fails the test as it would in-process.
CLI_CHILD = (sys.executable, "-X", "dev", "-W", "error", "-m", "stratmst.cli")


def test_python_m_cli_runs_main(clrs_file, tmp_path, capsys):
    env = _cli_child_env()
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 5 1.0\n")
    for args, rc in (
        (["mst", "--input", str(clrs_file), "--algo", "eds", "--k", "3"], 0),
        (["mst", "--input", str(bad)], 2),
    ):
        assert main(args) == rc
        want = capsys.readouterr()
        proc = subprocess.run(
            [*CLI_CHILD, *args], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, want.out, want.err)
    assert want.err.startswith("error: ") and "line 2" in want.err


def test_closed_stdout_pipe_exits_1_quietly():
    # The reader leaves after one line, as ``| head -1`` does, long before
    # the child has written its 100k edges.
    with subprocess.Popen(
        [*CLI_CHILD, "gen", "--family", "path", "--n", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_child_env(),
    ) as proc:
        assert proc.stdout.readline() == b"100000 99999\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


SOLVER_API = [
    "Boundaries", "EdgeListError", "EdgeRecord", "GraphSpec", "MstResult",
    "StrataParams", "WeightDist", "component_count", "exhaustive_mst", "gen_grid",
    "gen_path", "gen_random", "graph_from_edges", "kruskal_eds", "kruskal_heap",
    "kruskal_std", "load_edge_list", "mst_weight_equal", "optimal_k", "prim_dense",
    "read_edge_list", "sample_size", "write_edge_list",
]


def test_package_root_is_the_solver_api():
    # A fresh interpreter, since this one has long since imported the harness.
    probe = (
        "import json, sys, stratmst\n"
        "print(json.dumps({\n"
        "    'loaded': sorted(m for m in ('stratmst.bench', 'stratmst.validation',\n"
        "                                 'stratmst.cli') if m in sys.modules),\n"
        "    'all': sorted(stratmst.__all__),\n"
        "    'missing': [n for n in stratmst.__all__ if not hasattr(stratmst, n)],\n"
        "}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=_cli_child_env(), timeout=60, check=True,
    )
    assert json.loads(proc.stdout) == {"loaded": [], "all": SOLVER_API, "missing": []}


def test_cli_mst_leaves_the_report_harness_unloaded(clrs_file):
    # The CLI counterpart of the test above: neither importing the CLI nor
    # running ``mst`` loads the report harness. Nor ``dataclasses``, which
    # pulls in ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``),
    # about 1 MB that no ``mst`` run needs, nor ``json`` without
    # ``--metrics``. The harness itself, once imported, loads neither
    # ``dataclasses`` nor ``inspect`` either: its rows are NamedTuples. Only
    # modules the bare interpreter had not loaded count, so ``site`` and
    # ``.pth`` preloads do not.
    probe = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import stratmst.cli\n"
        "unneeded = ('stratmst.bench', 'stratmst.validation', 'dataclasses', 'inspect', 'json')\n"
        "def loaded(names=unneeded):\n"
        "    return sorted(m for m in names if m in sys.modules and m not in bare)\n"
        "print(loaded())\n"
        "rc = stratmst.cli.main(sys.argv[1:])\n"
        "print(rc, loaded())\n"
        "import stratmst.bench, stratmst.validation\n"
        "print(loaded(('dataclasses', 'inspect')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, "mst", "--input", str(clrs_file)],
        capture_output=True, text=True, env=_cli_child_env(), timeout=60, check=True,
    )
    assert proc.stdout.splitlines() == ["[]", "37.0000 8", "0 []", "[]"]


def test_report_commands_default_to_master_seed_7():
    commands = build_parser()._subparsers._group_actions[0].choices
    assert bench.DEFAULT_MASTER_SEED == 7
    for name in ("bench", "sweep-k", "grid"):
        assert commands[name].get_default("seed") == 7


def test_validate_all_pass(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 36  # 12 cases x 3 algorithms
    assert all(line.startswith("PASS") for line in lines)


def _wrong_total_case():
    triangle = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    return ValidationCase("triangle-wrong", triangle, 4.0)  # true total is 3.0


def test_run_validation_rejects_wrong_expected_total():
    results = run_validation([_wrong_total_case()])
    assert [r.algo for r in results] == ["std", "eds", "heap"]
    assert not any(r.passed for r in results)


def test_run_validation_accepts_an_overflowing_total():
    # Finite weights whose sum overflows: every total and the oracle's are inf.
    overflow = graph_from_edges(3, [(0, 1, 1e308), (1, 2, 1e308)])
    results = run_validation([ValidationCase("overflow", overflow, None)])
    assert [r.algo for r in results] == ["std", "eds", "heap"]
    assert all(r.passed for r in results)


def test_validate_detects_injected_fault(monkeypatch, capsys):
    monkeypatch.setattr("stratmst.validation.make_cases", lambda: [_wrong_total_case()])
    assert main(["validate"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"FAIL triangle-wrong {algo} 3.0000" for algo in ("std", "eds", "heap")]


def test_solver_registry_drives_cli_and_bench():
    mst_parser = build_parser()._subparsers._group_actions[0].choices["mst"]
    algo = next(a for a in mst_parser._actions if a.dest == "algo")
    assert tuple(SOLVERS) == tuple(algo.choices) == bench.ALGOS == ("std", "eds", "heap")


def test_gen_then_mst_round_trip_all_families(tmp_path, capsys):
    specs = [
        ("sparse", ["--n", "30"]),
        ("medium", ["--n", "30"]),
        ("dense", ["--n", "15"]),
        ("normal", ["--n", "30"]),
        ("power", ["--n", "30"]),
        ("clustered", ["--n", "30"]),
        ("grid", ["--rows", "5", "--cols", "6"]),
        ("path", ["--n", "30"]),
    ]
    out = tmp_path / "g.txt"
    for family, flags in specs:
        for seed in range(20):
            assert main(["gen", "--family", family, *flags,
                         "--seed", str(seed), "--out", str(out)]) == 0
            capsys.readouterr()
            main(["mst", "--algo", "std", "--input", str(out)])
            std_line = capsys.readouterr().out
            main(["mst", "--algo", "eds", "--seed", str(seed), "--input", str(out)])
            eds_line = capsys.readouterr().out
            assert std_line == eds_line, (family, seed)


def test_bench_cli_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--trials", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("graph,family,n,m,algo")
    assert len(lines) == 1 + 14 * 3
    assert len(capsys.readouterr().err.splitlines()) == 14  # summary per config


def test_sweep_k_cli(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    main(["gen", "--family", "sparse", "--n", "100", "--m", "150",
          "--seed", "2", "--out", str(graph)])
    capsys.readouterr()
    out = tmp_path / "sweep.csv"
    assert main(["sweep-k", "--input", str(graph),
                 "--k-values", "2,5,10,20,50,100,200,500",
                 "--trials", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 8


def test_profile_cli_with_sidecar(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    main(["gen", "--family", "sparse", "--n", "200", "--m", "300",
          "--seed", "9", "--out", str(graph)])
    capsys.readouterr()
    out = tmp_path / "profile.csv"
    assert main(["profile", "--input", str(graph), "--k", "7",
                 "--seed", "9", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "stratum,fraction"
    assert len(lines) == 1 + 7
    sidecar = json.loads((tmp_path / "profile.csv.meta.json").read_text())
    assert sidecar["k"] == 7
    assert sidecar["seed"] == 9


def test_report_commands_reject_zero_trials(clrs_file, capsys):
    for command in (["bench"], ["sweep-k", "--input", str(clrs_file)], ["grid"]):
        assert main([*command, "--trials", "0"]) == 2
        assert capsys.readouterr().err == "error: trials must be >= 1, got 0\n"


def test_sweep_k_and_profile_reject_bad_k(tmp_path, capsys):
    graph = write_graph(tmp_path / "g.txt", 3, [(0, 1, 1.0), (1, 2, 2.0)])
    assert main(["sweep-k", "--input", str(graph), "--k-values", "0,2"]) == 2
    assert "stratum count" in capsys.readouterr().err
    assert main(["profile", "--input", str(graph), "--k", "0"]) == 2
    assert "stratum count" in capsys.readouterr().err


def test_grid_cli(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["grid", "--n", "60", "--density", "0.1,0.5",
                 "--skew", "0,1", "--trials", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "density,skew,m,ops_ratio"
    assert len(lines) == 1 + 4
    sidecar = json.loads((tmp_path / "grid.csv.meta.json").read_text())
    assert "skew_to_alpha" in sidecar


def test_unwritable_out_is_a_clean_error(clrs_file, tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    commands = (
        ["gen", "--family", "path", "--n", "5"],
        ["bench", "--trials", "1"],
        ["sweep-k", "--input", str(clrs_file), "--k-values", "2", "--trials", "1"],
        ["profile", "--input", str(clrs_file), "--k", "2"],
        ["grid", "--n", "20", "--density", "0.5", "--skew", "0", "--trials", "1"],
    )
    for command in commands:
        for out, reason in ((not_a_dir / "x.csv", "Not a directory"), (tmp_path, "Is a directory")):
            assert main([*command, "--out", str(out)]) == 2, command
            assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n", command
    # The CSV is written; then its sidecar path turns out to be a directory.
    out = tmp_path / "profile.csv"
    (tmp_path / "profile.csv.meta.json").mkdir()
    assert main([*commands[3], "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}.meta.json: Is a directory\n"
    assert out.read_text().startswith("stratum,fraction")
    # Opening /dev/full succeeds; the write or the close then fails.
    if os.path.exists("/dev/full"):
        for command in (commands[0], commands[2]):
            assert main([*command, "--out", "/dev/full"]) == 2, command
            assert capsys.readouterr().err == (
                "error: cannot write /dev/full: No space left on device\n"
            ), command

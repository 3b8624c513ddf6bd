import json

from digraphwalk.cli import EXIT_MISMATCH, EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, main

from util import FIG_ARCS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_example_matrix(capsys):
    code, out, _ = run(capsys, "build", "--arcs", FIG_ARCS, "--eta", "1/2",
                       "--ops", "K,C,Stheta,Utheta")
    assert code == EXIT_OK
    assert "# K" in out and "# Utheta" in out
    assert "1/sqrt(3)" in out
    assert "z(4)" in out


def test_build_family_hermitian_is_all_ones_off_diagonal(capsys):
    code, out, _ = run(capsys, "build", "--family", "Y 0 3", "--ops", "Heta")
    assert code == EXIT_OK
    rows = [line.split() for line in out.splitlines()[1:4]]
    assert rows == [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]


def test_build_code_and_arcs_agree(capsys):
    _, out_arcs, _ = run(capsys, "build", "--arcs", FIG_ARCS, "--ops", "Utheta")
    _, out_code, _ = run(capsys, "build", "--code", "300212", "--ops", "Utheta")
    assert out_arcs == out_code


def test_build_rejects_empty_graph(capsys):
    code, _, err = run(capsys, "build", "--family", "E 4", "--ops", "K")
    assert code == EXIT_PRECONDITION
    assert "no arcs" in err


def test_parse_failures_exit_four(capsys):
    assert run(capsys, "build", "--arcs", "n=2; 0->9")[0] == EXIT_PARSE
    assert run(capsys, "build", "--arcs", "n=2; 0->1", "--eta", "7/3")[0] == EXIT_PARSE
    assert run(capsys, "build", "--arcs", "n=2; 0->1", "--ops", "Q")[0] == EXIT_PARSE
    assert run(capsys, "build")[0] == EXIT_PARSE
    assert run(capsys, "nope")[0] == EXIT_PARSE


def test_spectrum_routes_agree(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "Y 2 5", "--eta", "1/2",
                       "--route", "both")
    assert code == EXIT_OK
    blob = json.loads(out)
    mapping = blob["mapping"]["eigs"]
    assert sum(e["mult"] for e in mapping) == 20
    ones = [e for e in mapping if abs(e["re"] - 1) < 1e-9 and abs(e["im"]) < 1e-9]
    assert sum(e["mult"] for e in ones) == 10 - 5 + 2


def test_spectrum_zero_angle_is_grover(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "K 3", "--eta", "0",
                       "--route", "both")
    assert code == EXIT_OK
    eigs = json.loads(out)["mapping"]["eigs"]
    mult = {(round(e["re"], 4), round(e["im"], 4)): e["mult"] for e in eigs}
    assert mult == {(1.0, 0.0): 2, (-0.5, 0.866): 2, (-0.5, -0.866): 2}


def test_spectrum_disconnected_rejected(capsys):
    code, _, err = run(capsys, "spectrum", "--arcs", "n=4; 0->1; 2->3")
    assert code == EXIT_PRECONDITION
    assert "component" in err


def test_supports_tournament_zero(capsys):
    code, out, _ = run(capsys, "supports", "--arcs", "n=3; 0->1; 1->2; 2->0",
                       "--eta", "1/2", "--power", "2", "--sign", "+")
    assert code == EXIT_OK
    grid = [line for line in out.splitlines() if line and not line.startswith(("#", "{"))]
    assert all(set(line.split()) == {"0"} for line in grid)
    assert json.loads(out.splitlines()[-1]) == {"half_trace_positive_square": 0}


def test_supports_verify_square_regime_three(capsys):
    code, out, _ = run(capsys, "supports", "--family", "K 4", "--eta", "3/4",
                       "--verify-square")
    assert code == EXIT_OK
    assert "regime 3" in out and "holds" in out


def test_tables_verify_small(capsys):
    code, out, err = run(capsys, "tables", "--order", "2-3", "--table", "H",
                         "--verify-paper", "--format", "json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["rows"]["Number of digraphs"] == [3, 16]
    assert "verified against published values" in err


def test_tables_order_past_six_refused_before_classing(capsys, monkeypatch):
    import digraphwalk.cli as cli

    def classify(*args, **kwargs):
        raise AssertionError("classify called before the order range was checked")

    monkeypatch.setattr(cli, "classify", classify)
    code, out, err = run(capsys, "tables", "--order", "6-7", "--table", "A")
    assert code == EXIT_PRECONDITION and out == ""
    assert "[7]" in err and len(err.strip().splitlines()) == 1


def test_tables_descending_order_range_is_parse_error(capsys):
    code, out, err = run(capsys, "tables", "--order", "5-3", "--table", "all",
                         "--verify-paper")
    assert code == EXIT_PARSE
    assert "--order" in err and "verified" not in err and not out


def test_tables_jobs_below_one_is_parse_error(capsys):
    code, out, err = run(capsys, "tables", "--order", "3", "--jobs", "0")
    assert code == EXIT_PARSE
    assert "--jobs" in err and not out


def test_tables_functor_override(capsys, tmp_path):
    out_file = tmp_path / "t.csv"
    code, _, _ = run(capsys, "tables", "--order", "2", "--functor", "Heta",
                     "--eta", "1/3", "--format", "csv", "--output", str(out_file))
    assert code == EXIT_OK
    assert out_file.read_text().splitlines()[1] == '"Number of digraphs",3'


def test_tables_mismatch_exit_code(capsys, monkeypatch):
    import digraphwalk.tables as tables_mod

    bad = dict(tables_mod.PUBLISHED_CELLS)
    bad["H"] = {**bad["H"], 2: (3, 2, 2, 1, 0, 1, 2)}
    monkeypatch.setattr(tables_mod, "PUBLISHED_CELLS", bad)
    code, _, err = run(capsys, "tables", "--order", "2", "--table", "H", "--verify-paper")
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in err


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--max-order", "2")
    assert code == EXIT_OK
    assert "operator identities" in out


def test_verify_max_order_below_two_is_parse_error(capsys):
    code, out, err = run(capsys, "verify", "--max-order", "1")
    assert code == EXIT_PARSE
    assert "--max-order" in err and "ok" not in out


def test_float_eta_escape_hatch(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "K 3", "--float-eta", "0.7",
                       "--route", "eigen")
    assert code == EXIT_OK
    assert all(abs(abs(complex(e["re"], e["im"])) - 1) < 1e-9
               for e in json.loads(out)["eigensolver"]["eigs"])
    # the mapping route needs an exact angle
    assert run(capsys, "spectrum", "--family", "K 3", "--float-eta", "0.7")[0] == EXIT_PRECONDITION
    # support and classing subcommands do not accept a floating angle at all
    assert run(capsys, "supports", "--family", "K 3", "--float-eta", "0.7")[0] == EXIT_PARSE
    assert run(capsys, "tables", "--order", "2", "--float-eta", "0.7")[0] == EXIT_PARSE
    # building the floating transfer matrix works, everything else is refused
    code, out, _ = run(capsys, "build", "--family", "K 3", "--float-eta", "0.7",
                       "--ops", "Utheta")
    assert code == EXIT_OK and "floating angle" in out
    assert run(capsys, "build", "--family", "K 3", "--float-eta", "0.7",
               "--ops", "K")[0] == EXIT_PARSE


def test_module_entry_point_runs_from_a_checkout():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "digraphwalk", "supports", "--family", "K 4",
                           "--eta", "2/5", "--power", "3", "--sign", "+,-"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "# support power=3 sign=+" in proc.stdout and "# support power=3 sign=-" in proc.stdout


def test_importing_the_module_entry_point_runs_nothing(capsys):
    # tools that import every module of the package (bench/tracing.py) must
    # not start the CLI
    import importlib

    importlib.import_module("digraphwalk.__main__")
    assert capsys.readouterr() == ("", "")

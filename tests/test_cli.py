import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from test_golden_massey import GOLDEN as GOLDEN_MASSEY
from test_golden_massey import QUERIES as MASSEY_QUERIES
from test_golden_massey import _digest as massey_digest
from twistss.cli import build_parser, main
from twistss.models import model_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_bundled_name(capsys):
    code, out, err = run(capsys, "analyze", "torus3", "--twist", "e1^e2^e3")
    assert code == 0
    assert "twisted cohomology: even 3, odd 3" in out
    assert "overall: PASS" in out


def test_analyze_by_path(capsys):
    code, out, _ = run(capsys, "analyze", model_path("su3"), "--twist", "x3")
    assert code == 0
    assert "even 0, odd 0" in out


def test_analyze_untwisted(capsys):
    code, out, _ = run(capsys, "analyze", "heisenberg")
    assert code == 0
    assert "overall: PASS" in out


def test_analyze_json_round_trip(capsys, tmp_path):
    target = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "analyze", "cascade3", "--twist", "a", "--format", "json", "--out", str(target)
    )
    assert code == 0
    text = target.read_text()
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert doc["overall"] == "pass"
    re_emitted = json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=2) + "\n"
    assert re_emitted == text


def test_analyze_max_page(capsys):
    code, out, _ = run(capsys, "analyze", "torus3", "--twist", "e1^e2^e3", "--max-page", "3")
    assert code == 0
    assert "E_3" in out and "E_4" not in out


def test_analyze_max_page_names_the_cut(capsys):
    # the Massey verdicts check nothing below page 5: the detail names the cut,
    # not a lack of classes, which the full analysis has
    code, out, _ = run(capsys, "analyze", "cascade5", "--twist", "a", "--max-page", "3")
    assert code == 0
    for verdict in ("massey_differentials", "single_twist_case_table", "route_compatibility"):
        assert f"N/A   {verdict}  (pages 5 and up are past --max-page 3)" in out
    code, out, _ = run(capsys, "analyze", "cascade5", "--twist", "a", "--max-page", "6")
    assert "PASS  massey_differentials  (6 classes checked)" in out
    cut = "no classes hit the iterated case on pages 5 to 6; --max-page 6 cuts the rest"
    assert f"N/A   route_compatibility  ({cut})" in out
    code, out, _ = run(capsys, "analyze", "cascade5", "--twist", "a")
    assert "PASS  massey_differentials  (10 classes checked)" in out
    assert "PASS  route_compatibility  (2 classes checked)" in out


def test_analyze_missing_model_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "no_such_model_anywhere")
    assert code == 2
    assert "error" in err


def test_analyze_bad_twist_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "torus3", "--twist", "e1")
    assert code == 2
    assert "degree >= 3" in err


@pytest.mark.parametrize(
    "name,expr,message",
    [
        ("torus3", "e1", "degree >= 3"),
        ("torus3", "e1^e2", "even degree 2"),
        ("torus3", "e1 + e1^e2^e3", "degree >= 3"),
        ("cascade3", "v", "degree 5 is not closed"),
    ],
)
def test_invalid_twist_exits_2_with_its_message(capsys, name, expr, message):
    # the twist checks sit in the TwistForm constructor; both commands that
    # take a twist still reject these expressions with exit code 2
    for command in (["analyze", name], ["massey", name, "--triple", "1", "1", "1"]):
        code, _, err = run(capsys, *command, "--twist", expr)
        assert code == 2
        assert err.startswith("error: ") and message in err


def test_analyze_exponent_coefficient_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "torus3", "--twist", "1e1000000*e1^e2^e3")
    assert code == 2
    assert err.startswith("error:")
    assert "bad rational coefficient" in err


@pytest.mark.parametrize("twist", ["e1^e2^e3 -", "-"])
def test_analyze_dangling_operator_exits_2(capsys, twist):
    code, out, err = run(capsys, "analyze", "torus3", "--twist", twist)
    assert code == 2
    assert out == ""
    assert err == f"error: operator without a term in expression {twist!r}\n"


def test_analyze_corrupt_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "JSON" in err


def test_massey_triple(capsys):
    code, out, _ = run(capsys, "massey", "heisenberg", "--triple", "a", "b", "b")
    assert code == 0
    assert "nonzero" in out


def test_massey_banded(capsys):
    code, out, _ = run(
        capsys, "massey", "torus3", "--twist", "e1^e2^e3", "--thm41", "--class", "e1", "--t", "1"
    )
    assert code == 0
    assert "matches" in out


def test_massey_diagonal_d9(capsys):
    code, out, _ = run(
        capsys, "massey", "cascade5", "--twist", "a", "--thm42", "--class", "x", "--t", "3", "--s", "2"
    )
    assert code == 0
    assert "matches" in out
    assert "a^v" in out


SYSTEM_QUERIES = pytest.mark.parametrize(
    "query",
    [
        ["torus3", "--twist", "e1^e2^e3", "--thm41", "--class", "e1", "--t", "1"],
        ["cascade5", "--twist", "a", "--thm42", "--class", "x", "--t", "3", "--s", "2"],
    ],
    ids=["thm41", "thm42"],
)


@SYSTEM_QUERIES
def test_massey_validates_the_system_once(capsys, monkeypatch, query):
    import twistss.massey as massey

    calls = []

    def counting(system):
        calls.append(system)
        return validate(system)

    import twistss.cli as cli

    validate = massey.validate_defining_system
    monkeypatch.setattr(massey, "validate_defining_system", counting)
    # the command module must not validate by a binding of its own either
    monkeypatch.setattr(cli, "validate_defining_system", counting, raising=False)
    code, out, _ = run(capsys, "massey", *query)
    assert code == 0 and "matches" in out
    assert len(calls) == 1


@SYSTEM_QUERIES
def test_massey_builds_the_related_cocycle_once(capsys, monkeypatch, query):
    import twistss.cli as cli
    import twistss.massey as massey

    calls = []
    related = massey.related_cocycle

    def counting(system):
        calls.append(system)
        return related(system)

    monkeypatch.setattr(massey, "related_cocycle", counting)
    monkeypatch.setattr(cli, "related_cocycle", counting, raising=False)
    code, out, _ = run(capsys, "massey", *query)
    assert code == 0 and "matches" in out
    assert len(calls) == 1


def test_massey_diagonal_not_applicable(capsys):
    code, out, _ = run(
        capsys, "massey", "cascade5", "--twist", "a", "--thm42", "--class", "x", "--t", "2", "--s", "2"
    )
    assert code == 0
    assert "not applicable" in out


def test_analyze_point_model_passes(capsys, tmp_path):
    # top degree 0: the last page is 2, so there is no d_3 to check
    path = tmp_path / "pt.json"
    path.write_text(json.dumps({
        "name": "pt",
        "top_degree": 0,
        "basis": {"0": ["1"]},
        "mult": [{"left": "1", "right": "1", "result": "1"}],
    }))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0, err
    assert "N/A   d3_cup_rule" in out
    assert "overall: PASS" in out


def test_massey_zero_class_exits_2(capsys):
    code, out, err = run(
        capsys, "massey", "cascade5", "--twist", "a", "--thm42", "--class", "0", "--t", "3", "--s", "2"
    )
    assert code == 2
    assert out == ""
    assert "x_p must be a nonzero homogeneous form" in err
    assert "Traceback" not in err


def test_massey_dead_class_exits_2(capsys):
    code, _, err = run(
        capsys, "massey", "torus3", "--twist", "e1^e2^e3", "--thm41", "--class", "1", "--t", "1"
    )
    assert code == 2
    assert "survive" in err


def test_massey_t_past_the_last_page_exits_2_before_any_work(capsys):
    # torus3 has pages 1..5, so --t 400 (page 803) is rejected at once
    start = time.perf_counter()
    code, out, err = run(
        capsys, "massey", "torus3", "--twist", "e1^e2^e3", "--thm41", "--class", "e1", "--t", "400"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "page 803, past the last page 5" in err


@pytest.mark.parametrize(
    "doc,message",
    [
        (
            {
                "name": "g",
                "top_degree": 3.9,
                "generators": [{"name": "a", "degree": 1.5}, {"name": "b", "degree": True}],
            },
            "degree of generator 'a' must be an integer, got 1.5",
        ),
        (
            {"name": "g", "top_degree": 3.9, "generators": [{"name": "a", "degree": 1}]},
            "top_degree must be an integer, got 3.9",
        ),
        (
            {"name": "g", "top_degree": 1, "generators": [{"name": "b", "degree": True}]},
            "degree of generator 'b' must be an integer, got True",
        ),
        (
            {"name": "g", "top_degree": 2, "generators": [{"name": "a+b", "degree": 1}, {"name": "c", "degree": 1}]},
            "generator name 'a+b' contains '+'",
        ),
        (
            {"name": "g", "top_degree": 1, "generators": [{"name": "", "degree": 1}]},
            "generator name '' is empty",
        ),
        # a basis-form entry listed twice
        (
            {"name": "b", "top_degree": 3, "basis": {"0": ["1"], "3": ["a"], "03": ["b"]}},
            "basis degree 3 is listed twice",
        ),
        (
            {
                "name": "b",
                "top_degree": 0,
                "basis": {"0": ["1"]},
                "mult": [{"left": "1", "right": "1", "result": "1"}] * 2,
            },
            "product '1'^'1' is listed twice",
        ),
        (
            {
                "name": "b",
                "top_degree": 1,
                "basis": {"0": ["1"]},
                "mult": [{"left": "1", "right": "1", "result": "1"}],
                "diff": [{"from": "1", "result": "0"}] * 2,
            },
            "differential of '1' is listed twice",
        ),
    ],
)
def test_analyze_bad_model_numbers_and_names_exit_2(capsys, tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert message in err


def test_analyze_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert "nested too deeply" in err


def test_massey_missing_args_exit_2(capsys):
    code, _, err = run(capsys, "massey", "torus3", "--thm41")
    assert code == 2


def _rejected(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_massey_s_must_be_positive(capsys, value):
    code, err = _rejected(
        capsys, "massey", "cascade5", "--twist", "a", "--thm42", "--class", "x", "--t", "3", "--s", value
    )
    assert code == 2
    assert "--s: must be at least 1" in err


@pytest.mark.parametrize("value", ["-1", "0"])
def test_analyze_max_page_must_be_positive(capsys, value):
    code, err = _rejected(capsys, "analyze", "torus3", "--twist", "e1^e2^e3", "--max-page", value)
    assert code == 2
    assert "--max-page: must be at least 1" in err


@pytest.mark.parametrize("value", ["0", "-2", "three"])
def test_massey_t_must_be_positive_int(capsys, value):
    code, err = _rejected(
        capsys, "massey", "torus3", "--twist", "e1^e2^e3", "--thm41", "--class", "e1", "--t", value
    )
    assert code == 2
    assert "argument --t" in err


def test_python_dash_m_from_a_checkout():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "twistss", "analyze", "torus3", "--twist", "e1^e2^e3"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout


# -- one argument parser per process --------------------------------------------------


def _python(*args, code=None):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, *(("-c", code) if code else args)]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_builds_no_parser_and_main_builds_one():
    # the parser is built by the first main() call and kept, not built at import
    out = _python(
        code="""
import argparse, contextlib, io, json
built = []
real = argparse.ArgumentParser.__init__
def init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    real(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = init
import twistss.cli
counts = [len(built)]
for _ in range(3):
    with contextlib.redirect_stdout(io.StringIO()):
        twistss.cli.main(["massey", "torus3", "--triple", "e1", "e1", "e1"])
    counts.append(len(built))
print(json.dumps(counts))
"""
    )
    counts = json.loads(out)
    assert counts[0] == 0 and counts[1] > 0 and counts[1:] == [counts[1]] * 3


def test_errors_leave_the_kept_parser_as_it_was(capsys):
    golden = json.loads(GOLDEN_MASSEY.read_text())
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["massey", "torus3", "--t", "0"])
    assert exc.value.code == 2
    assert main(["massey", "torus3", "--twist", "e1^e2^e3", "--thm41", "--t", "1"]) == 2
    capsys.readouterr()
    for query in (MASSEY_QUERIES[0], MASSEY_QUERIES[13], MASSEY_QUERIES[-1]):
        assert massey_digest(query) == golden[query]


def test_python_dash_m_massey_prints_what_a_later_in_process_call_prints():
    query = "cascade7 --twist a --thm41 --class x --t 2"
    golden = json.loads(GOLDEN_MASSEY.read_text())[query]
    for other in [q for q in MASSEY_QUERIES if q != query][:20]:
        massey_digest(other)
    assert massey_digest(query) == golden
    stdout = _python("-m", "twistss", "massey", *shlex.split(query))
    assert hashlib.sha256(stdout).hexdigest() == golden["stdout_sha256"]

"""Command-line behavior: output bytes, exit codes, and format switches."""

import io
import json
from time import perf_counter

import pytest

from matchorder import cli, suites
from matchorder.permgraphs import LabeledGraph, from_dot


def run(*argv):
    buffer = io.StringIO()
    code = cli.main(list(argv), stdout=buffer)
    return code, buffer.getvalue()


def test_compare_comparable_text():
    code, out = run("compare", "2143", "3142")
    assert code == 0
    assert out == "comparable\nswap 2 3\n"


def test_compare_incomparable_text():
    code, out = run("compare", "412563", "41263785")
    assert code == 0
    assert out == "incomparable\n"


def test_compare_json_document():
    code, out = run("compare", "--format", "json", "2143", "3142")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "perm"
    assert doc["start"] == "2143"
    assert doc["end"] == "3142"
    assert doc["comparable"] is True
    assert doc["certificate"] == ["swap 2 3"]
    assert doc["states_explored"] >= 1


def test_compare_matchings():
    code, out = run(
        "compare", "--kind", "matching", "--moves", "I", "1-2", "1-3"
    )
    assert code == 0
    assert out == "comparable\nIb 1-2 -> 1-3\n"


def test_compare_budget_exit_code():
    code, out = run("compare", "--budget", "2", "2143", "41263785")
    assert code == 2
    assert out == "budget\n"


def test_compare_budget_json_document():
    code, out = run("compare", "--format", "json", "--budget", "2", "2143", "41263785")
    assert code == 2
    assert out == (
        '{"kind": "perm", "start": "2143", "end": "41263785", '
        '"comparable": "budget", "certificate": null, "states_explored": 3}\n'
    )


def test_compare_with_rewrite_rule():
    code, out = run(
        "compare", "--moves", "I,II,x:231-312", "412563", "41263785"
    )
    assert code == 0
    assert out.startswith("comparable\nrule 231-312 @ 4\n")


def test_bad_permutation_literal(capsys):
    code, out = run("compare", "2143", "31x2")
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error: bad permutation literal")


def test_unknown_move_name(capsys):
    code, _ = run("compare", "--moves", "I,bogus", "21", "12")
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_missing_arguments(capsys):
    code, _ = run("compare", "2143")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_antichain_text():
    code, out = run("antichain", "412563", "41263785", "3142")
    assert code == 0
    assert out == "1 2 incomparable\n1 3 incomparable\n2 3 incomparable\nantichain\n"


def test_antichain_not_an_antichain():
    code, out = run("antichain", "2143", "3142")
    assert code == 0
    assert out == "1 2 comparable\nnot an antichain\n"


def test_antichain_json():
    code, out = run("antichain", "--format", "json", "3142", "2143")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "antichain"
    assert doc["pairs"] == [{"i": 1, "j": 2, "comparable": False}]


def test_antichain_budget_exit_code():
    code, out = run("antichain", "--budget", "2", "2143", "41263785")
    assert code == 2
    assert out.endswith("budget\n")


def test_antichain_budget_json():
    code, out = run(
        "antichain", "--format", "json", "--budget", "2", "2143", "41263785"
    )
    assert code == 2
    assert out == (
        '{"pairs": [{"i": 1, "j": 2, "comparable": "budget"}], "verdict": "budget"}\n'
    )


def test_fork_perm():
    assert run("fork", "--n", "1") == (0, "412563\n")
    assert run("fork", "--n", "2", "--emit", "perm") == (0, "41263785\n")


def test_fork_graph_text_and_dot():
    code, out = run("fork", "--n", "1", "--emit", "graph")
    assert code == 0
    assert out == "n=6; 1-4 2-4 3-4 3-5 3-6\n"
    code, out = run("fork", "--n", "2", "--emit", "graph", "--format", "dot")
    assert code == 0
    assert from_dot(out) == LabeledGraph.from_text(
        "n=8; 1-4 2-4 3-4 3-6 5-6 5-7 5-8"
    )


def test_fork_matching():
    code, out = run("fork", "--n", "1", "--emit", "matching")
    assert code == 0
    assert out == "1-11 2-10 3-7 4-12 5-9 6-8\n"


def test_fork_json():
    assert run("fork", "--n", "1", "--format", "json") == (
        0,
        '{"permutation": "412563"}\n',
    )
    assert run("fork", "--n", "1", "--emit", "matching", "--format", "json") == (
        0,
        '{"matching": "1-11 2-10 3-7 4-12 5-9 6-8"}\n',
    )
    assert run("fork", "--n", "1", "--emit", "graph", "--format", "json") == (
        0,
        '{"n": 6, "edges": [[1, 4], [2, 4], [3, 4], [3, 5], [3, 6]]}\n',
    )


def test_fork_dot_needs_graph_output(capsys):
    code, _ = run("fork", "--n", "1", "--format", "dot")
    assert code == 1
    assert "dot output" in capsys.readouterr().err


def test_fork_rejects_non_positive_n(capsys):
    code, _ = run("fork", "--n", "0")
    assert code == 1
    assert "positive" in capsys.readouterr().err


def test_fork_builds_without_graph_recovery(monkeypatch):
    from matchorder import permgraphs

    def refuse(g):
        raise AssertionError("fork must not recover a permutation from a graph")

    monkeypatch.setattr(permgraphs, "koh_ree_check", refuse)
    assert run("fork", "--n", "5") == (0, "4,1,2,6,3,8,5,10,7,12,9,13,14,11\n")
    assert run("fork", "--n", "5", "--emit", "graph") == (
        0,
        "n=14; 1-4 2-4 3-4 3-6 5-6 5-8 7-8 7-10 9-10 9-12 11-12 11-13 11-14\n",
    )
    assert run("fork", "--n", "5", "--emit", "matching") == (
        0,
        "1-27 2-26 3-24 4-28 5-22 6-25 7-20 8-23 9-18 10-21 11-15 12-19 13-17 14-16\n",
    )


@pytest.mark.parametrize("emit", ["perm", "matching", "graph"])
def test_fork_is_fast_at_n_2000(emit):
    started = perf_counter()
    code, out = run("fork", "--n", "2000", "--emit", emit)
    assert code == 0 and out
    assert perf_counter() - started < 0.5


def test_graph_text():
    assert run("graph", "412563") == (0, "n=6; 1-4 2-4 3-4 3-5 3-6\n")
    assert run("graph", "3214") == (0, "n=4; 1-2 1-3 2-3\n")


def test_graph_json_and_dot():
    code, out = run("graph", "--format", "json", "3214")
    assert code == 0
    assert json.loads(out) == {"n": 4, "edges": [[1, 2], [1, 3], [2, 3]]}
    code, out = run("graph", "--format", "dot", "3214")
    assert code == 0
    assert from_dot(out) == LabeledGraph.from_text("n=4; 1-2 1-3 2-3")


def test_decompose():
    assert run("decompose", "1-5 2-3 4-8 6-7") == (0, "1-5 2-3\n4-8 6-7\n")
    code, out = run("decompose", "--format", "json", "1-2 3-4")
    assert code == 0
    assert json.loads(out) == {"pieces": ["1-2", "3-4"]}


def test_decompose_rejects_imperfect_input(capsys):
    code, _ = run("decompose", "1-3")
    assert code == 1
    assert "not perfect" in capsys.readouterr().err


def test_recognize():
    assert run("recognize", "n=4; 1-2 1-3 2-3") == (0, "1432\n")
    assert run("recognize", "n=5; 1-2 2-3 3-4 4-5 1-5") == (
        0,
        "not a permutation graph\n",
    )
    code, out = run("recognize", "--format", "json", "n=3; 1-2 2-3 1-3")
    assert code == 0
    assert json.loads(out) == {"permutation": "321"}


def test_recognize_cap(capsys):
    code, _ = run("recognize", "n=9;")
    assert code == 1
    assert "capped" in capsys.readouterr().err
    assert run("recognize", "--cap", "9", "n=9;")[0] == 0


def test_recognize_rejects_the_empty_graph(capsys):
    assert run("recognize", "n=0;") == (1, "")
    assert capsys.readouterr().err == "error: recognition needs at least one vertex\n"


def _compare_document(*argv):
    _, out = run("compare", "--format", "json", *argv)
    return out


def test_verify_from_file(tmp_path):
    doc = _compare_document("2143", "34152")
    path = tmp_path / "result.json"
    path.write_text(doc, encoding="utf-8")
    assert run("verify", str(path)) == (0, "valid\n")


def test_verify_from_stdin(monkeypatch):
    doc = _compare_document("--kind", "matching", "1-4 2-3", "1-3 2-4")
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert run("verify") == (0, "valid\n")


def test_verify_flags_a_tampered_end(tmp_path):
    doc = json.loads(_compare_document("2143", "3142"))
    doc["end"] = "2341"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run("verify", str(path))
    assert code == 0
    assert out == "invalid: end mismatch\n"


def test_verify_flags_an_illegal_step(tmp_path):
    doc = json.loads(_compare_document("2143", "3142"))
    doc["certificate"] = ["swap 1 2"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run("verify", str(path))
    assert code == 0
    assert out.startswith("invalid at step 0:")


def test_verify_json_format(tmp_path):
    doc = _compare_document("2143", "3142")
    path = tmp_path / "result.json"
    path.write_text(doc, encoding="utf-8")
    code, out = run("verify", "--format", "json", str(path))
    assert code == 0
    assert json.loads(out) == {"valid": True, "failed_step": None, "reason": None}


def test_verify_json_reports_an_illegal_step(tmp_path):
    doc = json.loads(_compare_document("2143", "3142"))
    doc["certificate"] = ["swap 1 2"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run("verify", "--format", "json", str(path)) == (
        0,
        '{"valid": false, "failed_step": 0, '
        '"reason": "swap needs 1 positioned before 2"}\n',
    )


def test_verify_time_follows_the_edges_not_the_labels(monkeypatch):
    # each step's interval side condition spans about 10**9 vertex labels
    big = 10**9
    cases = [
        (f"1-{big + 3} {big + 1}-{big + 2}", f"IIa 1 {big + 1} {big + 2} {big + 3}",
         f"1-{big + 2} {big + 1}-{big + 3}", "valid\n"),
        (f"1-{big + 2} 2-{big + 3}", f"IIb 1 2 {big + 2} {big + 3}",
         f"1-2 {big + 2}-{big + 3}", "valid\n"),
        (f"1-{big + 3} 5-6 {big + 1}-{big + 2}", f"IIa 1 {big + 1} {big + 2} {big + 3}",
         f"1-{big + 2} 5-6 {big + 1}-{big + 3}",
         f"invalid at step 0: a vertex between 1 and {big + 1} is matched at or below"
         f" {big + 2}\n"),
    ]
    started = perf_counter()
    for start, step, end, expected in cases:
        doc = {"kind": "matching", "start": start, "end": end, "certificate": [step]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert run("verify") == (0, expected)
    assert perf_counter() - started < 1.0


def test_verify_rejects_malformed_json(monkeypatch, capsys):
    # nesting past the recursion limit makes json.loads raise RecursionError
    for raw in ("{not json", "[" * 100000):
        monkeypatch.setattr("sys.stdin", io.StringIO(raw))
        assert run("verify") == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: bad JSON document: ")
        assert err.count("\n") == 1


def test_verify_needs_a_certificate(monkeypatch, capsys):
    doc = _compare_document("3142", "2143")
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, _ = run("verify")
    assert code == 1
    assert "no certificate" in capsys.readouterr().err


def test_verify_reports_a_missing_file(tmp_path, capsys):
    path = tmp_path / "no-such.json"
    assert run("verify", str(path)) == (1, "")
    err = capsys.readouterr().err
    assert err == f"error: cannot read {path}: No such file or directory\n"


def test_verify_reports_a_directory(tmp_path, capsys):
    assert run("verify", str(tmp_path)) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {tmp_path}: ")
    assert err.count("\n") == 1


def _verify_rejects(monkeypatch, capsys, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out = run("verify")
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def _good_document():
    return json.loads(_compare_document("2143", "34152"))


def test_verify_rejects_a_non_object_document(monkeypatch, capsys):
    err = _verify_rejects(monkeypatch, capsys, [1, 2])
    assert "must be a JSON object, not list" in err


def test_verify_rejects_a_non_string_start(monkeypatch, capsys):
    doc = dict(_good_document(), start=2143)
    assert "start must be a string, not int" in _verify_rejects(monkeypatch, capsys, doc)


def test_verify_rejects_a_non_string_end(monkeypatch, capsys):
    doc = dict(_good_document(), end=["3", "4"])
    assert "end must be a string, not list" in _verify_rejects(monkeypatch, capsys, doc)


def test_verify_rejects_a_non_string_step(monkeypatch, capsys):
    doc = dict(_good_document(), certificate=["swap 1 3", 5])
    assert "step 1 must be a string, not int" in _verify_rejects(monkeypatch, capsys, doc)


def test_verify_rejects_a_certificate_that_is_not_a_list(monkeypatch, capsys):
    doc = dict(_good_document(), certificate="swap 2 3")
    err = _verify_rejects(monkeypatch, capsys, doc)
    assert "certificate must be a list of steps, not str" in err


@pytest.mark.parametrize("kind", [["perm"], {}, None, 1, "Perm"])
def test_verify_rejects_an_unknown_kind(monkeypatch, capsys, kind):
    # a list or dict kind must not reach a dict lookup, where it is unhashable
    doc = dict(_good_document(), kind=kind)
    err = _verify_rejects(monkeypatch, capsys, doc)
    assert err == f"error: unknown certificate kind {kind!r}\n"


def test_suite_single_criterion():
    code, out = run("suite", "--criteria", "A7")
    assert code == 0
    assert out.startswith("A7 pass")


def test_suite_json():
    code, out = run("suite", "--criteria", "A7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["name"] == "A7"
    assert doc["results"][0]["passed"] is True


def test_suite_unknown_criterion(capsys):
    for criteria, message in (
        ("A99", "A99"),
        ("", "names no criterion"),
        (" , ", "names no criterion"),
    ):
        code, out = run("suite", "--criteria", criteria)
        err = capsys.readouterr().err
        assert (code, out) == (1, ""), criteria
        assert message in err and err.count("\n") == 1, criteria


def test_suite_takes_no_size_or_budget(capsys):
    # every criterion runs at the size its docstring states
    for option, value in (("--max-n", "5"), ("--budget", "1")):
        code, out = run("suite", "--criteria", "A7", option, value)
        err = capsys.readouterr().err
        assert (code, out) == (1, ""), option
        assert err.startswith("error:") and err.count("\n") == 1, option


def test_suite_reports_failure_with_exit_three(monkeypatch):
    monkeypatch.setattr(suites, "CRITERIA", (("A1", lambda: (False, "planted")),))
    code, out = run("suite")
    assert code == 3
    assert out.startswith("A1 FAIL (") and out.endswith("s): planted\n")


def test_unknown_subcommand(capsys):
    code, _ = run("frobnicate")
    assert code == 1
    assert "error:" in capsys.readouterr().err

import json

import pytest

from invsg.actions import action_to_dict, bernoulli_partial_action
from invsg.cli import run
from invsg.groups import cyclic, group_to_dict, klein_four
from invsg.reps import partial_rep_from_partial_action, rep_to_dict
from invsg.actions import PartialAction, PartialBijection


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sg_order(capsys):
    code, out, _ = invoke(capsys, "sg", "order", "cyclic:28")
    assert code == 0 and out.strip() == "1946157056"
    code, out, _ = invoke(capsys, "sg", "order", "cyclic:2", "--json")
    assert code == 0 and json.loads(out) == {"group_order": 2, "order": 3}


def test_sg_order_trivial_group_is_usage_error(capsys):
    code, _, err = invoke(capsys, "sg", "order", "cyclic:1")
    assert code == 2 and "enumerate" in err


def test_sg_enumerate(capsys):
    code, out, _ = invoke(capsys, "sg", "enumerate", "cyclic:2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert data["elements"] == [
        {"support": [0], "degree": 0},
        {"support": [0, 1], "degree": 0},
        {"support": [0, 1], "degree": 1},
    ]
    code, out2, _ = invoke(capsys, "sg", "enumerate", "cyclic:2", "--json")
    assert out2 == out  # byte-stable


def test_sg_enumerate_cap(capsys):
    code, _, err = invoke(capsys, "sg", "enumerate", "cyclic:11")
    assert code == 1 and "CapExceeded" in err


def test_sg_reduce(capsys):
    code, out, _ = invoke(capsys, "sg", "reduce", "cyclic:4", "--word", "1,1,1,1", "--json")
    assert code == 0
    assert json.loads(out) == {"support": [0, 1, 2, 3], "degree": 0}
    code, _, err = invoke(capsys, "sg", "reduce", "cyclic:4", "--word", "9")
    assert code == 1
    code, _, err = invoke(capsys, "sg", "reduce", "cyclic:4", "--word", "x")
    assert code == 2


def test_sg_verify(capsys):
    code, out, _ = invoke(capsys, "sg", "verify", "klein4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["size"] == 20


def test_unknown_group_is_usage_error(capsys):
    code, _, err = invoke(capsys, "sg", "order", "nonsense")
    assert code == 2 and "unknown group" in err


def test_invalid_table_is_domain_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 1]]}))
    code, _, err = invoke(capsys, "sg", "order", str(path))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "NotLatinSquare"
    assert "row 1" in payload["message"]


def test_unknown_flag_rejected(capsys):
    code, _, _ = invoke(capsys, "sg", "order", "cyclic:4", "--bogus")
    assert code == 2


def test_pa_pipeline(tmp_path, capsys):
    code, out, _ = invoke(capsys, "pa", "bernoulli", "cyclic:2")
    assert code == 0
    path = tmp_path / "action.json"
    path.write_text(out)

    code, out, _ = invoke(capsys, "pa", "validate", str(path), "--json")
    assert code == 0 and json.loads(out)["passed"] is True

    code, out, _ = invoke(capsys, "pa", "extend", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["set_size"] == 2 and len(data["action"]) == 3
    maps = {tuple(map(tuple, entry["map"])) for entry in data["action"]}
    assert ((0, 0), (1, 1)) in maps  # the unit acts as the identity


def test_pa_validate_rejects_bad_action(tmp_path, capsys):
    g = cyclic(2)
    bad = PartialAction(
        g, 2, (PartialBijection.identity(2), PartialBijection.from_pairs(2, [(0, 1)]))
    )
    path = tmp_path / "bad_action.json"
    path.write_text(json.dumps(action_to_dict(bad)))
    code, out, err = invoke(capsys, "pa", "validate", str(path))
    assert code == 1
    assert json.loads(err)["passed"] is False


def test_rep_pipeline(tmp_path, capsys):
    rep = partial_rep_from_partial_action(bernoulli_partial_action(cyclic(2)))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_dict(rep)))

    code, out, _ = invoke(capsys, "rep", "validate", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["tol"] == 0.0

    code, out, _ = invoke(capsys, "rep", "extend", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3 and data["dim"] == 2


def test_rep_validate_rejects_bad_rep(tmp_path, capsys):
    g = cyclic(2)
    bad = {
        "group": group_to_dict(g),
        "dim": 1,
        "matrices": {"0": [[[0.0, 0.0]]], "1": [[[1.0, 0.0]]]},
    }
    path = tmp_path / "bad_rep.json"
    path.write_text(json.dumps(bad))
    code, _, err = invoke(capsys, "rep", "validate", str(path))
    assert code == 1


def test_rep_files_need_exactly_the_group_indices(tmp_path, capsys):
    rep = rep_to_dict(partial_rep_from_partial_action(bernoulli_partial_action(cyclic(2))))
    missing = dict(rep, matrices={"0": rep["matrices"]["0"]})
    unknown = dict(rep, matrices=dict(rep["matrices"], **{"5": rep["matrices"]["0"]}))
    for name, data in (("missing", missing), ("unknown", unknown)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        for command in ("validate", "extend"):
            code, out, err = invoke(capsys, "rep", command, str(path))
            assert code == 1 and out == ""
            payload = json.loads(err)
            assert payload["error"] == "ValueError"
            assert ("missing ['1']" if name == "missing" else "unknown ['5']") in payload["message"]


def test_pa_validate_rejects_unknown_theta_key(tmp_path, capsys):
    data = action_to_dict(bernoulli_partial_action(cyclic(2)))
    data["theta"]["5"] = [[0, 0]]
    path = tmp_path / "action.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "pa", "validate", str(path))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and "['5']" in payload["message"]


@pytest.mark.parametrize(
    "family, command, drop",
    [
        ("pa", "validate", "theta"),
        ("pa", "extend", "set_size"),
        ("pa", "validate", "group"),
        ("pa", "validate", None),
        ("rep", "validate", "group"),
        ("rep", "validate", "matrices"),
    ],
)
def test_malformed_files_are_domain_errors(tmp_path, capsys, family, command, drop):
    """A file without one top-level key, or (drop=None) a list in place of the object."""
    action = bernoulli_partial_action(cyclic(2))
    data = action_to_dict(action) if family == "pa" else rep_to_dict(partial_rep_from_partial_action(action))
    if drop is None:
        data, named = [data], "list"
    else:
        data, named = {k: v for k, v in data.items() if k != drop}, repr(drop)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, family, command, str(path))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and named in payload["message"]


def test_alg_decompose(capsys):
    code, out, _ = invoke(capsys, "alg", "decompose", "cyclic:4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"dim": 20, "blocks": [1, 1, 1, 1, 1, 1, 1, 2, 3], "center_dim": 9}

    code, out, _ = invoke(capsys, "alg", "decompose", "klein4", "--json")
    data = json.loads(out)
    assert data["blocks"] == [1] * 11 + [3] and data["center_dim"] == 12

    code, out_seeded, _ = invoke(capsys, "alg", "decompose", "klein4", "--json", "--seed", "5")
    assert json.loads(out_seeded)["blocks"] == data["blocks"]

    code, out, _ = invoke(capsys, "alg", "decompose", "cyclic:6", "--json")
    data = json.loads(out)
    assert code == 0 and data["center_dim"] == 22
    assert sum(n * n for n in data["blocks"]) == data["dim"] == 112


def test_graded_count_and_map(capsys):
    code, out, _ = invoke(capsys, "graded", "count", "klein4", "--json")
    assert code == 0
    assert json.loads(out) == {"count": 20, "expected": 20, "match": True}

    code, out, _ = invoke(capsys, "graded", "map", "cyclic:2", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["map"]) == 3
    by_elem = {
        (tuple(e["element"]["support"]), e["element"]["degree"]): e["indices"]
        for e in data["map"]
    }
    # the unit maps to the whole identity-degree piece
    assert by_elem[((0,), 0)] == [0, 1]


def test_missing_file_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "pa", "validate", "/nonexistent/file.json")
    assert code == 2


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2

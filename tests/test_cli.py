import json
import subprocess
import sys

import pytest

from invsg import algebra, reps, semigroup
from invsg.actions import action_to_dict, bernoulli_partial_action, to_inverse_action
from invsg.algebra import group_algebra
from invsg.cli import run
from invsg.groups import cyclic, group_to_dict, klein_four
from invsg.reps import partial_rep_from_partial_action, rep_to_dict
from invsg.semigroup import CapExceeded
from invsg.actions import PartialAction, PartialBijection
from conftest import draw_the_unit, fresh_env, inverses_checked, model_checked, reflection_commutant


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


def test_one_cap_rule(capsys):
    """Enumeration, the Bernoulli action and the action table share one
    order-cap check and its message."""
    for argv in (["sg", "enumerate", "cyclic:11"], ["pa", "bernoulli", "cyclic:11"]):
        code, _, err = invoke(capsys, *argv)
        assert code == 1
        assert json.loads(err) == {"error": "CapExceeded", "message": "group order 11 exceeds enumeration cap 10"}
    _, _, err = invoke(capsys, "sg", "enumerate", "cyclic:4", "--cap", "3")
    with pytest.raises(CapExceeded) as info:
        to_inverse_action(bernoulli_partial_action(cyclic(4))).table(cap=3)
    assert str(info.value) == json.loads(err)["message"] == "group order 4 exceeds enumeration cap 3"


def test_sg_reduce(capsys):
    code, out, _ = invoke(capsys, "sg", "reduce", "cyclic:4", "--word", "1,1,1,1", "--json")
    assert code == 0
    assert json.loads(out) == {"support": [0, 1, 2, 3], "degree": 0}
    code, _, err = invoke(capsys, "sg", "reduce", "cyclic:4", "--word", "9")
    assert code == 1
    code, _, err = invoke(capsys, "sg", "reduce", "cyclic:4", "--word", "x")
    assert code == 2
    code, out, err = invoke(capsys, "sg", "reduce", "cyclic:4", "--word", ",")
    assert code == 2 and out == "" and "--word must be nonempty" in err


def test_sg_verify(capsys):
    code, out, _ = invoke(capsys, "sg", "verify", "klein4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["size"] == 20


def test_sg_verify_at_the_order_cap(capsys):
    """The full report of both order-10 certificates, JSON and plain."""
    code, out, _ = invoke(capsys, "sg", "verify", "dihedral:5", "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["group_order"], data["size"], data["passed"]) == (10, 2816, True)
    assert [(c["name"], c["passed"], c["mode"], c["checked"], c["counterexample"]) for c in data["checks"]] == [
        ("associativity", True, "exhaustive", model_checked(2816, 10), None),
        ("involution identities", True, "exhaustive", 2816, None),
        ("unique inverses", True, "exhaustive", inverses_checked(2816, 10), None),
        ("idempotents commute", True, "exhaustive", 262144, None),
    ]
    code, out, _ = invoke(capsys, "sg", "verify", "cyclic:10")
    assert code == 0
    assert out.splitlines() == [
        "semigroup on group of order 10: 2816 elements",
        f"associativity: ok (exhaustive, {model_checked(2816, 10)} cases)",
        "involution identities: ok (exhaustive, 2816 cases)",
        f"unique inverses: ok (exhaustive, {inverses_checked(2816, 10)} cases)",
        "idempotents commute: ok (exhaustive, 262144 cases)",
    ]


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


def test_pa_validate_rejects_a_ground_set_past_the_budget(tmp_path, capsys):
    """A one-line file declaring two million points is refused before any
    partial bijection is built."""
    path = tmp_path / "huge.json"
    path.write_text('{"group": "cyclic:2", "set_size": 2000000, "theta": {}}\n')
    code, out, err = invoke(capsys, "pa", "validate", str(path))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and "set_size 2000000" in payload["message"]


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


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_must_be_finite_and_not_negative(tmp_path, capsys, tol):
    """NaN passed nothing, inf printed the non-JSON Infinity and -1 failed
    an exact rep: each is refused when the arguments are parsed."""
    rep = partial_rep_from_partial_action(bernoulli_partial_action(cyclic(2)))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_dict(rep)))
    for command in ("validate", "extend"):
        code, out, err = invoke(capsys, "rep", command, str(path), "--tol", tol, "--json")
        assert code == 2 and out == "" and "--tol" in err and "finite number >= 0" in err


def test_tol_must_be_a_number(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_dict(partial_rep_from_partial_action(bernoulli_partial_action(cyclic(2))))))
    code, out, err = invoke(capsys, "rep", "validate", str(path), "--tol", "abc")
    assert code == 2 and out == "" and "finite number >= 0, got 'abc'" in err


def test_rep_commands_print_the_same_bytes_on_both_routes(tmp_path, monkeypatch, capsys):
    """A valid and an invalid 0/1 partial-permutation rep, checked as
    partial actions and, with the recogniser switched off, as matrices:
    the same exit codes, stdout and stderr."""
    action = bernoulli_partial_action(cyclic(3))
    theta = list(action.theta)
    theta[1] = PartialBijection((None, 0, 1, 3))
    for name, a in (("good", action), ("bad", PartialAction(action.group, action.set_size, tuple(theta)))):
        (tmp_path / f"{name}.json").write_text(json.dumps(rep_to_dict(partial_rep_from_partial_action(a))))
    argvs = [
        [command, str(tmp_path / f"{name}.json"), *flags]
        for command in ("validate", "extend")
        for name in ("good", "bad")
        for flags in ([], ["--json"])
    ]
    via_actions = [invoke(capsys, "rep", *argv) for argv in argvs]
    monkeypatch.setattr(reps, "_partial_bijections", lambda matrices: None)
    via_matrices = [invoke(capsys, "rep", *argv) for argv in argvs]
    assert via_actions == via_matrices
    assert [code for code, _, _ in via_actions] == [0, 0, 1, 1, 0, 0, 1, 1]


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


def strict_json(text):
    """json.loads that rejects the non-standard constants NaN and Infinity."""

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def test_overflowing_float_rep_is_a_strict_json_domain_error(tmp_path, capsys):
    # 1e300 squared overflows float64; the products must not turn into
    # Infinity or NaN in any output
    rep = {
        "group": group_to_dict(cyclic(2)),
        "dim": 1,
        "matrices": {"0": [[[1.0, 0.0]]], "1": [[[1e300, 0.0]]]},
    }
    path = tmp_path / "huge_rep.json"
    path.write_text(json.dumps(rep))
    for argv in (["validate"], ["validate", "--json"], ["extend"], ["extend", "--json"]):
        code, out, err = invoke(capsys, "rep", argv[0], str(path), *argv[1:])
        assert code == 1 and out == ""
        payload = strict_json(err)
        assert payload["error"] == "NonFiniteProduct" and "overflow" in payload["message"]


def test_numeric_errors_carry_their_margins(monkeypatch, capsys):
    # the random central element of CZ3, the one nontrivial maximal
    # subgroup of S(Z3), is drawn as its unit: every eigenvalue is 1
    with monkeypatch.context() as patch:
        draw_the_unit(patch, group_algebra(cyclic(3)))
        code, out, err = invoke(capsys, "alg", "decompose", "cyclic:3")
    assert code == 1 and out == ""
    payload = strict_json(err)
    assert payload["error"] == "EigenvalueClusterAmbiguous"
    assert payload["relative_gap"] < 1e-12 and "integrality_error" not in payload

    # S3 is the maximal subgroup of S(S3) at the full support, labelled as
    # in dihedral(3); a commutant too large for its center splits the
    # M_2 block into two traces of 2
    center = algebra.center
    commutant = reflection_commutant()
    monkeypatch.setattr(algebra, "center", lambda a: commutant if a.dim == 6 else center(a))
    code, out, err = invoke(capsys, "alg", "decompose", "dihedral:3")
    assert code == 1 and out == ""
    payload = strict_json(err)
    assert payload["error"] == "NonIntegerBlockDim"
    assert abs(payload["integrality_error"] - 1.0) < 1e-9 and "relative_gap" not in payload


def test_unknown_margins_stay_out_of_the_payload(monkeypatch, capsys):
    def fail(a, seed=0):
        raise algebra.NonIntegerBlockDim("no margin known")  # integrality_error is NaN

    monkeypatch.setattr(algebra, "wedderburn", fail)
    code, _, err = invoke(capsys, "alg", "decompose", "cyclic:2")
    assert code == 1
    assert strict_json(err) == {"error": "NonIntegerBlockDim", "message": "no margin known"}


def raising(exc: Exception):
    def fail(*args, **kwargs):
        raise exc

    return fail


def test_only_value_errors_and_the_numeric_errors_exit_1(monkeypatch, capsys):
    """The domain-error rule: every ValueError and algebra's two numeric
    errors exit 1 with their margins; any other error, RuntimeError
    included, is a bug and propagates out of ``run``."""
    for bug in (RuntimeError("a bug"), TypeError("a bug")):
        monkeypatch.setattr(semigroup, "order_formula", raising(bug))
        with pytest.raises(type(bug)):
            run(["sg", "order", "cyclic:4"])
    monkeypatch.setattr(semigroup, "order_formula", raising(ValueError("a domain error")))
    code, out, err = invoke(capsys, "sg", "order", "cyclic:4")
    assert (code, out, strict_json(err)) == (1, "", {"error": "ValueError", "message": "a domain error"})

    for numeric, margin in (
        (algebra.EigenvalueClusterAmbiguous("too close", relative_gap=1e-13), "relative_gap"),
        (algebra.NonIntegerBlockDim("not a square", integrality_error=0.5), "integrality_error"),
    ):
        monkeypatch.setattr(algebra, "wedderburn", raising(numeric))
        code, out, err = invoke(capsys, "alg", "decompose", "cyclic:2")
        assert (code, out) == (1, "")
        assert strict_json(err) == {"error": type(numeric).__name__, "message": str(numeric), margin: getattr(numeric, margin)}


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

    for group in ("klein4", "cyclic:2", "cyclic:1"):  # a usage error whether or not a subgroup needs splitting
        code, out, err = invoke(capsys, "alg", "decompose", group, "--seed", "-1")
        assert code == 2 and out == "" and "--seed must be >= 0" in err

    code, out, _ = invoke(capsys, "alg", "decompose", "cyclic:6", "--json")
    data = json.loads(out)
    assert code == 0 and data["center_dim"] == 22
    assert sum(n * n for n in data["blocks"]) == data["dim"] == 112


@pytest.mark.parametrize(
    "argv, dim, cap",
    [(["cyclic:9"], 1280, 1000), (["cyclic:5", "--cap", "40"], 48, 40)],
    ids=["default-cap", "given-cap"],
)
def test_alg_decompose_past_its_dimension_cap(capsys, argv, dim, cap):
    code, out, err = invoke(capsys, "alg", "decompose", *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "CapExceeded", "message": f"algebra dimension {dim} exceeds cap {cap}"}


@pytest.mark.parametrize("command", [["alg", "decompose"], ["graded", "count"], ["graded", "map"]])
def test_trivial_group_meets_the_dimension_cap(capsys, command):
    code, out, err = invoke(capsys, *command, "cyclic:1", "--cap", "0")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "CapExceeded", "message": "algebra dimension 1 exceeds cap 0"}
    code, out, _ = invoke(capsys, *command, "cyclic:1", "--cap", "1")
    assert code == 0 and out


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


def test_a_closed_stdout_ends_the_cli_silently():
    """``invsg ... | head -1``: the reader takes one line and closes the
    pipe while the CLI still has about 200 KB to write; it ends without
    a traceback and without a domain or usage exit code."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "invsg.cli", "graded", "map", "dihedral:4", "--json"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


MAX_RSS = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "invsg.cli", *sys.argv[1:]], stdin=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_verify_past_the_default_cap_never_holds_the_table():
    """``invsg sg verify cyclic:11 --cap 11``: 6144 elements, whose
    uint16 product table would take 72 MiB.  The certificate never builds
    the table and passes, so the process exits 0 with a max RSS under
    80 MiB (106 MiB when the table was built up front).  A small
    interpreter starts it: a child's max RSS counts the pages of the
    process it was forked from, here the test runner's."""
    argv = ["sg", "verify", "cyclic:11", "--cap", "11"]
    proc = subprocess.run(
        [sys.executable, "-c", MAX_RSS, *argv], env=fresh_env(), capture_output=True, text=True, timeout=120
    )
    *report, last = proc.stdout.splitlines()
    code, max_rss_kib = map(int, last.split())
    assert (proc.returncode, code, proc.stderr) == (0, 0, "")
    assert report[0] == "semigroup on group of order 11: 6144 elements"
    assert max_rss_kib < 80 * 1024


def test_verify_at_order_13_keeps_no_rows():
    """``invsg sg verify cyclic:13 --cap 13``: 28,672 elements.  Check (c)
    of the model decides the table's rows per class of products and
    keeps no rows, so the process exits 0, the model certifies
    associativity and the max RSS stays under 96 MiB (140 MiB when (c)
    kept the key rows of each closure-tree layer's parents)."""
    argv = ["sg", "verify", "cyclic:13", "--cap", "13"]
    proc = subprocess.run(
        [sys.executable, "-c", MAX_RSS, *argv], env=fresh_env(), capture_output=True, text=True, timeout=120
    )
    *report, last = proc.stdout.splitlines()
    code, max_rss_kib = map(int, last.split())
    assert (proc.returncode, code, proc.stderr) == (0, 0, "")
    assert report[:2] == [
        "semigroup on group of order 13: 28672 elements",
        f"associativity: ok (exhaustive, {model_checked(28672, 13)} cases)",
    ]
    assert max_rss_kib < 96 * 1024


LOADED_AFTER = """
import sys
if sys.argv[1:]:
    from invsg import cli
    code = cli.run(sys.argv[1:])
else:
    import invsg
    code = 0
print(code, *(m for m in sys.modules if m.split(".")[0] == "invsg" or m == "numpy"))
"""


def loaded_after(*argv: str) -> tuple[int, set[str]]:
    """The exit code of ``cli.run(argv)`` in a fresh interpreter, or 0 for
    a bare ``import invsg`` when argv is empty, and the ``invsg`` and
    ``numpy`` modules loaded by then."""
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER, *argv], env=fresh_env(), capture_output=True, text=True, timeout=60
    )
    code, *loaded = proc.stdout.splitlines()[-1].split()
    return int(code), set(loaded)


def test_a_bare_import_loads_no_layer():
    assert loaded_after() == (0, {"invsg"})


@pytest.mark.parametrize("command", ["sg order cyclic:28", "sg enumerate cyclic:3", "sg reduce cyclic:4 --word 1,2"])
def test_sg_arithmetic_loads_no_numpy(command):
    assert loaded_after(*command.split()) == (0, {"invsg", "invsg.cli", "invsg.groups", "invsg.semigroup"})


# the layers each family never loads; every command shown loads numpy
UNUSED_LAYERS = {
    "sg": {"actions", "reps", "algebra", "graded"},
    "pa": {"reps", "algebra", "graded"},
    "rep": {"algebra", "graded"},
    "alg": {"actions", "reps", "graded"},
    "graded": {"actions", "reps"},
}


@pytest.mark.parametrize(
    "command",
    [
        "sg verify klein4",
        "pa validate ACTION",
        "pa extend ACTION",
        "pa bernoulli cyclic:2",
        "rep validate REP",
        "rep extend REP",
        "alg decompose klein4",
        "graded count cyclic:3",
        "graded map cyclic:3",
    ],
)
def test_each_family_loads_only_its_own_layers(tmp_path, command):
    action = bernoulli_partial_action(cyclic(2))
    files = {"ACTION": action_to_dict(action), "REP": rep_to_dict(partial_rep_from_partial_action(action))}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    argv = [str(tmp_path / a) if a in files else a for a in command.split()]
    code, loaded = loaded_after(*argv)
    assert code == 0 and "numpy" in loaded
    assert loaded.isdisjoint(f"invsg.{layer}" for layer in UNUSED_LAYERS[argv[0]])


def test_the_entry_point_imports_no_numpy_for_sg_order():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "invsg.cli", "sg", "order", "cyclic:28"],
        env=fresh_env(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "1946157056\n")
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()}
    assert "invsg" in imported and "numpy" not in imported


def test_missing_file_is_usage_error(tmp_path, capsys):
    code, _, _ = invoke(capsys, "pa", "validate", "/nonexistent/file.json")
    assert code == 2
    for command in ("pa validate", "rep extend", "sg order"):  # a directory cannot be read either
        code, out, err = invoke(capsys, *command.split(), str(tmp_path))
        assert (code, out) == (2, "") and err.startswith("invsg: ") and str(tmp_path) in err


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2


_THETA = {"0": [[0, 0], [1, 1]], "1": [[1, 1]]}
_MATRICES = {"0": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "1": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}


@pytest.mark.parametrize(
    "family, key, value, message",
    [
        ("pa", "theta", list(_THETA.values()), "theta must be an object"),
        ("rep", "matrices", list(_MATRICES.values()), "matrices must be an object"),
        ("pa", "set_size", [2], "set_size must be an integer"),
        ("pa", "set_size", 2.7, "set_size must be an integer"),
        ("pa", "set_size", -3, "set_size -3 is negative"),
        ("rep", "dim", 2.5, "dim must be an integer"),
        ("pa", "theta", dict(_THETA, **{"1": [[2, 1]]}), "point 2 out of range [0, 2)"),
        ("pa", "theta", dict(_THETA, **{"1": [[-1, 0], [0, 1]]}), "point -1 out of range [0, 2)"),
        ("pa", "theta", dict(_THETA, **{"1": [[1, 1.0]]}), "theta[1] must be a list of [point, image] pairs"),
        ("pa", "theta", dict(_THETA, **{"1": [1, 1]}), "theta[1] must be a list of [point, image] pairs"),
        ("rep", "matrices", dict(_MATRICES, **{"1": [[0, 0], [0, 1]]}), "matrices[1] must be a list of rows"),
        ("rep", "matrices", dict(_MATRICES, **{"1": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]}),
         "matrices[1] has an entry too large for float64"),
        ("group", "table", [[0, 1.9], [1, 0]], "table must be a list of rows of integers"),
        ("group", "order", 2.0, "order must be an integer"),
        ("group", "order", True, "order must be an integer"),
        ("rep", "matrices", dict(_MATRICES, **{"1": [[[1, 0], [0, 0]]]}), "matrix must be square, got shape (1, 2)"),
        ("rep", "dim", 3, "declared dim does not match the matrices"),
        ("pa", "theta", dict(_THETA, **{"1": [[0, 1], [0, 0]]}), "point 0 has two images"),
    ],
    ids=[
        "theta-list", "matrices-list", "set_size-list", "set_size-float", "set_size-negative", "dim-float",
        "point-too-large", "point-negative", "image-float", "pair-not-list", "entry-not-pair",
        "entry-past-float64", "table-entry-float", "order-float", "order-bool", "matrix-not-square",
        "dim-mismatch", "two-images",
    ],
)
def test_malformed_values_are_domain_errors(tmp_path, capsys, family, key, value, message):
    """A value of the wrong JSON type, or a point outside the ground set,
    fails with exit 1 and a payload naming the field, instead of a
    traceback or a silent misreading."""
    files = {
        "pa": {"group": "cyclic:2", "set_size": 2, "theta": _THETA},
        "rep": {"group": "cyclic:2", "dim": 2, "matrices": _MATRICES},
        "group": {"order": 2, "table": [[0, 1], [1, 0]]},
    }
    path = tmp_path / "input.json"
    path.write_text(json.dumps(dict(files[family], **{key: value})))
    argv = ["sg", "order", str(path)] if family == "group" else [family, "validate", str(path)]
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and message in payload["message"]


@pytest.mark.parametrize(
    "document, code, message",
    [
        ({"order": 3, "table": [[0, 1], [1, 0]]}, 2, "declared order 3 does not match table size 2"),
        ({"table": []}, 1, "table is empty"),
        ({"table": [[0, 1], [1]]}, 1, "row 1 has length 1, expected 2"),
    ],
    ids=["order-mismatch", "empty", "ragged"],
)
def test_a_table_of_the_wrong_size_names_its_fault(tmp_path, capsys, document, code, message):
    """A declared order that is an integer but not the table's size is a
    usage error (exit 2, one line); an empty or ragged table is a
    ``NotLatinSquare`` domain error (exit 1)."""
    path = tmp_path / "group.json"
    path.write_text(json.dumps(document))
    got, out, err = invoke(capsys, "sg", "order", str(path))
    if code == 2:
        assert (got, out, err) == (2, "", f"invsg: {message}\n")
    else:
        assert (got, out) == (1, "") and json.loads(err) == {"error": "NotLatinSquare", "message": message}


@pytest.mark.parametrize("spec", ["dihedral:0", "cyclic:0"])
def test_a_builtin_of_order_0_is_usage_error(capsys, spec):
    code, out, err = invoke(capsys, "sg", "order", spec)
    assert (code, out) == (2, "") and err.startswith("invsg: ") and ">= 1, got 0" in err


def test_group_file_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps([[0, 1], [1, 0]]))
    code, out, err = invoke(capsys, "sg", "order", str(path))
    assert code == 2 and out == "" and "'table' list" in err

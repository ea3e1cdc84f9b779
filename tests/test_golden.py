"""Byte-exact CLI outputs on failing and float inputs.

The files under ``tests/golden/`` pin the order in which failures are
listed, the reported deviations, the first-of-max witnesses and the
``0.0``/``null`` of a check that never fails.  Every float input uses
dyadic entries (0, +-1/2, 1), so each product and deviation is exact
and the outputs do not depend on the BLAS build.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from invsg.actions import PartialAction, PartialBijection, action_to_dict, bernoulli_partial_action
from invsg.cli import run
from invsg.groups import cyclic, group_to_dict

GOLDEN = Path(__file__).parent / "golden"


def _float_matrix(m):
    return [[[float(v), 0.0] for v in row] for row in m]


def _write_inputs(tmp_path):
    """A Bernoulli action of Z/3 with one image moved, a failing float
    partial rep of Z/3, and a valid float one."""
    good = bernoulli_partial_action(cyclic(3))
    theta = list(good.theta)
    theta[1] = PartialBijection((None, 0, 1, 3))
    bad = PartialAction(good.group, good.set_size, tuple(theta))
    (tmp_path / "action.json").write_text(json.dumps(action_to_dict(bad)))

    # half-scaled cyclic shift: adjoints match, the triple product fails
    shift = np.roll(np.eye(3), 1, axis=0)
    halves = {"0": np.eye(3), "1": 0.5 * shift, "2": 0.5 * shift.T}
    rep = {
        "group": group_to_dict(cyclic(3)),
        "dim": 3,
        "matrices": {t: _float_matrix(m) for t, m in halves.items()},
    }
    (tmp_path / "rep.json").write_text(json.dumps(rep))

    # the 0/1 Bernoulli rep conjugated by the orthogonal Hadamard matrix / 2
    h = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    mats = {}
    for t, f in enumerate(good.theta):
        m = np.zeros((4, 4))
        for x, y in f.graph():
            m[y, x] = 1
        mats[str(t)] = _float_matrix(h @ m @ h.T)
    hadamard = {"group": group_to_dict(cyclic(3)), "dim": 4, "matrices": mats}
    (tmp_path / "hadamard.json").write_text(json.dumps(hadamard))


@pytest.mark.parametrize(
    "argv, code, golden",
    [
        (["pa", "validate", "action.json", "--json"], 1, "pa_validate.json"),
        (["pa", "validate", "action.json"], 1, "pa_validate.txt"),
        (["rep", "validate", "rep.json", "--json"], 1, "rep_validate.json"),
        (["rep", "extend", "rep.json", "--tol", "1"], 0, "rep_extend_tol.txt"),
        (["rep", "extend", "hadamard.json"], 0, "rep_extend_hadamard.txt"),
    ],
)
def test_cli_golden(tmp_path, capsys, argv, code, golden):
    _write_inputs(tmp_path)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert run(argv) == code
    out, err = capsys.readouterr()
    assert out == (GOLDEN / golden).read_text()
    if code and "--json" in argv:
        assert json.loads(err) == json.loads(out)

"""The benchmark's workloads: fixed job lists, seeded inputs, pinned references.

A workload is a list of ops.  An op takes one input through the
workload's whole pipeline, or runs one CLI command, and returns its
answer; ``check`` compares the answer with a reference that is pinned
here or computed by the benchmark's own code, never by the package.

Every call into the package goes through a module attribute
(``algebra.wedderburn``, never ``from invsg.algebra import wedderburn``)
so that the tracer, which patches module attributes, sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import os
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from invsg import actions, algebra, cli, graded, groups, reps, semigroup

@dataclass
class Op:
    """One job of a workload.

    ``run(work)`` does the work, adds exact counts of what it did to the
    ``work`` counter and returns the answer; ``check(answer)`` returns
    None when the answer matches its reference and a reason otherwise.
    ``exit_code`` is the expected status of a CLI op.
    """

    name: str
    order: int
    run: Callable[[Counter], Any]
    check: Callable[[Any], str | None]
    exit_code: int | None = None


def formula(p: int) -> int:
    """2^(p-2) (p+1): the size of the semigroup of a group of order p >= 2."""
    return (1 << (p - 2)) * (p + 1)


# -- decompose --------------------------------------------------------------
#
# Why: algebra.center and algebra.wedderburn do about 97% of this pass and
# almost nothing in the other workloads; ROADMAP items 1 and 2 act here.
# The reference block multisets {size: count} come from the D-class
# structure theorem (Steinberg, JCTA 2006; Dokuchaev-Exel-Piccione,
# J. Algebra 2000); selftest.py recomputes them from the group tables.
# Today orders 6 and 7 raise NonIntegerBlockDim, and that shows as
# counted failures.

BLOCKS = {
    "cyclic:4": {1: 7, 2: 1, 3: 1},
    "klein4": {1: 11, 3: 1},
    "cyclic:5": {1: 6, 2: 2, 3: 2, 4: 1},
    "dihedral:3": {1: 12, 2: 8, 3: 3, 4: 1, 5: 1},
    "cyclic:6": {1: 12, 2: 4, 3: 3, 4: 2, 5: 1},
    "cyclic:7": {1: 8, 2: 3, 3: 5, 4: 5, 5: 3, 6: 1},
}
CENTER_DIM = {"cyclic:4": 9, "klein4": 12, "cyclic:5": 11, "dihedral:3": 25, "cyclic:6": 22, "cyclic:7": 25}

# wedderburn's own seed stays fixed: today the time it takes to reach
# NonIntegerBlockDim at order 7 depends on that seed (0.6 s to 3.6 s over
# 40 seeds), which would swamp every timing; the answer is seed-free.
WEDDERBURN_SEED = 0


def decompose(seed: int, workdir: Path, in_process: bool) -> list[Op]:
    ops = []
    for spec in BLOCKS:
        group = groups.group_from_spec(spec)

        def run(work, group=group):
            alg = algebra.build_algebra(group)
            work["semigroup_elements"] += alg.dim
            blocks = algebra.wedderburn(alg, seed=WEDDERBURN_SEED).blocks
            work["center_dims"] += len(blocks)
            return blocks

        def check(blocks, spec=spec):
            got = dict(Counter(blocks))
            if got != BLOCKS[spec]:
                return f"block multiset {got}, expected {BLOCKS[spec]}"
            if len(blocks) != CENTER_DIM[spec]:
                return f"{len(blocks)} blocks for a center of dimension {CENTER_DIM[spec]}"
            return None

        ops.append(Op(f"decompose {spec}", group.order, run, check))
    return ops


# -- correspondence ---------------------------------------------------------
#
# Why: the n^2 Python pair scans InverseAction.check_multiplicative and
# SgRepresentation.max_multiplicative_deviation dominate this pass; ROADMAP
# items 3 and 4 act here.  Large Bernoulli inputs sit beside small
# restrictions and integer reps beside complex ones, so a vectorisation
# that helps one shape and hurts the other shows.  The rep side stops at
# order 6: max_multiplicative_deviation alone takes about 12 s at order 7.

ACTION_GROUPS = ("cyclic:6", "dihedral:3", "cyclic:7")
REP_GROUPS = ("cyclic:6", "dihedral:3")
UNITARY_GROUP = "dihedral:3"
RESTRICTION_GROUPS = ("cyclic:4", "klein4", "cyclic:5", "dihedral:3", "cyclic:6")
RESTRICTIONS = 20
FLOAT_TOL = 1e-9


def _identity(table) -> int:
    return next(i for i, row in enumerate(table) if list(row) == list(range(len(table))))


def bernoulli_maps(table) -> list[tuple]:
    """Left translation on identity-containing subsets, as image tuples.

    Ground set: the subsets in binary-counter order over the non-identity
    positions; t sends E to tE wherever t^-1 lies in E.
    """
    p = len(table)
    e = _identity(table)
    free = [i for i in range(p) if i != e]
    masks = []
    for counter in range(1 << len(free)):
        masks.append((1 << e) | sum(1 << free[b] for b in range(len(free)) if counter >> b & 1))
    index = {m: i for i, m in enumerate(masks)}
    maps = []
    for t in range(p):
        t_inv = list(table[t]).index(e)
        image = [sum(1 << table[t][x] for x in range(p) if m >> x & 1) for m in masks]
        maps.append(tuple(index[tm] if m >> t_inv & 1 else None for m, tm in zip(masks, image)))
    return maps


def restriction_maps(table, subset: list[int]) -> list[tuple]:
    """The regular action y -> t*y restricted to ``subset`` (re-indexed)."""
    pos = {y: i for i, y in enumerate(subset)}
    return [tuple(pos.get(table[t][y]) for y in subset) for t in range(len(table))]


def zero_one(maps: list[tuple]) -> list[np.ndarray]:
    """Matrices M[y, x] = 1 iff the map sends x to y."""
    mats = []
    for m in maps:
        a = np.zeros((len(m), len(m)), dtype=np.int64)
        for x, y in enumerate(m):
            if y is not None:
                a[y, x] = 1
        mats.append(a)
    return mats


def _mappings(action) -> list[tuple]:
    return [f.mapping for f in action.theta]


def _action_op(spec: str, group) -> Op:
    expected = bernoulli_maps(group.table)

    def run(work):
        pa = actions.bernoulli_partial_action(group)
        verdicts = (actions.validate_axioms(pa).passed, actions.validate_semigroup_form(pa).passed)
        inv = actions.to_inverse_action(pa)
        witness = inv.check_multiplicative()
        back = actions.from_inverse_action(inv)
        table = inv.table()
        ext = semigroup.universal_extension(group, dict(enumerate(pa.theta)), operator.mul)
        ext_images = [ext(a) for a in table]
        work["semigroup_elements"] += len(table)
        work["pairs_scanned"] += 2 * len(table) ** 2
        return {
            "theta": _mappings(pa),
            "verdicts": verdicts,
            "witness": witness,
            "back": _mappings(back),
            "agree": ext_images == list(table.values()),
        }

    def check(ans):
        if ans["theta"] != expected:
            return "bernoulli_partial_action differs from left translation on subsets"
        if ans["verdicts"] != (True, True):
            return f"validators {ans['verdicts']} on a valid action"
        if ans["witness"] is not None:
            return f"check_multiplicative found {ans['witness']}"
        if ans["back"] != expected:
            return "from_inverse_action(to_inverse_action(a)) != a"
        if not ans["agree"]:
            return "universal_extension disagrees with InverseAction"
        return None

    return Op(f"action {spec}", group.order, run, check)


def _rep_op(name: str, group, rep, exact: bool) -> Op:
    def run(work):
        report = reps.validate_partial_rep(rep)
        sgrep = reps.extend_to_semigroup(rep)
        isometry, _ = sgrep.max_partial_isometry_deviation()
        back = reps.restrict_to_group(sgrep)
        work["semigroup_elements"] += len(sgrep.table)
        work["pairs_scanned"] += len(sgrep.table) ** 2
        return report.passed, isometry, back.matrices

    def check(ans):
        passed, isometry, back = ans
        if not passed:
            return "validate_partial_rep rejects a partial representation"
        if isometry > (0.0 if exact else FLOAT_TOL):
            return f"partial isometry deviation {isometry:.3e}"
        if exact:
            if not all(b.dtype.kind in "iu" and np.array_equal(b, m) for b, m in zip(back, rep.matrices)):
                return "restrict_to_group(extend_to_semigroup(r)) != r exactly"
        else:
            dev = max(float(np.max(np.abs(b - m))) for b, m in zip(back, rep.matrices))
            if dev > FLOAT_TOL:
                return f"round trip deviates by {dev:.3e}"
        return None

    return Op(name, group.order, run, check)


def _restriction_op(spec: str, group, subset: list[int], drop: tuple[int, int]) -> Op:
    perms = [list(row) for row in group.table]
    expected = restriction_maps(group.table, subset)
    t, x = drop

    def run(work):
        pa = actions.restriction_action(group, perms, subset)
        verdicts = (actions.validate_axioms(pa).passed, actions.validate_semigroup_form(pa).passed)
        inv = actions.to_inverse_action(pa)
        back = actions.from_inverse_action(inv)
        work["semigroup_elements"] += len(inv.table())
        work["pairs_scanned"] += len(inv.table()) ** 2
        # one-image perturbation: theta[t] forgets x while theta[t^-1] keeps
        # the reverse pair, so D_t != image of theta[t^-1]: invalid
        theta = list(pa.theta)
        mapping = list(theta[t].mapping)
        mapping[x] = None
        theta[t] = actions.PartialBijection(mapping)
        bad = actions.PartialAction(group, pa.set_size, tuple(theta))
        bad_verdicts = (actions.validate_axioms(bad).passed, actions.validate_semigroup_form(bad).passed)
        return {"theta": _mappings(pa), "verdicts": verdicts, "back": _mappings(back), "bad": bad_verdicts}

    def check(ans):
        if ans["theta"] != expected:
            return "restriction_action differs from the restricted regular action"
        if ans["verdicts"] != (True, True):
            return f"validators {ans['verdicts']} on a valid restriction"
        if ans["back"] != expected:
            return "from_inverse_action(to_inverse_action(a)) != a"
        if ans["bad"] != (False, False):
            return f"validators {ans['bad']} on the perturbed action, expected (False, False)"
        return None

    return Op(f"restriction {spec} {subset} drop {drop}", group.order, run, check)


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _restriction_input(rng: np.random.Generator, table) -> tuple[list[int], tuple[int, int]]:
    """A seeded subset of the regular action and one defined pair to drop."""
    p = len(table)
    e = _identity(table)
    subset = sorted(int(y) for y in rng.choice(p, size=p // 2 + 1, replace=False))
    inside = set(subset)
    pairs = [(t, i) for t in range(p) if t != e for i, y in enumerate(subset) if table[t][y] in inside]
    return subset, pairs[int(rng.integers(len(pairs)))]


def correspondence(seed: int, workdir: Path, in_process: bool) -> list[Op]:
    rng = np.random.default_rng(seed)
    built = {spec: groups.group_from_spec(spec) for spec in dict.fromkeys(ACTION_GROUPS + RESTRICTION_GROUPS)}
    ops = [_action_op(spec, built[spec]) for spec in ACTION_GROUPS]
    for spec in REP_GROUPS:
        group = built[spec]
        rep = reps.PartialRep(group, zero_one(bernoulli_maps(group.table)))
        ops.append(_rep_op(f"rep 0/1 {spec}", group, rep, exact=True))
    group = built[UNITARY_GROUP]
    mats = zero_one(bernoulli_maps(group.table))
    q = _random_unitary(rng, mats[0].shape[0])
    rep = reps.PartialRep(group, [q @ m @ q.conj().T for m in mats])
    ops.append(_rep_op(f"rep unitary {UNITARY_GROUP}", group, rep, exact=False))
    for i in range(RESTRICTIONS):
        spec = RESTRICTION_GROUPS[i % len(RESTRICTION_GROUPS)]
        subset, drop = _restriction_input(rng, built[spec].table)
        ops.append(_restriction_op(spec, built[spec], subset, drop))
    return ops


# -- closure ----------------------------------------------------------------
#
# Why: the graded frozenset closure (about 3 s at order 8) and the
# semigroup tables and certificate dominate here; order 10 builds a
# 2816 x 2816 table.  Gains or memory costs in semigroup and graded show
# here and nowhere else.  cyclic:7 is certified exhaustively, cyclic:8 and
# dihedral:5 by 10^6 sampled triples.

VERIFY_GROUPS = ("cyclic:7", "cyclic:8", "dihedral:5")
CLOSURE_GROUPS = ("dihedral:3", "cyclic:7", "dihedral:4")


def closure(seed: int, workdir: Path, in_process: bool) -> list[Op]:
    ops = []
    for spec in VERIFY_GROUPS:
        group = groups.group_from_spec(spec)

        def run(work, group=group):
            report = semigroup.verify_inverse_semigroup(group, seed=seed)
            work["semigroup_elements"] += report.size
            work["verify_cases"] += sum(c.checked for c in report.checks)
            return report

        def check(report, p=group.order):
            failed = [c.name for c in report.checks if not c.passed]
            if failed or not report.passed:
                return f"certificate checks failed: {failed}"
            if report.size != formula(p):
                return f"size {report.size}, expected {formula(p)}"
            return None

        ops.append(Op(f"verify {spec}", group.order, run, check))
    for spec in CLOSURE_GROUPS:
        group = groups.group_from_spec(spec)

        def run(work, group=group):
            alg = algebra.build_algebra(group)
            found = graded.generated_semigroup(graded.grading(alg))
            work["semigroup_elements"] += alg.dim
            work["closure_sizes"] += len(found)
            return len(found)

        def check(size, p=group.order):
            return None if size == formula(p) else f"closure size {size}, expected {formula(p)}"

        ops.append(Op(f"closure {spec}", group.order, run, check))
    return ops


# -- cli --------------------------------------------------------------------
#
# Why: about 0.2 s of each roughly 0.27 s call is interpreter and numpy
# import.  The same layers are used through many tiny calls, where added
# imports, eager precomputation or stats plumbing cost every call; the
# library workloads hide those costs inside setup_s.  Expected outputs
# follow README.md and FORMATS.md and are computed here independently.

CLI_TIMEOUT_S = 60.0


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    maxrss_kib: int = 0


class CliRunner:
    """Runs ``invsg`` argv lists as subprocesses, or in-process through
    ``cli.run`` with stdout and stderr captured (the traced mode)."""

    def __init__(self, src: Path, workdir: Path, in_process: bool):
        self.workdir = workdir
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def __call__(self, argv: list[str]) -> CliResult:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            return CliResult(code, out.getvalue(), err.getvalue())
        with tempfile.TemporaryFile(dir=self.workdir) as out, tempfile.TemporaryFile(dir=self.workdir) as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "invsg.cli", *argv],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=self.workdir, env=self.env,
            )
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return CliResult(proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss)


def cyclic_table(p: int) -> list[list[int]]:
    return [[(a + b) % p for b in range(p)] for a in range(p)]


def canonical_elements(p: int) -> list[tuple[int, int]]:
    """(support mask, degree) of the semigroup of Z/p, in canonical order."""
    return sorted(((m, s) for s in range(p) for m in range(1 << p) if m & 1 and m >> s & 1), key=lambda e: (e[1], e[0]))


def element_json(mask: int, degree: int) -> dict:
    return {"support": [i for i in range(mask.bit_length()) if mask >> i & 1], "degree": degree}


def cyclic_action_maps(p: int, subset: list[int]) -> list[tuple[tuple[int, int], list[tuple[int, int]]]]:
    """The semigroup action of the restricted regular action of Z/p.

    (F, s) sends x to s+x when x and s+x lie in the subset and s+x-r does
    for every r in F (the product of the projections theta_r theta_r^-1).
    """
    inside = set(subset)
    pos = {y: i for i, y in enumerate(subset)}
    out = []
    for mask, s in canonical_elements(p):
        pairs = []
        for x in subset:
            y = (s + x) % p
            if y in inside and all((y - r) % p in inside for r in range(p) if mask >> r & 1):
                pairs.append((pos[x], pos[y]))
        out.append(((mask, s), pairs))
    return out


def _json_out(res: CliResult):
    return json.loads(res.out)


def cli_ops(seed: int, workdir: Path, in_process: bool) -> list[Op]:
    rng = np.random.default_rng(seed)
    src = Path(groups.__file__).resolve().parent.parent
    runner = CliRunner(src, workdir, in_process)

    # files made in setup: a restriction of the regular action of Z/5 to a
    # seeded 3-subset, its 0/1 partial representation, and a copy with one
    # image dropped, which is not a partial action
    p = 5
    table = cyclic_table(p)
    subset, (t_drop, x_drop) = _restriction_input(rng, table)
    maps = restriction_maps(table, subset)
    group_json = {"order": p, "table": table}

    def theta_json(ms):
        return {str(t): [[x, y] for x, y in enumerate(m) if y is not None] for t, m in enumerate(ms)}

    bad_maps = list(maps)
    bad_maps[t_drop] = tuple(None if i == x_drop else y for i, y in enumerate(maps[t_drop]))
    files = {
        "valid.json": {"group": group_json, "set_size": len(subset), "theta": theta_json(maps)},
        "invalid.json": {"group": group_json, "set_size": len(subset), "theta": theta_json(bad_maps)},
        "rep.json": {
            "group": group_json,
            "dim": len(subset),
            "matrices": {str(t): [[[float(v), 0.0] for v in row] for row in m.tolist()] for t, m in enumerate(zero_one(maps))},
        },
    }
    for name, data in files.items():
        (workdir / name).write_text(json.dumps(data))
    path = {name: str(workdir / name) for name in files}

    word = [int(t) for t in rng.integers(0, p, size=4)]
    prefix = [sum(word[:k]) % p for k in range(len(word) + 1)]
    action = cyclic_action_maps(p, subset)

    def matrix(pairs, n):
        m = [[[0.0, 0.0] for _ in range(n)] for _ in range(n)]
        for x, y in pairs:
            m[y][x] = [1.0, 0.0]
        return m

    def payload(expected):
        return lambda res: None if _json_out(res) == expected else f"output {res.out[:200]!r} differs from {expected!r:.200}"

    def lines(expected):
        return lambda res: None if res.out.splitlines() == expected else f"output {res.out[:200]!r}, expected {expected!r}"

    def verify_ok(res):
        data = _json_out(res)
        names = sorted(c["name"] for c in data["checks"])
        want = ["associativity", "idempotents commute", "involution identities", "unique inverses"]
        if data["size"] != 20 or not data["passed"] or names != want or not all(c["passed"] for c in data["checks"]):
            return f"verify payload {res.out[:200]!r}"
        return None

    def passed_is(flag):
        return lambda res: None if _json_out(res)["passed"] is flag else f"passed != {flag}: {res.out[:200]!r}"

    def rejected_invalid(res):
        out, err = _json_out(res), json.loads(res.err)
        return None if out["passed"] is False and err["passed"] is False else "invalid action not rejected"

    def error_payload(res):
        err = json.loads(res.err)
        return None if isinstance(err, dict) and {"error", "message"} <= set(err) else f"stderr {res.err[:200]!r}"

    def rep_ok(res):
        data = _json_out(res)
        return None if data["passed"] is True and data["tol"] == 0 else f"rep validate {res.out[:200]!r}"

    elements3 = canonical_elements(3)
    script = [
        (["sg", "order", "cyclic:28"], 28, 0, lines([str(formula(28))])),
        (["sg", "order", "cyclic:5", "--json"], 5, 0, payload({"group_order": 5, "order": formula(5)})),
        (["sg", "enumerate", "cyclic:3", "--json"], 3, 0,
         payload({"count": formula(3), "elements": [element_json(m, s) for m, s in elements3]})),
        (["sg", "reduce", "cyclic:5", "--word", ",".join(map(str, word)), "--json"], 5, 0,
         payload(element_json(sum(1 << x for x in set(prefix)), prefix[-1]))),
        (["sg", "verify", "klein4", "--seed", str(seed), "--json"], 4, 0, verify_ok),
        (["pa", "bernoulli", "cyclic:3"], 3, 0,
         payload({"group": {"order": 3, "table": cyclic_table(3)}, "set_size": 4, "theta": theta_json(bernoulli_maps(cyclic_table(3)))})),
        (["pa", "validate", path["valid.json"], "--json"], 5, 0, passed_is(True)),
        (["pa", "extend", path["valid.json"], "--json"], 5, 0,
         payload({"group": group_json, "set_size": len(subset),
                  "action": [{"element": element_json(m, s), "map": [list(xy) for xy in sorted(pairs)]} for (m, s), pairs in action]})),
        (["pa", "validate", path["invalid.json"], "--json"], 5, 1, rejected_invalid),
        (["pa", "extend", path["invalid.json"]], 5, 1, error_payload),
        (["rep", "validate", path["rep.json"], "--json"], 5, 0, rep_ok),
        (["rep", "extend", path["rep.json"], "--json"], 5, 0,
         payload({"dim": len(subset), "count": formula(p),
                  "extension": [{"element": element_json(m, s), "matrix": matrix(pairs, len(subset))} for (m, s), pairs in action]})),
        (["alg", "decompose", "klein4", "--seed", str(seed), "--json"], 4, 0,
         payload({"dim": 20, "blocks": [1] * 11 + [3], "center_dim": 12})),
        (["alg", "decompose", "cyclic:4", "--seed", str(seed), "--json"], 4, 0,
         payload({"dim": 20, "blocks": [1] * 7 + [2, 3], "center_dim": 9})),
        (["graded", "count", "cyclic:5"], 5, 0, lines([f"count {formula(5)}", f"expected {formula(5)}", "match true"])),
        (["graded", "map", "cyclic:3", "--json"], 3, 0,
         payload({"map": [{"element": element_json(m, s),
                           "indices": [j for j, (m2, s2) in enumerate(elements3) if s2 == s and m2 & m == m]}
                          for m, s in elements3]})),
    ]
    ops = []
    for argv, order, code, check_output in script:

        def run(work, argv=argv):
            res = runner(argv)
            work["cli_stdout_bytes"] += len(res.out.encode())
            return res

        def check(res, code=code, check_output=check_output):
            if res.code != code:
                return f"exit code {res.code}, expected {code}; stderr {res.err[:200]!r}"
            return check_output(res)

        label = " ".join(Path(a).name if os.sep in a else a for a in argv)
        ops.append(Op(f"invsg {label}", order, run, check, exit_code=code))
    return ops


SETUP = {"decompose": decompose, "correspondence": correspondence, "closure": closure, "cli": cli_ops}
# the speed-probe kernel closest to each workload's own work (run.SpeedProbe)
PROBE_KERNEL = {"decompose": "linalg", "correspondence": "python", "closure": "indexing", "cli": "python"}

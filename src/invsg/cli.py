"""Command-line entry point.

One executable, two-level subcommands (see FORMATS.md for all JSON
schemas):

    invsg sg order|enumerate|reduce|verify <group> ...
    invsg pa validate|extend|bernoulli ...
    invsg rep validate|extend <file> ...
    invsg alg decompose <group> [--seed K]
    invsg graded count|map <group>

Groups are builtin names (cyclic:n, klein4, dihedral:n) or JSON file
paths; file paths win.  Exit codes: 0 success, 1 domain error (the
payload on stderr carries the counterexample), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Iterable, Sequence

from . import actions, algebra, graded, groups, reps, semigroup

DOMAIN_ERRORS = (
    groups.GroupTableError,
    semigroup.CapExceeded,
    semigroup.ConditionsViolated,
    actions.InvalidGroupAction,
    actions.NotMultiplicative,
    reps.NotRepresentation,
    algebra.EigenvalueClusterAmbiguous,
    algebra.NonIntegerBlockDim,
    algebra.RankThresholdBreach,
    ValueError,
)


def _emit(args: argparse.Namespace, payload: Callable[[], dict], plain: Callable[[], Iterable[str]]) -> None:
    """Print the JSON payload under --json, else the plain lines; only
    the printed form gets built."""
    if getattr(args, "json", False):
        print(json.dumps(payload(), sort_keys=True, indent=2))
    else:
        for line in plain():
            print(line)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_sg_order(args: argparse.Namespace) -> int:
    group = groups.group_from_spec(args.group)
    if group.order < 2:
        print(
            "sg order: the closed-form count needs group order >= 2 "
            "(use 'sg enumerate' for the trivial group)",
            file=sys.stderr,
        )
        return 2
    n = semigroup.order_formula(group.order)
    _emit(args, lambda: {"group_order": group.order, "order": n}, lambda: [str(n)])
    return 0


def _cmd_sg_enumerate(args: argparse.Namespace) -> int:
    group = groups.group_from_spec(args.group)
    elements = semigroup.enumerate_semigroup(group, cap=args.cap)
    _emit(
        args,
        lambda: {"count": len(elements), "elements": [semigroup.element_to_dict(a) for a in elements]},
        lambda: [f"{sorted(a.support_set())} {a.degree}" for a in elements] + [f"count {len(elements)}"],
    )
    return 0


def _cmd_sg_reduce(args: argparse.Namespace) -> int:
    group = groups.group_from_spec(args.group)
    try:
        word = [int(x) for x in args.word.split(",") if x != ""]
    except ValueError:
        print("sg reduce: --word expects comma-separated integers", file=sys.stderr)
        return 2
    if not word:
        print("sg reduce: --word must be nonempty", file=sys.stderr)
        return 2
    if any(not 0 <= t < group.order for t in word):
        raise ValueError(f"word letters must lie in [0, {group.order})")
    a = semigroup.reduce_word(group, word)
    _emit(args, lambda: semigroup.element_to_dict(a), lambda: [f"{sorted(a.support_set())} {a.degree}"])
    return 0


def _cmd_sg_verify(args: argparse.Namespace) -> int:
    group = groups.group_from_spec(args.group)
    report = semigroup.verify_inverse_semigroup(group, cap=args.cap, seed=args.seed)
    payload = {
        "group_order": report.group_order,
        "size": report.size,
        "passed": report.passed,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "mode": c.mode,
                "checked": c.checked,
                "counterexample": None if c.counterexample is None else repr(c.counterexample),
            }
            for c in report.checks
        ],
    }
    _emit(args, lambda: payload, lambda: report.describe().splitlines())
    if not report.passed:
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    return 0


def _action_report_payload(name: str, report: actions.ActionReport) -> dict:
    return {
        "validator": name,
        "passed": report.passed,
        "failures": [{"axiom": f.axiom, "witness": list(map(repr, f.witness))} for f in report.failures],
    }


def _cmd_pa_validate(args: argparse.Namespace) -> int:
    action = actions.action_from_dict(_load_json(args.file))
    rep_a = actions.validate_axioms(action)
    rep_b = actions.validate_semigroup_form(action)
    payload = {
        "passed": rep_a.passed and rep_b.passed,
        "reports": [
            _action_report_payload("domain axioms", rep_a),
            _action_report_payload("composition identities", rep_b),
        ],
    }
    plain = [
        "domain axioms: " + ("ok" if rep_a.passed else rep_a.describe()),
        "composition identities: " + ("ok" if rep_b.passed else rep_b.describe()),
    ]
    _emit(args, lambda: payload, lambda: plain)
    if not payload["passed"]:
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    return 0


def _cmd_pa_extend(args: argparse.Namespace) -> int:
    action = actions.action_from_dict(_load_json(args.file))
    inv = actions.to_inverse_action(action)
    graphs = [(a, sorted(f.graph())) for a, f in inv.table(cap=args.cap).items()]  # enumeration order
    _emit(
        args,
        lambda: {
            "group": groups.group_to_dict(action.group),
            "set_size": action.set_size,
            "action": [
                {"element": semigroup.element_to_dict(a), "map": [[x, y] for x, y in graph]}
                for a, graph in graphs
            ],
        },
        lambda: (f"{sorted(a.support_set())} {a.degree} -> {graph}" for a, graph in graphs),
    )
    return 0


def _cmd_pa_bernoulli(args: argparse.Namespace) -> int:
    group = groups.group_from_spec(args.group)
    action = actions.bernoulli_partial_action(group, cap=args.cap)
    print(json.dumps(actions.action_to_dict(action), sort_keys=True, indent=2))
    return 0


def _cmd_rep_validate(args: argparse.Namespace) -> int:
    rep = reps.rep_from_dict(_load_json(args.file))
    report = reps.validate_partial_rep(rep, tol=args.tol)
    payload = {
        "passed": report.passed,
        "tol": report.tol,
        "checks": [
            {
                "name": c.name,
                "deviation": c.deviation,
                "witness": None if c.witness is None else list(c.witness),
            }
            for c in report.checks
        ],
    }
    _emit(args, lambda: payload, lambda: report.describe().splitlines())
    if not report.passed:
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    return 0


def _cmd_rep_extend(args: argparse.Namespace) -> int:
    rep = reps.rep_from_dict(_load_json(args.file))
    ext = reps.extend_to_semigroup(rep, tol=args.tol, cap=args.cap)  # table in enumeration order
    _emit(
        args,
        lambda: {
            "dim": ext.dim,
            "count": len(ext.table),
            "extension": [
                {"element": semigroup.element_to_dict(a), "matrix": reps.matrix_to_json(m)}
                for a, m in ext.table.items()
            ],
        },
        lambda: [
            f"extended {len(ext.table)} elements at dimension {ext.dim}",
            f"max multiplicative deviation {ext.max_multiplicative_deviation()[0]:.3e}",
            f"max star deviation {ext.max_star_deviation()[0]:.3e}",
        ],
    )
    return 0


def _cmd_alg_decompose(args: argparse.Namespace) -> int:
    group = groups.group_from_spec(args.group)
    alg = algebra.build_algebra(group, cap=args.cap)
    blocks = list(algebra.wedderburn(alg, seed=args.seed).blocks)
    _emit(
        args,
        lambda: {"dim": alg.dim, "blocks": blocks, "center_dim": len(blocks)},
        lambda: [f"dim {alg.dim}", f"blocks {blocks}", f"center_dim {len(blocks)}"],
    )
    return 0


def _cmd_graded_count(args: argparse.Namespace) -> int:
    group = groups.group_from_spec(args.group)
    alg = algebra.build_algebra(group, cap=args.cap)
    count = len(graded.generated_semigroup(graded.grading(alg)))
    expected = semigroup.order_formula(group.order) if group.order >= 2 else 1
    plain = [f"count {count}", f"expected {expected}", f"match {str(count == expected).lower()}"]
    _emit(args, lambda: {"count": count, "expected": expected, "match": count == expected}, lambda: plain)
    return 0


def _cmd_graded_map(args: argparse.Namespace) -> int:
    group = groups.group_from_spec(args.group)
    alg = algebra.build_algebra(group, cap=args.cap)
    subspaces = [(a, sorted(graded.element_subspace(alg, a).indices)) for a in alg.basis]
    _emit(
        args,
        lambda: {"map": [{"element": semigroup.element_to_dict(a), "indices": ix} for a, ix in subspaces]},
        lambda: (f"{sorted(a.support_set())} {a.degree} -> {ix}" for a, ix in subspaces),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invsg",
        description="partial actions of finite groups and the universal inverse semigroup",
    )
    top = parser.add_subparsers(dest="family", required=True)

    def sub(family, name, func, **kwargs):
        p = family.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    sg = top.add_parser("sg", help="semigroup arithmetic").add_subparsers(
        dest="command", required=True
    )
    p = sub(sg, "order", _cmd_sg_order, help="closed-form semigroup size")
    p.add_argument("group")
    p = sub(sg, "enumerate", _cmd_sg_enumerate, help="list all canonical elements")
    p.add_argument("group")
    p.add_argument("--cap", type=int, default=semigroup.DEFAULT_ENUMERATION_CAP)
    p = sub(sg, "reduce", _cmd_sg_reduce, help="canonical form of a generator word")
    p.add_argument("group")
    p.add_argument("--word", required=True, help="comma-separated group indices")
    p = sub(sg, "verify", _cmd_sg_verify, help="brute-force inverse-semigroup certificate")
    p.add_argument("group")
    p.add_argument("--cap", type=int, default=semigroup.DEFAULT_ENUMERATION_CAP)
    p.add_argument("--seed", type=int, default=0)

    pa = top.add_parser("pa", help="partial actions").add_subparsers(
        dest="command", required=True
    )
    p = sub(pa, "validate", _cmd_pa_validate, help="check both axiom systems on a file")
    p.add_argument("file")
    p = sub(pa, "extend", _cmd_pa_extend, help="emit the full semigroup action table")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=semigroup.DEFAULT_ENUMERATION_CAP)
    p = sub(pa, "bernoulli", _cmd_pa_bernoulli, help="translation action on identity-containing subsets")
    p.add_argument("group")
    p.add_argument("--cap", type=int, default=semigroup.DEFAULT_ENUMERATION_CAP)

    rp = top.add_parser("rep", help="partial representations").add_subparsers(
        dest="command", required=True
    )
    p = sub(rp, "validate", _cmd_rep_validate, help="per-axiom deviations of a matrix family")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=None)
    p = sub(rp, "extend", _cmd_rep_extend, help="extend to the whole semigroup")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--cap", type=int, default=semigroup.DEFAULT_ENUMERATION_CAP)

    al = top.add_parser("alg", help="semigroup algebra").add_subparsers(
        dest="command", required=True
    )
    p = sub(al, "decompose", _cmd_alg_decompose, help="numerical matrix-block decomposition")
    p.add_argument("group")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=algebra.DEFAULT_DIM_CAP)

    gr = top.add_parser("graded", help="graded subspace lattice").add_subparsers(
        dest="command", required=True
    )
    p = sub(gr, "count", _cmd_graded_count, help="size of the generated subspace semigroup")
    p.add_argument("group")
    p.add_argument("--cap", type=int, default=algebra.DEFAULT_DIM_CAP)
    p = sub(gr, "map", _cmd_graded_map, help="element-to-subspace table")
    p.add_argument("group")
    p.add_argument("--cap", type=int, default=algebra.DEFAULT_DIM_CAP)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except groups.GroupSpecError as exc:
        print(f"invsg: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"invsg: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        witness = getattr(exc, "witness", None)
        if witness is not None:
            payload["witness"] = [repr(w) for w in witness]
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

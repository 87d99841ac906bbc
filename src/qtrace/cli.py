"""Command-line driver.

Subcommands: ``validate``, ``compile``, ``product``, ``infer``, ``oracle``,
``lawcheck``.  Exit codes: 0 success, 1 a check failed (a lawcheck check,
or the solver's own check of its fixed point, a ``SolverError``), 2 usage
or validation error.  Numeric output is exact ("num/den") unless ``--decimal``
asks for a rendering.  The environment variable ``QTRACE_SEED`` supplies
the default seed for ``lawcheck``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import lawcheck, oracle
from .domains import rational, value_str
from .models import (
    Dfa,
    LabeledMc,
    MarkovRewardModel,
    ModelError,
    NonTerminatingMc,
    complete_dfa,
    require_same_alphabet,
    validate,
)
from .modeljson import SchemaError, model_to_dict, parse_model
from .products import PAIRING_TABLE
from .programs import CompileError, ParseError, compile_probabilistic, compile_weighted, parse_program
from .solvers import SolverError, solve_product


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load_model(path: str):
    try:
        return parse_model(_read(path))
    except (SchemaError, json.JSONDecodeError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_checked(path: str, expected_type, complete: bool = False):
    model = _load_model(path)
    if not isinstance(model, expected_type):
        raise UsageError(
            f"{path}: expected a {expected_type.__name__}, got {type(model).__name__}"
        )
    if complete and isinstance(model, Dfa):
        model = complete_dfa(model)
    violations = validate(model)
    if violations:
        lines = "\n".join(f"  - {v}" for v in violations)
        raise UsageError(f"{path}: invalid model:\n{lines}")
    return model


def _trace_str(word) -> str:
    return "·".join(word)


def _emit(doc, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args) -> int:
    model = _load_model(args.model)
    violations = validate(model)
    if args.format == "json":
        _emit({"model": args.model, "violations": violations}, None)
    elif violations:
        for v in violations:
            print(f"violation: {v}")
    else:
        print("ok")
    return 2 if violations else 0


def cmd_compile(args) -> int:
    program = parse_program(_read(args.program))
    if args.mode == "weighted":
        report = compile_weighted(program, restrict_reachable=not args.no_restrict)
    else:
        report = compile_probabilistic(
            program, args.mode, restrict_reachable=not args.no_restrict
        )
    doc = model_to_dict(report.model)
    _emit(doc, args.output)
    summary = {
        "valuations": report.state_count,
        "reachable": report.reachable_count,
        "states": len(report.model.states),
        "warnings": list(report.warnings),
    }
    print(json.dumps(summary), file=sys.stderr)
    return 0


def _build_product(args):
    pairing = PAIRING_TABLE[args.pairing]
    system = _load_checked(args.system, pairing.system)
    requirement = _load_checked(args.requirement, pairing.requirement, complete=args.complete_dfa)
    try:
        return pairing.build(system, requirement, restrict=not args.no_restrict)
    except ModelError as exc:
        raise UsageError(str(exc)) from exc


def cmd_product(args) -> int:
    product = _build_product(args)
    _emit(model_to_dict(product), args.output)
    return 0


def cmd_infer(args) -> int:
    product = _build_product(args)
    kw = {}
    if args.mode == "iterate":
        kw["steps"] = args.steps if args.steps is not None else 10
    if args.mode == "epsilon":
        kw["epsilon"] = rational(args.epsilon or "1/1000000")
    report = solve_product(product, args.mode, **kw)
    if args.format == "json":
        doc = report.to_json()
        doc["initial"] = product.initial
        _emit(doc, None)
        return 0
    value = report.value_at(product.initial)
    print(f"value({product.initial}) = {value_str(value, args.decimal)}")
    if args.full:
        for state in sorted(report.values):
            print(f"  {state} = {value_str(report.values[state], args.decimal)}")
    print(
        f"method={report.method} iterations={report.iterations} converged={report.converged}",
        file=sys.stderr,
    )
    return 0


def cmd_oracle(args) -> int:
    pairing = PAIRING_TABLE[args.pairing]
    system = _load_checked(args.system, pairing.system)
    depth = args.depth
    if args.condition and (args.requirement is None or pairing.system is not LabeledMc):
        raise UsageError("--condition needs a requirement and the mc-dfa or mc-costdfa pairing")

    if args.requirement is None:
        # no requirement: print the system's direct semantics
        if isinstance(system, NonTerminatingMc) and depth < 1:
            raise UsageError("marginal depth must be at least 1")
        if isinstance(system, MarkovRewardModel):
            dist = oracle.chain_semantics(system, system.initial, depth)
            doc = {f"{_trace_str(w)}#{m}": str(p) for (w, m), p in sorted(dist.items())}
        elif isinstance(system, (LabeledMc, NonTerminatingMc)):
            dist = oracle.chain_semantics(system, system.initial, depth)
            doc = {_trace_str(w): str(p) for w, p in sorted(dist.items())}
        else:
            doc = {}
            for w, m in sorted(oracle.wts_semantics(system, system.initial, depth)):
                doc.setdefault(_trace_str(w), m)  # a trace's least cost sorts first
        if args.format == "json":
            _emit(doc, None)
        else:
            for key, val in doc.items():
                print(f"{key} -> {val}")
        return 0

    requirement = _load_checked(args.requirement, pairing.requirement, complete=args.complete_dfa)
    require_same_alphabet(system, requirement)
    if args.condition:
        cond_dfa = _load_checked(args.condition, Dfa)
        require_same_alphabet(system, cond_dfa)
        value = oracle.cond_prob(system, requirement, cond_dfa, depth)
    else:
        value = pairing.direct(system, requirement, depth)(system.initial, requirement.initial, depth)
    undefined = "undefined (condition has probability 0)"
    if args.format == "json" and value is None:
        _emit({"depth": depth, "value": None, "reason": undefined}, None)
    elif args.format == "json":
        _emit({"depth": depth, "value": value_str(value)}, None)
    elif value is None:
        print(undefined)
    else:
        print(f"oracle value at depth {depth}: {value_str(value, args.decimal)}")
    return 0


def cmd_lawcheck(args) -> int:
    seed = args.seed if args.seed is not None else int(os.environ.get("QTRACE_SEED", "7"))
    targets = lawcheck.PAIRINGS if args.pairing == "all" else (args.pairing,)
    results = []

    if args.mutate:
        if args.pairing != "mc-dfa":
            raise UsageError("--mutate needs the mc-dfa pairing: the catalogue mutates its rule only")
        from .bundled import load_model

        mc = load_model("robot-mc.json")
        dfa = load_model("safe-recharge-dfa.json")
        fn = lawcheck.MUTATIONS[args.mutate]
        res = lawcheck.check_step_equality(
            "mc-dfa", mc, dfa, args.kmax, product_fn=fn, name=f"mutated[{args.mutate}]"
        )
        results.append(res)
    else:
        notes = []
        for pairing in targets:
            results.append(
                lawcheck.run_step_equality_batch(pairing, args.instances, args.kmax, seed)
            )
            if pairing in lawcheck.DIAGRAM_PAIRINGS:
                results.append(lawcheck.check_diagram(pairing, args.samples, seed))
            else:
                notes.append(
                    f"diagram[{pairing}] skipped: weaker criterion only, "
                    f"covered by step equality"
                )
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
        if args.pairing == "all":
            import random

            rng = random.Random(f"{seed}:composite")
            for i in range(5):
                results.append(
                    lawcheck.check_cost_bounded(
                        lawcheck.random_cost_mc(rng, 3), rng.randint(2, 6), args.kmax
                    )
                )
                results.append(
                    lawcheck.check_cost_induced(
                        lawcheck.random_mc(rng),
                        lawcheck.random_rm(rng),
                        rng.randint(2, 6),
                        args.kmax,
                    )
                )
                results.append(
                    lawcheck.check_translation(
                        lawcheck.random_mc(rng), lawcheck.random_dfa(rng)
                    )
                )

    passed = all(r.passed for r in results)
    doc = {"seed": seed, "passed": passed, "checks": [r.to_json() for r in results]}
    if args.format == "json":
        _emit(doc, None)
    else:
        for r in results:
            mark = "pass" if r.passed else "FAIL"
            print(f"[{mark}] {r.name} {r.details}")
            if r.counterexample:
                print(f"       counterexample: {r.counterexample}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing

def _count(text: str) -> int:
    """A non-negative integer option value."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qtrace",
        description="Exact temporal inference on probabilistic and weighted machines.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file's invariants")
    p.add_argument("model")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("compile", help="compile a .qtp program to a model")
    p.add_argument("program")
    p.add_argument("--mode", choices=("terminating", "reactive", "weighted"), required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--no-restrict", action="store_true", help="keep unreachable valuations")
    p.set_defaults(fn=cmd_compile)

    def pairing_args(p, nargs=None):
        p.add_argument("system")
        p.add_argument("requirement", nargs=nargs)
        p.add_argument("--pairing", choices=sorted(PAIRING_TABLE), required=True)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--complete-dfa",
            action="store_true",
            help="fill missing requirement transitions with a rejecting sink",
        )

    p = sub.add_parser("product", help="build the synchronized product")
    pairing_args(p)
    p.add_argument("-o", "--output")
    p.add_argument("--no-restrict", action="store_true")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("infer", help="build the product and solve it")
    pairing_args(p)
    p.add_argument("--mode", choices=("exact", "iterate", "epsilon", "bellman"), default="exact")
    p.add_argument("--steps", type=_count)
    p.add_argument("--epsilon")
    p.add_argument("--full", action="store_true", help="print the whole value vector")
    p.add_argument("--decimal", type=_count, help="render values with this many decimals")
    p.add_argument("--no-restrict", action="store_true")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("oracle", help="depth-bounded direct semantics and queries")
    pairing_args(p, nargs="?")
    p.add_argument("--depth", type=_count, required=True)
    p.add_argument("--condition", help="extra DFA for the conditional query (mc pairings)")
    p.add_argument("--decimal", type=_count)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("lawcheck", help="run the correctness checks")
    p.add_argument("pairing", choices=lawcheck.PAIRINGS + ("all",))
    p.add_argument("--seed", type=int)
    p.add_argument("--instances", type=_count, default=25)
    p.add_argument("--kmax", type=_count, default=8)
    p.add_argument("--samples", type=_count, default=100)
    p.add_argument("--mutate", choices=sorted(lawcheck.MUTATIONS))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_lawcheck)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ParseError, CompileError, ModelError, SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ``solve`` (pick an algorithm, emit solution JSON), ``verify``
(recheck a solution document against its instance), ``gen random`` (seeded
instance generator) and ``reduce setcover`` / ``reduce vertexcover``
(hardness reductions; the reduced instance goes to --out, the budget and
bookkeeping JSON to stdout).

Exit codes: 0 success, 1 precondition or verification failure (or a broken
solver invariant), 2 unreadable or malformed input, 3 oracle search space,
reduced or random instance past its size limit, or memory run out.
Diagnostics and --trace output go to stderr, the trace one JSON line per step
as the solver takes it; results go to stdout or --out.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from pathlib import Path

from .errors import (
    CapmatchError,
    InstanceTooLarge,
    ParseError,
    ValidationError,
)
from .generators import (
    from_set_cover,
    from_vertex_cover,
    random_instance,
    read_graph,
    read_set_cover,
)
from .minmax import solve_minmax
from .minsum import lp_approx_run, solve_p_approx
from .model import parse_instance, serialize_instance, solution_to_json
from .oracle import DEFAULT_LIMIT, brute_force_minmax, brute_force_minsum
from .stability import verify_solution
from .twocost import solve_two_cost

# Entries of a flat dict that one encoder call takes in _indented_json.
_JSON_SLICE = 4096

# Each --alg and its solver call on (instance, --trace callable, --limit).
# A call looks its solver up in this module, where bench/spans.py binds spans.
_SOLVERS = {
    "minmax": lambda inst, emit, limit: solve_minmax(inst),
    "psum": lambda inst, emit, limit: solve_p_approx(inst),
    "lp": lambda inst, emit, limit: lp_approx_run(inst, emit).solution,
    "twocost": lambda inst, emit, limit: solve_two_cost(inst, emit)[0],
    "oracle-minsum": lambda inst, emit, limit: brute_force_minsum(inst, limit=limit),
    "oracle-minmax": lambda inst, emit, limit: brute_force_minmax(inst, limit=limit),
}
ALGORITHMS = tuple(_SOLVERS)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapmatchError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        if isinstance(exc, (InstanceTooLarge, MemoryError)):
            return 3
        return 2 if isinstance(exc, (ParseError, ValidationError, OSError)) else 1


class _Parser(argparse.ArgumentParser):
    """A usage error is one ``error:`` line on stderr and exit 2, like every
    other bad input; subparsers are built from this class too."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="capmatch")
    sub = parser.add_subparsers(required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--alg", required=True, choices=ALGORITHMS)
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--out")
    solve.add_argument("--trace", action="store_true",
                       help="emit per-step JSON lines on stderr (lp, twocost)")
    solve.add_argument("--limit", type=int, default=DEFAULT_LIMIT,
                       help="oracle search-space ceiling")
    solve.add_argument("--format", choices=("json", "text"), default="json")
    solve.set_defaults(func=run_solve)

    verify = sub.add_parser("verify", help="recheck a solution document")
    verify.add_argument("--in", dest="infile", required=True)
    verify.add_argument("--solution", required=True)
    verify.set_defaults(func=run_verify)

    gen = sub.add_parser("gen", help="generate instances")
    gen_sub = gen.add_subparsers(required=True)
    gen_random = gen_sub.add_parser("random")
    gen_random.add_argument("--agents", type=int, default=8)
    gen_random.add_argument("--programs", type=int, default=6)
    gen_random.add_argument("--max-list", type=int, default=4)
    gen_random.add_argument("--quotas", default="0,1,2",
                            help="comma-separated allowed quota values")
    gen_random.add_argument("--costs", default="0,1,2,5",
                            help="comma-separated allowed cost values")
    gen_random.add_argument("--master-list", action="store_true")
    gen_random.add_argument("--seed", type=int, default=0)
    gen_random.add_argument("--out")
    gen_random.set_defaults(func=run_gen_random)

    reduce_cmd = sub.add_parser("reduce", help="covering-problem reductions")
    reduce_sub = reduce_cmd.add_subparsers(required=True)
    red_sc = reduce_sub.add_parser("setcover")
    red_sc.add_argument("--in", dest="infile", required=True,
                        help="file: 'n k' line, then element indices per set")
    red_sc.add_argument("--out", required=True)
    red_sc.set_defaults(func=run_reduce_setcover)
    red_vc = reduce_sub.add_parser("vertexcover")
    red_vc.add_argument("--in", dest="infile", required=True,
                        help="file: vertex count line, then 'u v' per edge")
    red_vc.add_argument("--k", type=int, required=True)
    red_vc.add_argument("--eps", default="1/2",
                        help="approximation gap, e.g. 1/3 or 0.5")
    red_vc.add_argument("--out", required=True)
    red_vc.set_defaults(func=run_reduce_vertexcover)

    return parser


def run_solve(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.infile))
    emit = _print_event if args.trace else None
    sol = _SOLVERS[args.alg](inst, emit, args.limit)
    doc = solution_to_json(inst, sol)
    payload = _render(doc, args.format)
    _write(args.out, payload)
    return 0


def _print_event(event: dict) -> None:
    # sys.stderr is looked up per event, so a redirect made after startup holds
    print(json.dumps(event), file=sys.stderr)


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return _indented_json(doc) + "\n"
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict):  # matching, augmentation
            lines.extend(f"{key} {k} {v}" for k, v in value.items())
        else:  # JSON's true/false; numbers and names as they are
            text = json.dumps(value) if isinstance(value, bool) else value
            lines.append(f"{key} {text}")
    return "\n".join(lines) + "\n"


def _indented_json(value, depth: int = 0) -> str:
    r"""``json.dumps(value, indent=2)`` through the C encoder, which ``indent``
    bypasses, for dicts and lists whose lists hold only non-empty dicts of
    scalars.  A raw NUL separator in the encoder's output is never inside a
    string, which escapes NUL; in ``}\0{`` it parts two list rows."""
    pad = "\n" + "  " * (depth + 1)
    if not value or not isinstance(value, (dict, list)):
        return json.dumps(value)
    if isinstance(value, list):
        rows = json.dumps(value, separators=("\0", ": "))[2:-2]
        rows = rows.replace("}\0{", f"{pad}}},{pad}{{{pad}  ").replace("\0", f",{pad}  ")
        return f"[{pad}{{{pad}  {rows}{pad}}}{pad[:-2]}]"
    sep = "," + pad
    if {dict, list} & set(map(type, value.values())):
        body = sep.join(f"{json.dumps(k)}: {_indented_json(v, depth + 1)}"
                        for k, v in value.items())
    else:
        # The encoder holds every key and value it encodes until its call
        # returns, so a large flat dict is encoded a slice at a time.
        items = iter(value.items())
        body = sep.join([json.dumps(dict(islice(items, _JSON_SLICE)),
                                    separators=(sep, ": "))[1:-1]
                         for _ in range(0, len(value), _JSON_SLICE)])
    return f"{{{pad}{body}{pad[:-2]}}}"


def run_verify(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.infile))
    try:
        doc = json.loads(_read(args.solution))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past the digit limit
        raise ParseError(f"solution is not valid JSON: {exc}") from None
    report = verify_solution(inst, doc)
    print(_indented_json(report))
    return 0 if report["valid"] else 1


def run_gen_random(args: argparse.Namespace) -> int:
    quotas = _int_list(args.quotas, "--quotas")
    costs = _int_list(args.costs, "--costs")
    inst = random_instance(args.agents, args.programs, args.max_list,
                           quotas, costs, master_list=args.master_list,
                           seed=args.seed)
    _write(args.out, serialize_instance(inst))
    return 0


def run_reduce_setcover(args: argparse.Namespace) -> int:
    n, k, sets = read_set_cover(_read(args.infile))
    artifact = from_set_cover(n, sets, k)
    Path(args.out).write_text(serialize_instance(artifact.instance))
    print(json.dumps({"budget": artifact.budget, **artifact.meta}, indent=2))
    return 0


def run_reduce_vertexcover(args: argparse.Namespace) -> int:
    n_vertices, edges = read_graph(_read(args.infile))
    artifact = from_vertex_cover(n_vertices, edges, args.k, args.eps)
    Path(args.out).write_text(serialize_instance(artifact.instance))
    print(json.dumps({"budget": artifact.budget, **artifact.meta}, indent=2))
    return 0


def _int_list(raw: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated integers") from None


def _read(path: str) -> str:
    """The UTF-8 text of an input file; other bytes are malformed input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None


def _write(out: str | None, payload: str) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


if __name__ == "__main__":
    raise SystemExit(main())

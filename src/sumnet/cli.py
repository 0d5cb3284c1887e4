"""Command-line surface.

Four commands:

* ``structure`` -- build, validate and print incidence structures.
* ``bound``     -- capacity upper bounds for a structure and orientation.
* ``code``      -- generate, verify and export a linear network code.
* ``table``     -- capacity tables over scenario sets.

Output is deterministic byte for byte for a fixed invocation.  Errors go
to stderr with exit status 1; "no construction applies" exits with
status 3.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import incidence
from . import report as report_mod
from .codes import NoApplicableCode, export_code, lift_code
from .gf import PrimeField
from .incidence import IncidenceStructure
from .instances import ALIASES, INSTANCES, get_instance
from .network import build_sum_network, export_graph
from .report import RowSpec, orient_matrix
from .verify import verify_exact, verify_random

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CODE = 3


class CliError(Exception):
    pass


def _parse_chars(text: str) -> list[int]:
    """Parse a characteristic list; prime powers reduce to their prime."""
    chars = []
    for part in text.split(","):
        q = int(part)
        field = PrimeField.from_order(q)
        if field.p != q:
            print(f"note: field order {q} reduced to characteristic {field.p}")
        chars.append(field.p)
    return chars


def _parse_design_spec(text: str) -> tuple[IncidenceStructure, str]:
    """Resolve a 't-v-k-lam' design spec to a built-in construction.

    Besides Steiner triple systems, the one built-in is the design of all
    k-subsets of v points, a t-(v, k, C(v-t, k-t)) design for each t <= k;
    so a spec is decided by arithmetic before anything is built.
    """
    try:
        t, v, k, lam = (int(x) for x in text.split("-"))
    except ValueError as exc:
        raise CliError(f"bad design spec {text!r}; expected t-v-k-lam") from exc
    if t == 2 and k == 3 and lam == 1:
        return incidence.steiner_triple(v), f"2-({v},3,1)"
    if not 1 <= k <= v:
        raise ValueError("need 1 <= k <= v")
    if t < 1:
        raise ValueError("t must be at least 1")
    if t > k or math.comb(v - t, k - t) != lam:
        raise CliError(
            f"no built-in construction for a {t}-({v},{k},{lam}) design; "
            "supply a structure file instead"
        )
    return incidence.all_subsets_design(v, k), f"{t}-({v},{k},{lam})"


def _resolve_source(spec: str) -> tuple[IncidenceStructure, str, str]:
    """Resolve a structure source string to (structure, family, label).

    Accepts instance names (k2, triangle, fig3, fig4a, star-composite,
    fig6, fano), ``graph:SOURCE`` (a source that must be a graph),
    ``sts:V``, ``complete:N``, ``design:t-v-k-lam``, ``higher:SOURCE``
    (its subset-vs-block structure; a bare t-v-k-lam names a design), and
    ``file:PATH`` / ``blocks:PATH``.
    """
    if spec in INSTANCES or spec in ALIASES:
        inst = get_instance(spec)
        return inst.build(), inst.family, inst.name
    head, _, arg = spec.partition(":")
    if head == "graph":
        struct, family, label = _resolve_source(arg)
        if family != "graph":
            raise CliError(f"{arg!r} is not a graph instance")
        return struct, family, label
    if head == "sts":
        v = int(arg)
        return incidence.steiner_triple(v), "bibd", f"sts-{v}"
    if head == "complete":
        n = int(arg)
        return incidence.complete_graph(n), "graph", f"k{n}"
    if head == "higher":
        is_source = ":" in arg or arg in INSTANCES or arg in ALIASES
        base, _, label = _resolve_source(arg if is_source else f"design:{arg}")
        return incidence.higher_incidence(base), "higher", f"higher({label})"
    if head == "design":
        struct, label = _parse_design_spec(arg)
        return struct, "tdesign", label
    if head in ("file", "blocks"):
        text = Path(arg).read_text()
        parse = incidence.parse_matrix_text if head == "file" else incidence.parse_blocks_text
        struct = parse(text)
        family = _detect_family(struct)
        return struct, family, Path(arg).name
    raise CliError(f"cannot resolve structure source {spec!r}")


def _detect_family(struct: IncidenceStructure) -> str:
    if all(len(b) == 2 for b in struct.blocks):
        return "graph"
    params = incidence.validate_design(struct, 2)
    if params is not None:
        return "bibd" if params.lam == 1 else "tdesign"
    return ""


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--k2", action="store_true", default=None, help="single-edge graph")
    group.add_argument("--triangle", action="store_true", default=None, help="triangle graph")
    group.add_argument("--fano", action="store_true", default=None, help="Fano plane")
    group.add_argument("--graph", metavar="NAME",
                       help="named graph: k2, triangle, fig3, fig4a, star-composite, fig6")
    group.add_argument("--sts", type=int, metavar="V", help="Steiner triple system on V points")
    group.add_argument("--complete", type=int, metavar="N", help="complete graph on N vertices")
    group.add_argument("--higher", metavar="T-V-K-L",
                       help="subset-vs-block structure of a t-(v,k,lam) design")
    group.add_argument("--design", metavar="T-V-K-L", help="a t-(v,k,lam) design itself")
    group.add_argument("--file", metavar="PATH", help="incidence matrix file")
    group.add_argument("--blocks", metavar="PATH", help="block-list file")
    orient = parser.add_mutually_exclusive_group()
    orient.add_argument("--normal", action="store_true", help="row orientation (default)")
    orient.add_argument("--transpose", action="store_true", help="column orientation")


# instance flag -> the source spec it stands for
_FLAG_SOURCES = {
    "k2": "k2",
    "triangle": "triangle",
    "fano": "fano",
    "graph": "graph:{}",
    "sts": "sts:{}",
    "complete": "complete:{}",
    "higher": "higher:{}",
    "design": "design:{}",
    "file": "file:{}",
    "blocks": "blocks:{}",
}

# structure subcommand -> (source spec, what a missing argument should name)
_STRUCTURE_SOURCES = {
    "graph": ("graph:{}", "a name or --vertices N --edges u-v,..."),
    "fano": ("fano", ""),
    "sts": ("sts:{}", "the number of points"),
    "complete": ("complete:{}", "the number of vertices"),
    "star-composite": ("star-composite", ""),
    "higher": ("higher:{}", "a design spec or source"),
    "transpose": ("{}", "a source structure"),
    "from-file": ("file:{}", "a path"),
}


def _instance_from_flags(args) -> tuple[IncidenceStructure, str, str]:
    # Flags left unset are None, so `--sts 0` reaches the constructor.
    flag = next(f for f in _FLAG_SOURCES if getattr(args, f) is not None)
    return _resolve_source(_FLAG_SOURCES[flag].format(getattr(args, flag)))


def _orientation(args) -> str:
    return "transpose" if args.transpose else "normal"


# ---------------------------------------------------------------------------
# structure


def cmd_structure(args) -> int:
    if args.what == "graph" and args.edges:
        if args.arg:
            raise CliError("give either a named graph or --edges, not both")
        if not args.vertices:
            raise CliError("graph needs a name or --vertices N --edges u-v,...")
        edges = []
        for part in args.edges.split(","):
            u, _, v = part.partition("-")
            edges.append((int(u), int(v)))
        struct = incidence.from_graph(args.vertices, edges)
    else:
        spec, needs = _STRUCTURE_SOURCES[args.what]
        if needs and not args.arg:
            raise CliError(f"{args.what} needs {needs}")
        struct, _, _ = _resolve_source(spec.format(args.arg))
        if args.what == "transpose":
            struct = struct.transpose()

    if args.validate is not None:
        if args.validate == 0:
            params = incidence.detect_design(struct)
        else:
            params = incidence.validate_design(struct, args.validate)
        if params is None:
            print(f"not a design ({struct.num_points} points, {struct.num_blocks} blocks)")
            return EXIT_ERROR
        print(params)
        return EXIT_OK
    if args.network:
        net = build_sum_network(orient_matrix(struct, _orientation(args)), args.alpha)
        sys.stdout.write(export_graph(net))
        return EXIT_OK
    if args.as_blocks:
        sys.stdout.write(incidence.render_blocks_text(struct))
    else:
        sys.stdout.write(incidence.render_matrix_text(struct))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound


def _format_bound(result: bounds_mod.BoundResult) -> str:
    if result.via == "rank":
        return f"rank {result.bound} (t={result.rank_defect})"
    if result.via.startswith("subset"):
        s = ",".join(map(str, result.subset))
        out = f"subset {result.bound} (S={{{s}}}"
        if result.closure:
            out += f", S''={{{','.join(map(str, result.closure))}}}"
        out += f", x_S={result.x_s})"
        if result.note:
            out += f" [{result.note}]"
        return out
    kind = result.via.split(":", 1)[1]
    if not result.applicable:
        return f"family {kind}: {result.note}"
    out = f"family {kind} {result.bound}"
    if result.note:
        out += f" ({result.note})"
    return out


def cmd_bound(args) -> int:
    struct, family, label = _instance_from_flags(args)
    orientation = _orientation(args)
    if args.max_subset_size < 0:
        raise CliError(f"--max-subset-size must be nonnegative, got {args.max_subset_size}")
    a = orient_matrix(struct, orientation)
    for p in _parse_chars(args.char):
        field = PrimeField(p)
        print(f"{label} {orientation} char {p}:")
        lines = []
        if args.max_subset_size:
            lines.append(bounds_mod.subset_bound_limited(a, field, args.max_subset_size))
        else:
            try:
                lines.append(bounds_mod.subset_bound(a, field, args.subset_limit))
            except bounds_mod.SubsetSearchRefused as exc:
                print(f"  subset: {exc}")
        lines.append(bounds_mod.rank_bound(a, field))
        kind = report_mod.family_kind(family, orientation)
        if kind is not None:
            try:
                lines.append(bounds_mod.family_bound(struct, kind, field))
            except ValueError as exc:
                print(f"  family {kind}: not applicable ({exc})")
        for result in lines:
            print(f"  {_format_bound(result)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# code


def cmd_code(args) -> int:
    struct, family, label = _instance_from_flags(args)
    orientation = _orientation(args)
    if args.random_trials < 0:
        raise CliError(f"--random-trials must be nonnegative, got {args.random_trials}")
    chars = _parse_chars(args.char)
    if len(chars) != 1:
        raise CliError(f"code takes a single characteristic, got {args.char!r}")
    (p,) = chars
    field = PrimeField(p)
    net = build_sum_network(orient_matrix(struct, orientation), args.alpha)
    try:
        code, via = report_mod.generate_code(struct, family, orientation, field)
    except NoApplicableCode as exc:
        print(f"no construction applies for {label} {orientation} at char {p}: {exc}",
              file=sys.stderr)
        return EXIT_NO_CODE
    if args.alpha > 1:
        code = lift_code(code, args.alpha)
    result = verify_exact(net, code)
    verdict = "verified" if result.ok else "FAILED"
    print(f"{label} {orientation} char {p}: construction {via}, "
          f"rate {code.rate_label()}, {verdict}")
    if args.random_trials:
        rnd = verify_random(net, code, args.random_trials, args.seed)
        print(f"  randomized cross-check: {'ok' if rnd.ok else 'FAILED'} "
              f"({rnd.trials_or_dim} trials, seed {rnd.seed})")
        if not rnd.ok:
            return EXIT_ERROR
    if args.out:
        Path(args.out).write_text(export_code(code))
        print(f"  exported to {args.out}")
    return EXIT_OK if result.ok else EXIT_ERROR


# ---------------------------------------------------------------------------
# table


# table paper-all: (source spec, orientation, characteristics), in row order
_PAPER_ALL = (
    ("k2", "normal", (2, 3, 5)),
    ("k2", "transpose", (2, 3)),
    ("triangle", "normal", (2, 3)),
    ("fano", "normal", (2, 3)),
    ("fano", "transpose", (2, 3)),
    ("fig3", "transpose", (3,)),
    ("fig4a", "normal", (2, 3, 5)),
    ("fig4a", "transpose", (2, 3)),
    ("star-composite", "transpose", (2, 3, 5)),
    ("sts:7", "normal", (2, 3, 5)),
    ("sts:9", "normal", (2, 3, 5)),
    ("higher:2-4-3-2", "normal", (2, 3)),
    ("higher:2-4-3-2", "transpose", (2, 3)),
    ("design:2-4-3-2", "normal", (2,)),
    ("design:2-4-3-2", "transpose", (2, 5)),
)


def cmd_table(args) -> int:
    specs = []
    if args.scenario == "paper-all":
        for source, orientation, chars in _PAPER_ALL:
            struct, family, label = _resolve_source(source)
            specs += [RowSpec(label, struct, family, orientation, p) for p in chars]
    elif args.scenario == "sts":
        if not (args.v and args.char):
            raise CliError("table sts needs --v and --char")
        for v in args.v.split(","):
            struct, family, label = _resolve_source(f"sts:{v}")
            specs += [RowSpec(label, struct, family, "normal", p) for p in _parse_chars(args.char)]
    elif args.scenario == "higher":
        if not (args.design and args.char):
            raise CliError("table higher needs --design and --char")
        struct, family, label = _resolve_source(f"higher:design:{args.design}")
        for p in _parse_chars(args.char):
            specs += [RowSpec(label, struct, family, o, p) for o in ("normal", "transpose")]
    elif args.scenario == "higher-family":
        ts = [int(x) for x in (args.t or "2,3").split(",")]
        capacities = [report_mod.higher_family_capacity(t) for t in ts]  # refuses before output
        print("capacity of subset-vs-block networks on t-(v,t+1,(t+1)!^(2t+1)) designs")
        print("(characteristic not dividing t; value independent of v; nothing is built)")
        for t, (lam, cap) in zip(ts, capacities):
            print(f"  t={t}: lam={lam}, capacity {cap}")
        return EXIT_OK
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown scenario {args.scenario!r}")
    rows = report_mod.capacity_table(specs)
    if args.structured:
        sys.stdout.write(report_mod.render_table_jsonl(rows))
    else:
        sys.stdout.write(report_mod.render_table_text(rows))
    bad = [r for r in rows if r.note.startswith("error")]
    return EXIT_ERROR if bad else EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumnet",
        description="sum-networks from incidence structures: construction, "
        "capacity bounds, codes, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("structure", help="build and print incidence structures")
    ps.add_argument("what", choices=["graph", "fano", "sts", "complete",
                                     "star-composite", "higher", "transpose", "from-file"])
    ps.add_argument("arg", nargs="?", help="subcommand argument (size, name, spec, or path)")
    ps.add_argument("--vertices", type=int, help="vertex count for --edges")
    ps.add_argument("--edges", help="edge list u-v,u-v,... for graph")
    ps.add_argument("--validate", type=int, nargs="?", const=0, default=None,
                    metavar="T", help="validate as a t-design (omit T to autodetect)")
    ps.add_argument("--blocks", dest="as_blocks", action="store_true",
                    help="print in block-list format")
    ps.add_argument("--network", action="store_true",
                    help="print the constructed sum-network instead")
    ps.add_argument("--transpose", action="store_true",
                    help="with --network: build from the transposed matrix")
    ps.add_argument("--alpha", type=int, default=1, help="edge multiplicity (default 1)")
    ps.set_defaults(func=cmd_structure)

    pb = sub.add_parser("bound", help="capacity upper bounds")
    _add_instance_flags(pb)
    pb.add_argument("--char", required=True, help="characteristics, comma separated")
    pb.add_argument("--subset-limit", type=int, default=20,
                    help="max r for exact subset enumeration (default 20)")
    pb.add_argument("--max-subset-size", type=int, default=0, metavar="K",
                    help="bounded search over |S| <= K instead of the exact minimum")
    pb.set_defaults(func=cmd_bound)

    pc = sub.add_parser("code", help="generate, verify and export a network code")
    _add_instance_flags(pc)
    pc.add_argument("--char", required=True, help="single characteristic")
    pc.add_argument("--alpha", type=int, default=1, help="lift to alpha parallel edges")
    pc.add_argument("--out", help="write the code file here")
    pc.add_argument("--random-trials", type=int, default=0,
                    help="extra randomized cross-check trials")
    pc.add_argument("--seed", type=int, default=1, help="seed for the cross-check")
    pc.set_defaults(func=cmd_code)

    pt = sub.add_parser("table", help="capacity tables")
    pt.add_argument("scenario", choices=["paper-all", "sts", "higher", "higher-family"])
    pt.add_argument("--v", help="sts: point counts, comma separated")
    pt.add_argument("--char", help="characteristics, comma separated")
    pt.add_argument("--design", help="higher: base design spec t-v-k-lam")
    pt.add_argument("--t", help="higher-family: t values, comma separated")
    pt.add_argument("--structured", action="store_true", help="one JSON record per row")
    pt.set_defaults(func=cmd_table)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each build grows the heap."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

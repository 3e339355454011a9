"""Command-line surface.

Human-readable summaries go to stdout; machine artifacts are written only
to paths named by --out/--tensor/--report flags.  Exit codes: 0 success,
1 mathematical refusal (invalid scheme, non-design, refused construction),
2 usage error (bad arguments, unreadable or malformed files).

Each command imports the library modules it uses when it runs, so
``--version`` loads none but ``errors`` and ``verify`` only ``core``.  The seven
library functions that ``bench/tracer.py`` wraps in this module are
module-level forwarders, which import their module on first call; each
command imports that module before it calls one, so a forwarder's span
holds no import.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from . import SCHEME_FORMAT_VERSION, __version__
from .errors import (AstriplesError, ConsistencyError, PreconditionError,
                     RefusalError, SizeGuardError, StructuralError)

USAGE_EXIT = 2
REFUSAL_EXIT = 1


def _forwarder(module, name):
    """A function calling ``module.name``, imported when first called."""
    def forward(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__),
                       name)(*args, **kwargs)
    forward.__name__ = forward.__qualname__ = name
    return forward


ast_from_group = _forwarder("constructions", "ast_from_group")
verify_ast = _forwarder("core", "verify_ast")
partition_from_json = _forwarder("core", "partition_from_json")
scheme_to_json = _forwarder("core", "scheme_to_json")
enumerate_asts = _forwarder("enumeration", "enumerate_asts")
enumerate_circulant = _forwarder("enumeration", "enumerate_circulant")
find_regular_two_graphs = _forwarder("designs", "find_regular_two_graphs")


def _write_chunks(path, chunks):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise StructuralError(f"cannot write {str(path)!r}: {exc}") from exc


def _write_text(path, text):
    _write_chunks(path, (text,))


def _write_out(path, to_chunks, obj):
    """Write the text pieces ``to_chunks(obj)`` to ``path`` when a path was
    given, dropping each piece once written."""
    if path:
        _write_chunks(path, to_chunks(obj))
        print(f"wrote {path}")


def _one_chunk(to_text):
    """A ``to_chunks`` for ``_write_out`` from a function giving the text."""
    return lambda obj: (to_text(obj),)


def _load_scheme(path):
    """The scheme in the file at ``path``, refused unless it verifies."""
    from .core import ViolationReport, read_text
    partition = partition_from_json(read_text(path))
    result = verify_ast(partition)
    if isinstance(result, ViolationReport):
        raise RefusalError(f"{path}: condition {result.condition} violated: "
                           f"{result.message}", witness=result.witness)
    return result


def _print_scheme_summary(scheme):
    from .core import is_symmetric_ast
    print(f"nu={scheme.nu} classes={scheme.m + 1} "
          f"nontrivial={scheme.m - 3} symmetric={is_symmetric_ast(scheme)}")
    for i in range(scheme.m + 1):
        n1, n2, n3 = scheme.valencies.rows[i]
        print(f"  R_{i}: size={scheme.partition.sizes[i]} "
              f"valencies=({n1},{n2},{n3})")


def _cmd_construct(args):
    from . import constructions  # noqa: F401 (before its forwarder runs)
    from .core import scheme_json_chunks
    from .finfield import group_from_spec
    group = group_from_spec(args.group)
    scheme = ast_from_group(group)
    print(f"group order {group.order} on {group.degree} points")
    _print_scheme_summary(scheme)
    _write_out(args.out, scheme_json_chunks, scheme)
    return 0


def _cmd_verify(args):
    from .core import ViolationReport, read_text
    partition = partition_from_json(read_text(args.scheme))
    result = verify_ast(partition, full_check=args.full_check or None)
    if isinstance(result, ViolationReport):
        print(f"INVALID: condition {result.condition}: {result.message}")
        return REFUSAL_EXIT
    print("VALID")
    _print_scheme_summary(result)
    return 0


def _cmd_params(args):
    import json

    from .core import intersection_numbers
    scheme = _load_scheme(args.scheme)
    tensor = intersection_numbers(scheme, full_check=args.full_check or None)
    entries = [[i, j, k, l, p] for (i, j, k, l, p) in tensor.nonzero()]
    print(f"classes={tensor.classes} nonzero_entries={len(entries)}")
    if args.tensor:
        payload = {"classes": tensor.classes, "nonzero": entries}
        _write_text(args.tensor, json.dumps(payload, sort_keys=True) + "\n")
        print(f"wrote {args.tensor}")
    return 0


def _cmd_fuse(args):
    from .constructions import fuse, grouping_from_json
    from .core import ViolationReport, read_text, scheme_json_chunks
    scheme = _load_scheme(args.scheme)
    grouping = grouping_from_json(read_text(args.grouping))
    result = fuse(scheme, grouping)
    if isinstance(result, ViolationReport):
        print(f"NOT A FUSION: condition {result.condition}: {result.message}")
        return REFUSAL_EXIT
    print("fused scheme:")
    _print_scheme_summary(result)
    _write_out(args.out, scheme_json_chunks, result)
    return 0


def _cmd_fission_check(args):
    from .constructions import grouping_to_json, is_fission_of
    fine = _load_scheme(args.fine)
    coarse = _load_scheme(args.coarse)
    grouping = is_fission_of(fine, coarse)
    if grouping is None:
        print("NOT A FISSION: some fine class crosses coarse classes")
        return REFUSAL_EXIT
    print("fission grouping: " +
          " ".join("{" + ",".join(map(str, g)) + "}" for g in grouping.groups))
    _write_out(args.out, _one_chunk(grouping_to_json), grouping)
    return 0


def _cmd_oracle(args):
    import json

    from .asl2 import run_asl2_oracle
    report = run_asl2_oracle(args.q)
    status = "PASS" if report.passed else "FAIL"
    print(f"asl2 oracle q={args.q}: {status}")
    print(f"  nontrivial relations: {report.nontrivial_relations}")
    print(f"  valencies: {'ok' if report.valencies.passed else 'FAIL'}")
    for check in report.nontrivial_products + report.trivial_products:
        mark = "ok" if check.passed else "FAIL"
        print(f"  {check.name}: {check.checked} instances {mark}")
    print(f"  commutative subalgebra: {report.commutative_observed}")
    if args.report:
        _write_text(args.report,
                    json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
        print(f"wrote {args.report}")
    return 0 if report.passed else REFUSAL_EXIT


def _cmd_enumerate(args):
    import json
    from pathlib import Path

    from .core import GroundSet
    from .enumeration import EnumerationTask
    if args.circulant:
        if args.group or args.symmetric:
            raise StructuralError(
                "--circulant fixes the invariance group to the standard "
                "cycle; it cannot be combined with --group or --symmetric")
        schemes = enumerate_circulant(args.nu, allow_large=args.allow_large)
        if args.max_classes is not None:
            schemes = [s for s in schemes if s.m - 3 <= args.max_classes]
    else:
        group = None
        if args.group:
            from .finfield import group_from_spec
            group = group_from_spec(args.group)
        task = EnumerationTask(ground=GroundSet(args.nu), invariance=group,
                               symmetric_only=args.symmetric,
                               max_nontrivial_classes=args.max_classes,
                               allow_large=args.allow_large)
        schemes = enumerate_asts(task)
    by_count = {}
    for s in schemes:
        by_count[s.m - 3] = by_count.get(s.m - 3, 0) + 1
    print(f"nu={args.nu} schemes={len(schemes)} "
          f"by_nontrivial_classes={json.dumps(by_count, sort_keys=True)}")
    if args.out:
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StructuralError(f"cannot make {args.out!r}: {exc}") from exc
        names = []
        for idx, scheme in enumerate(schemes):
            name = f"scheme_{idx:03d}.json"
            _write_text(outdir / name, scheme_to_json(scheme))
            names.append(name)
        census = {
            "nu": args.nu,
            "count": len(schemes),
            "by_nontrivial_classes": {str(k): v for k, v in by_count.items()},
            "schemes": names,
            "filters": {"symmetric": args.symmetric,
                        "circulant": args.circulant,
                        "max_classes": args.max_classes},
            "group": args.group,
        }
        _write_text(outdir / "census.json",
                    json.dumps(census, sort_keys=True, indent=2) + "\n")
        print(f"wrote {len(names)} schemes and census.json to {args.out}")
    return 0


def _cmd_designs(args):
    from .constructions import ast_from_design, design_from_symmetric_relation
    from .core import read_text, scheme_json_chunks
    from .designs import design_from_json, design_to_json
    if args.action == "verify":
        design = design_from_json(read_text(args.path))
        print(f"2-design: b={design.b} v={design.v} k={design.k} "
              f"lambda={design.lam}")
        return 0
    if args.action == "to-ast":
        design = design_from_json(read_text(args.path))
        scheme = ast_from_design(design)
        _print_scheme_summary(scheme)
        _write_out(args.out, scheme_json_chunks, scheme)
        return 0
    scheme = _load_scheme(args.path)    # from-ast
    design = design_from_symmetric_relation(scheme, args.label)
    print(f"2-design from R_{args.label}: b={design.b} v={design.v} "
          f"k={design.k} lambda={design.lam}")
    _write_out(args.out, _one_chunk(design_to_json), design)
    return 0


def _cmd_twograph(args):
    if args.action != "find" and args.path is None:
        raise StructuralError(f"twograph {args.action} needs a PATH")
    if args.action == "find" and args.path is not None:
        raise StructuralError("twograph find takes no PATH")
    from .designs import is_regular, two_graph_from_json, two_graph_to_json
    if args.action == "find":
        found = find_regular_two_graphs(args.nu)
        print(f"regular two-graphs on {args.nu} points (proper): "
              f"{len(found)}")
        if args.out and found:
            _write_text(args.out, two_graph_to_json(found[0]))
            print(f"wrote first instance to {args.out}")
        return 0
    from .core import read_text
    if args.action == "verify":
        tg = two_graph_from_json(read_text(args.path))
        print(f"two-graph: v={tg.v} triples={len(tg.triples)} "
              f"regular={is_regular(tg)}")
        return 0
    if args.action == "to-ast":
        from .constructions import ast_from_two_graph
        from .core import scheme_json_chunks
        tg = two_graph_from_json(read_text(args.path))
        scheme = ast_from_two_graph(tg)
        _print_scheme_summary(scheme)
        _write_out(args.out, scheme_json_chunks, scheme)
        return 0
    from .constructions import two_graph_from_ast    # from-ast
    scheme = _load_scheme(args.path)
    tg = two_graph_from_ast(scheme, mode=args.mode)
    print(f"two-graph: v={tg.v} triples={len(tg.triples)}")
    _write_out(args.out, _one_chunk(two_graph_to_json), tg)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="astriples",
        description="Schemes on triples: construction, verification, "
                    "fusion, enumeration, and the asl2 parameter oracle.")
    parser.add_argument("--version", action="version",
                        version=f"astriples {__version__} "
                                f"(scheme format {SCHEME_FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="orbit scheme of a group spec")
    p.add_argument("--group", required=True,
                   help="asl2:q | agl1:q | agl2:q | psl2:q | file:<path>")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify a scheme JSON file")
    p.add_argument("scheme")
    p.add_argument("--full-check", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("params", help="intersection numbers of a scheme")
    p.add_argument("scheme")
    p.add_argument("--tensor", help="write the tensor JSON here")
    p.add_argument("--full-check", action="store_true")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("fuse", help="fuse classes along a grouping")
    p.add_argument("scheme")
    p.add_argument("--grouping", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("fission-check",
                       help="find the grouping exhibiting a fission")
    p.add_argument("fine")
    p.add_argument("coarse")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fission_check)

    p = sub.add_parser("oracle", help="run a parameter oracle")
    p.add_argument("family", choices=["asl2"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("enumerate", help="enumerate schemes up to isomorphism")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--group", help="invariance group spec")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--circulant", action="store_true")
    p.add_argument("--max-classes", type=int, default=None,
                   help="bound on nontrivial classes")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--out", help="directory for scheme files and census")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("designs", help="2-design operations")
    p.add_argument("action", choices=["verify", "to-ast", "from-ast"])
    p.add_argument("path")
    p.add_argument("--label", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_designs)

    p = sub.add_parser("twograph", help="two-graph operations")
    p.add_argument("action", choices=["verify", "to-ast", "from-ast", "find"])
    p.add_argument("path", nargs="?")
    p.add_argument("--nu", type=int, default=6)
    p.add_argument("--mode", choices=["strict", "lenient"], default="strict")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_twograph)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except (StructuralError,) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (RefusalError, PreconditionError, SizeGuardError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return REFUSAL_EXIT
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return REFUSAL_EXIT
    except AstriplesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return REFUSAL_EXIT


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

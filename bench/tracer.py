"""Run one astriples CLI command in-process with per-layer spans.

Usage: python3 bench/tracer.py SPANS_JSON CLI_ARG...

The command runs through ``astriples.cli.run`` exactly as ``python -m
astriples.cli CLI_ARG...`` would, after the module-level bindings listed in
BINDINGS are replaced by wrappers that record a span per call (name, start,
end, parent) and a few exact counts.  A binding is wrapped where the caller
looks it up, so ``asl2.ternary_product`` catches the oracle's products and
``enumeration.verify_ast`` only the census candidates.  Spans stay in memory
and are written to SPANS_JSON once the command has finished; the process
then exits with the command's exit code.

One command per interpreter: ``asl2._context``, ``finfield.make_field`` and
the cached tensors would turn a second command's work into cache hits.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


class Collector:
    """In-memory spans ``[name, parent index, start, end]`` and counts."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, parent, time.perf_counter(), None]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                counter(self, args, result)
            return result
        return traced


def _counter(name):
    return lambda c, args, result: c.add(name)


def _count_group(c, args, group):
    c.add("permgroup.group_order", group.order)
    c.add("permgroup.generators", len(group.generators))


def _count_orbits(c, args, partition):
    c.add("permgroup.orbit_classes", len(partition.classes))


def _count_candidate(c, args, result):
    from astriples.core import ViolationReport
    c.add("core.verify_ast_calls")
    c.add("enumeration.candidates_verified")
    if isinstance(result, ViolationReport):
        c.add("enumeration.candidates_rejected")


def _count_json(c, args, text):
    c.add("core.json_bytes", len(text.encode("utf-8")))


def _count_valency_instances(c, args, check):
    c.add("asl2.instances", check.checked)


def _count_family_instances(c, args, checks):
    c.add("asl2.instances", sum(check.checked for check in checks))


def _count_product(c, args, product):
    c.add("hypermatrix.products")
    c.add("hypermatrix.product_cells", args[0].nu ** 3)


def _count_found(c, args, schemes):
    c.add("enumeration.schemes_found", len(schemes))


def _count_hits(c, args, found):
    c.add("designs.hits", len(found))


# (module, attribute looked up by the caller, span name, counter)
BINDINGS = (
    ("finfield", "asl2_group", "finfield.asl2_group", None),
    ("asl2", "asl2_group", "finfield.asl2_group", None),
    ("finfield", "group_from_elements", "permgroup.group_from_elements",
     _count_group),
    ("cli", "ast_from_group", "constructions.ast_from_group", None),
    ("asl2", "ast_from_group", "constructions.ast_from_group", None),
    ("constructions", "is_two_transitive", "permgroup.is_two_transitive",
     None),
    ("constructions", "orbits_on_triples", "permgroup.orbits_on_triples",
     _count_orbits),
    ("constructions", "verify_ast", "core.verify_ast",
     _counter("core.verify_ast_calls")),
    ("enumeration", "verify_ast", "core.verify_ast", _count_candidate),
    ("cli", "verify_ast", "core.verify_ast_read", None),
    ("cli", "partition_from_json", "core.partition_from_json", None),
    ("cli", "scheme_to_json", "core.scheme_to_json", _count_json),
    ("asl2", "_context", "asl2.context", None),
    ("asl2", "check_asl2_valencies", "asl2.valencies",
     _count_valency_instances),
    ("asl2", "check_asl2_nontrivial_products", "asl2.nontrivial",
     _count_family_instances),
    ("asl2", "check_asl2_trivial_products", "asl2.trivial",
     _count_family_instances),
    ("asl2", "ternary_product", "hypermatrix.ternary_product", _count_product),
    ("asl2", "adjacency", "hypermatrix.adjacency",
     _counter("hypermatrix.adjacency_calls")),
    ("asl2", "is_commutative_subalgebra",
     "hypermatrix.is_commutative_subalgebra", None),
    ("cli", "enumerate_asts", "enumeration.search", _count_found),
    ("cli", "enumerate_circulant", "enumeration.search", _count_found),
    ("enumeration", "canonical_key", "enumeration.canonical_key",
     _counter("enumeration.canonical_calls")),
    ("enumeration", "are_isomorphic", "enumeration.are_isomorphic",
     _counter("enumeration.are_isomorphic_calls")),
    ("cli", "find_regular_two_graphs", "designs.find", _count_hits),
    ("designs", "is_regular", "designs.is_regular",
     _counter("designs.candidates")),
)


def main(argv):
    if len(argv) < 2:
        print("usage: tracer.py SPANS_JSON CLI_ARG...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    collector = Collector()
    for module_name, attr, name, counter in BINDINGS:
        module = importlib.import_module(f"astriples.{module_name}")
        setattr(module, attr,
                collector.wrap(getattr(module, attr), name, counter))
    from astriples import cli
    code = collector.wrap(cli.run, "cli.run")(cli_args)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": collector.spans, "counts": collector.counts},
                  handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

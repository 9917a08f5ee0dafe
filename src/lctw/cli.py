"""Command-line entry point.

Subcommands: verify (structural-property campaigns over a corpus), conjecture
(two-vertex transversal scan), inspect (single-graph dump), directed-forest
(proof-forest diagnostic), generate (emit graph6 corpora).  All configuration
is explicit flags; no environment variables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cycles import DEFAULT_ENUMERATION_CAP, DEFAULT_MAX_CYCLES
from .decomposition import DEFAULT_TREEWIDTH_CAP, DecompositionError, full_tree_decomposition
from .generate import GenerationError
from .graph import _bits, parse_graph6, write_graph6
from .harness import (
    CAP_ERRORS,
    DEFAULT_CHECKS,
    EXIT_CONFIG,
    CampaignOptions,
    corpus_tasks,
    directed_forest_diagnostic,
    file_tasks,
    parse_corpus_spec,
    run_conjecture,
    run_verify,
)
from .transversal import GraphFacts


def _add_corpus_flags(p: argparse.ArgumentParser, default_generate: str):
    src = p.add_mutually_exclusive_group()
    src.add_argument("--corpus", metavar="FILE", help="graph6 file, one graph per line")
    src.add_argument(
        "--generate",
        metavar="SPEC",
        help="corpus spec, e.g. 'k=3,n=9..14,count=1000,p=0.25' or 'mode=exhaustive,k=3,nmax=8'",
        default=None,
    )
    p.add_argument("--seed", type=int, default=0, help="64-bit campaign seed")
    p.add_argument("--workers", type=_non_negative, default=None, help="worker processes (default: CPUs available to the process)")
    p.add_argument("--out", metavar="FILE", help="report file (default: stdout)")
    p.add_argument("--counterexample-dir", metavar="DIR", help="where failure bundles are persisted")
    _add_cap_flags(p)
    p.set_defaults(default_generate=default_generate)


def _add_cap_flags(p: argparse.ArgumentParser):
    p.add_argument("--max-n", type=_non_negative, default=DEFAULT_ENUMERATION_CAP, help="cycle enumeration cap")
    p.add_argument("--tw-cap", type=_non_negative, default=DEFAULT_TREEWIDTH_CAP, help="exact treewidth cap")
    p.add_argument(
        "--max-cycles",
        type=_non_negative,
        default=DEFAULT_MAX_CYCLES,
        help="longest cycles the enumeration may keep while searching, about 200 bytes each; "
        f"a check that reads the cycles themselves copies the family once more (default: {DEFAULT_MAX_CYCLES})",
    )


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _caps(args) -> dict:
    """The subcommand's caps and budgets as keyword arguments of ``GraphFacts``
    and ``CampaignOptions``."""
    return {
        "enumeration_cap": args.max_n,
        "treewidth_cap": args.tw_cap,
        "max_cycles": args.max_cycles,
    }


def _graph_facts(args, g) -> GraphFacts:
    """The facts of one graph under the subcommand's caps and budgets."""
    return GraphFacts(g, **_caps(args))


def _tasks_from_args(args):
    if args.corpus:
        return file_tasks(args.corpus)
    spec = parse_corpus_spec(args.generate or args.default_generate, seed=args.seed)
    return corpus_tasks(spec)


def _open_out(args):
    """Create --counterexample-dir where the subcommand has one, then open
    --out; an OSError from either is the caller's configuration error."""
    if getattr(args, "counterexample_dir", None):
        os.makedirs(args.counterexample_dir, exist_ok=True)
    return open(args.out, "w") if args.out else sys.stdout


def _workers(args) -> int:
    """--workers, else the number of CPUs this process may run on."""
    if args.workers:
        return args.workers
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def _run_campaign(args, run, checks, summarize) -> int:
    """Build the options, tasks and output (a configuration error exits 2),
    run the campaign, close the output and print the summary line that
    ``summarize`` makes of the run's summary to stderr."""
    try:
        strict = getattr(args, "strict_preconditions", False)
        opts = CampaignOptions(checks=checks, strict_preconditions=strict, **_caps(args))  # rejects unknown checks
        tasks = _tasks_from_args(args)
        out = _open_out(args)
    except (OSError, ValueError, GenerationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        code, summary = run(tasks, opts, out, args.counterexample_dir, _workers(args))
    finally:
        if out is not sys.stdout:
            out.close()
    print(summarize(summary), file=sys.stderr)
    return code


def cmd_verify(args) -> int:
    checks = tuple(args.checks.split(",")) if args.checks else DEFAULT_CHECKS
    return _run_campaign(
        args,
        run_verify,
        checks,
        lambda s: f"verify: {s.total} graphs, {s.ok} ok, {s.failed} failed, "
        f"{s.out_of_scope} out-of-scope, {s.errors} errors; vacuous {s.vacuous}",
    )


def cmd_conjecture(args) -> int:
    return _run_campaign(
        args,
        run_conjecture,
        DEFAULT_CHECKS,
        lambda s: f"conjecture: {s.total} graphs, {s.ok} consistent, {s.counterexamples} counterexamples, "
        f"{s.out_of_scope} out-of-scope, {s.errors} errors",
    )


def cmd_inspect(args) -> int:
    try:
        g = parse_graph6(args.graph6)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"graph6: {write_graph6(g)}")
    print(f"n: {g.n}  m: {g.m}")
    facts = _graph_facts(args, g)
    print(f"biconnected: {'yes' if facts.biconnected else 'no'}")
    width = facts.td.width
    print(f"treewidth: {width}")
    td = facts.td3 if width <= 3 else full_tree_decomposition(g, width, base=facts.td)  # width <= n - 1
    if td is not None:
        print(f"full decomposition (width {td.width}):")
        for t, bag in enumerate(td.bags):
            print(f"  node {t}: {{{','.join(map(str, bag))}}}")
        if td.tree_edges:
            print("  edges: " + " ".join(f"{a}-{b}" for a, b in sorted(td.tree_edges)))
    else:
        print(f"full decomposition: none ({facts.td3_error})")
    if facts.cycles.length == 0:
        print("longest cycle: none (acyclic)")
        return 0
    print(f"longest cycle length: {facts.cycles.length}")
    print(f"longest cycles: {len(facts.cycles)}")
    print(f"enumeration steps: {facts.cycles.steps}")
    res = facts.lct
    print(f"lct: {res.lct}  witness: {{{','.join(map(str, res.witness))}}}")
    if args.families:
        if width > 3 or td is None:
            print("families: need a full width-3 decomposition (treewidth <= 3, n >= 4)")
            return 0
        for t in range(td.node_count):  # td is td3
            fams = facts.families(t)
            print(f"node {t} bag {{{','.join(map(str, td.bags[t]))}}}:")
            print(f"  2-crossing: {len(fams.x2)}  fenced<=3: {len(fams.fenced3)}")
            for dmask, tf in fams.by_triple.items():  # keyed in combinations order
                j2 = {"".join(map(str, _bits(p))): len(v) for p, v in sorted(tf.jump2.items())}
                print(
                    f"  triple {{{','.join(map(str, _bits(dmask)))}}}: exact3 {len(tf.exact3)}, "
                    f"jump2 {j2}, jump3 {len(tf.jump3)}"
                )
    return 0


def cmd_directed_forest(args) -> int:
    try:
        diag = directed_forest_diagnostic(_graph_facts(args, parse_graph6(args.graph6)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(diag, sort_keys=True, indent=2))
    return 0


def cmd_generate(args) -> int:
    try:
        spec = parse_corpus_spec(args.spec, seed=args.seed)
        tasks = corpus_tasks(spec)
        out = _open_out(args)
    except (OSError, ValueError, GenerationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        for t in tasks:
            out.write(t["graph6"] + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"generate: {len(tasks)} graphs", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lctw",
        description="Longest-cycle transversal checks on bounded-treewidth graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the verification campaign over a corpus")
    _add_corpus_flags(p, "mode=exhaustive,k=3,nmax=8")
    p.add_argument("--checks", help=f"comma list; default {','.join(DEFAULT_CHECKS)}")
    p.add_argument(
        "--strict-preconditions",
        action="store_true",
        help="mark out-of-scope graphs without running applicable checks",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("conjecture", help="scan for two-vertex transversals on partial 4-trees")
    _add_corpus_flags(p, "k=4,n=8..13,count=1000,p=0.3")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("inspect", help="dump facts about one graph6 graph")
    p.add_argument("graph6")
    p.add_argument("--families", action="store_true", help="include per-bag family sizes")
    _add_cap_flags(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("directed-forest", help="directed-forest diagnostic for one graph")
    p.add_argument("graph6")
    _add_cap_flags(p)
    p.set_defaults(func=cmd_directed_forest)

    p = sub.add_parser("generate", help="emit a graph6 corpus")
    p.add_argument("--spec", required=True, help="corpus spec string")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_generate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (*CAP_ERRORS, DecompositionError) as exc:  # one graph beyond a cap, or the empty graph inspect refuses
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

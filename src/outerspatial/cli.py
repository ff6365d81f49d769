"""Command-line interface.

Exit codes: 0 outerspatial / success, 1 not outerspatial / violations found,
2 hypothesis violated, 3 usage or I/O error, 4 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path as FsPath

from . import generators
from .complexes import TwoComplex, link_graph, skeleton, validate
from .decider import decide_nested_plane, decide_outerspatial
from .embedding import test_outerplanar
from .fileformat import (ParseError, format_complex, format_verdict,
                         parse_complex, parse_cycles)
from .oracle import (DEFAULT_CAP, CapExceededError, brute_force_outerspatial)
from .surface import survey_surfaces
from .verdicts import NestedCertificate, NotOuterspatial, Outerspatial

EXIT_USAGE = 3
EXIT_CAP = 4

CAP_HELP = ("largest number of rotation systems the exhaustive search may "
            f"enumerate; a larger space is refused up front (default {DEFAULT_CAP:,}; "
            "each costs about 4-8 microseconds in CPython, more on larger graphs, "
            "so the default allows about a minute of search)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="outerspatial",
                     description="Decide outerspatiality of 2-complexes and "
                                 "nested plane embeddings of graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):
        p = sub.add_parser(name, help=help)
        return p

    p = add("validate", "check a complex file for violations")
    p.add_argument("file")

    p = add("links", "print every link graph with its outerplanarity status")
    p.add_argument("file")

    p = add("decide", "decide outerspatiality with certificate or obstruction")
    p.add_argument("file")

    p = add("nested", "decide nested plane embeddings for a graph plus cycles")
    p.add_argument("file")
    p.add_argument("cycles")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help=CAP_HELP)

    p = add("oracle", "decide by exhaustive sphere-embedding enumeration")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help=CAP_HELP)

    p = add("surface", "classify each component as a surface")
    p.add_argument("file")

    p = add("render", "emit a dot or SVG drawing of an embedding or link graph")
    p.add_argument("file")
    p.add_argument("--format", choices=("dot", "svg"), default="dot")
    p.add_argument("--link", metavar="VERTEX", default=None)

    p = add("generate", "print a named example complex")
    p.add_argument("name", help="tetra | bipyramid N | bipyramid-equator N | "
                                "prism N | torus7 | k4 | k23 | cone-k4 | cone-k23 | "
                                "cone FILE | random")
    p.add_argument("arg", nargs="?", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertices", type=int, default=8)
    return parser


def _read(path: str) -> str:
    try:
        return FsPath(path).read_text()
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        raise SystemExit(EXIT_USAGE)


def _load_complex(path: str) -> TwoComplex:
    try:
        return parse_complex(_read(path))
    except ParseError as exc:
        sys.stderr.write(f"error: {path}: {exc}\n")
        raise SystemExit(EXIT_USAGE)


def _cmd_validate(args) -> int:
    complex = _load_complex(args.file)
    problems = validate(complex)
    if not problems:
        print("ok")
        return 0
    for p in problems:
        print(f"{p.kind}: {p.message}")
    return 1


def _cmd_links(args) -> int:
    complex = _load_complex(args.file)
    for v in sorted(complex.graph.vertices):
        lg = link_graph(complex, v)
        result = test_outerplanar(lg.graph)
        print(f"link at {v}:")
        print("  vertices: " + " ".join(sorted(lg.graph.vertices)))
        for le in sorted(lg.graph.edges):
            a, b = lg.graph.endpoints(le)
            print(f"  edge {le}: {a} {b} face {lg.edge_face[le]}")
        status = "yes" if result.outerplanar else f"no ({result.witness.target} minor)"
        print(f"  outerplanar: {status}")
    return 0


def _cmd_decide(args) -> int:
    complex = _load_complex(args.file)
    try:
        verdict = decide_outerspatial(complex)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    sys.stdout.write(format_verdict(verdict))
    return verdict.exit_code


def _cmd_nested(args) -> int:
    complex = _load_complex(args.file)
    try:
        cycles = parse_cycles(_read(args.cycles))
        verdict = decide_nested_plane(skeleton(complex), cycles, cap=args.cap)
    except ParseError as exc:
        sys.stderr.write(f"error: {args.cycles}: {exc}\n")
        return EXIT_USAGE
    except CapExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    sys.stdout.write(format_verdict(verdict))
    return verdict.exit_code


def _cmd_oracle(args) -> int:
    complex = _load_complex(args.file)
    problems = validate(complex)
    if problems:
        sys.stderr.write(f"error: {problems[0].message}\n")
        return EXIT_USAGE
    try:
        outcome = brute_force_outerspatial(complex, cap=args.cap)
    except CapExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    verdict = (Outerspatial(outcome) if isinstance(outcome, NestedCertificate)
               else NotOuterspatial(outcome))
    sys.stdout.write(format_verdict(verdict))
    return verdict.exit_code


def _cmd_surface(args) -> int:
    complex = _load_complex(args.file)
    for comp, sclass in survey_surfaces(complex):
        names = " ".join(sorted(comp.graph.vertices))
        print(f"component {names}: {sclass.kind} (euler {sclass.euler})")
    return 0


def _positions(vertices: list[str]) -> dict[str, tuple[float, float]]:
    n = max(len(vertices), 1)
    out = {}
    for i, v in enumerate(vertices):
        angle = 2.0 * math.pi * i / n
        out[v] = (200.0 + 160.0 * math.cos(angle), 200.0 + 160.0 * math.sin(angle))
    return out


def _render_dot(graph, annotations: list[str]) -> str:
    lines = ["graph G {"]
    for note in annotations:
        lines.append(f"  // {note}")
    for v in sorted(graph.vertices):
        lines.append(f'  "{v}";')
    for eid in sorted(graph.edges):
        u, v = graph.endpoints(eid)
        lines.append(f'  "{u}" -- "{v}" [label="{eid}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_svg(graph, annotations: list[str]) -> str:
    pos = _positions(sorted(graph.vertices))
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="400" height="400" '
             'viewBox="0 0 400 400">']
    for note in annotations:
        parts.append(f"<!-- {note} -->")
    for eid in sorted(graph.edges):
        u, v = graph.endpoints(eid)
        (x1, y1), (x2, y2) = pos[u], pos[v]
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                     'stroke="black" stroke-width="1"/>')
    for v in sorted(graph.vertices):
        x, y = pos[v]
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="black"/>')
        parts.append(f'<text x="{x + 6:.1f}" y="{y - 6:.1f}" font-size="12">{v}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_render(args) -> int:
    complex = _load_complex(args.file)
    if args.link is not None:
        if args.link not in complex.graph.vertices:
            sys.stderr.write(f"error: unknown vertex {args.link}\n")
            return EXIT_USAGE
        graph = link_graph(complex, args.link).graph
        annotations = [f"link graph at {args.link}"]
    else:
        graph = complex.graph
        annotations = []
        try:
            verdict = decide_outerspatial(complex)
        except ValueError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_USAGE
        if isinstance(verdict, Outerspatial):
            rot = verdict.certificate.rotation
            for v in rot.vertices():
                halves = " ".join(f"{e}:{o}" for e, o in rot.rotator(v))
                annotations.append(f"rotator {v}: {halves}")
        else:
            annotations.append(f"verdict: {verdict.kind}")
    renderer = _render_dot if args.format == "dot" else _render_svg
    sys.stdout.write(renderer(graph, annotations))
    return 0


def _cmd_generate(args) -> int:
    name = args.name
    try:
        if name == "tetra":
            complex = generators.tetra()
        elif name == "bipyramid":
            complex = generators.bipyramid(int(args.arg or 4))
        elif name == "bipyramid-equator":
            complex = generators.bipyramid_with_equator(int(args.arg or 4))
        elif name == "prism":
            complex = generators.prism(int(args.arg or 3))
        elif name == "torus7":
            complex = generators.torus7()
        elif name in ("k4", "k23"):
            complex = TwoComplex(generators.named_graph(name), [])
        elif name in ("cone-k4", "cone-k23"):
            complex = generators.cone_over_graph(generators.named_graph(name[5:]))
        elif name == "cone":
            if args.arg is None:
                sys.stderr.write("error: cone needs a graph file\n")
                return EXIT_USAGE
            base = _load_complex(args.arg)
            complex = generators.cone_over_graph(skeleton(base))
        elif name == "random":
            complex = generators.random_complex(args.seed, max_vertices=args.vertices)
        else:
            sys.stderr.write(f"error: unknown generator {name!r}\n")
            return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    sys.stdout.write(format_complex(complex))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "links": _cmd_links,
    "decide": _cmd_decide,
    "nested": _cmd_nested,
    "oracle": _cmd_oracle,
    "surface": _cmd_surface,
    "render": _cmd_render,
    "generate": _cmd_generate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

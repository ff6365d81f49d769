"""Command-line interface.

Exit codes: 0 outerspatial / success, 1 not outerspatial / violations found,
2 hypothesis violated, 3 usage, parse or I/O error, 4 enumeration cap
exceeded.  Only `oracle` exits 4: `nested` reports a refused oracle fallback
as hypothesis-violated (exit 2) with an `oracle fallback refused` note.
Commands raise; `main` alone turns an error into its exit code and an
`error:` line on stderr.

Each `_cmd_*` function imports the modules its command runs, so a cold
`validate` or `surface` compiles none of `decider`, `embedding`, `oracle` or
`generators`.  At module level this file reads only what every command
needs: `complexes`, `fileformat`, and from `verdicts` the default cap that
the `--cap` help prints and the cap error that `main` catches.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path as FsPath

from .complexes import (LinkGraph, TwoComplex, associated_complex, link_corners, link_graph,
                        validate)
from .fileformat import format_complex, format_link, format_verdict, parse_complex, parse_cycles
from .verdicts import DEFAULT_CAP, CapExceededError, Outerspatial

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

    p = sub.add_parser("validate", help="check a complex file for violations")
    p.add_argument("file")

    p = sub.add_parser("links", help="print every link graph with its outerplanarity status")
    p.add_argument("file")

    p = sub.add_parser("decide", help="decide outerspatiality with certificate or obstruction")
    p.add_argument("file")

    p = sub.add_parser("nested", help="decide nested plane embeddings for a graph plus cycles")
    p.add_argument("file")
    p.add_argument("cycles")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help=CAP_HELP)

    p = sub.add_parser("oracle", help="decide by exhaustive sphere-embedding enumeration")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help=CAP_HELP)

    p = sub.add_parser("surface", help="classify each component as a surface")
    p.add_argument("file")

    p = sub.add_parser("render", help="emit a dot or SVG drawing of an embedding or link graph")
    p.add_argument("file")
    p.add_argument("--format", choices=("dot", "svg"), default="dot")
    p.add_argument("--link", metavar="VERTEX", default=None)

    p = sub.add_parser("generate", help="print a named example complex")
    p.add_argument("name", help="tetra | bipyramid N | bipyramid-equator N | "
                                "prism N | torus7 | k4 | k23 | cone-k4 | cone-k23 | "
                                "cone FILE | random")
    p.add_argument("arg", nargs="?", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertices", type=int, default=8)
    return parser


def _load(parse, path: str):
    """Parse a file; an error in its contents names the file."""
    text = FsPath(path).read_text()
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_validate(args) -> int:
    complex = _load(parse_complex, args.file)
    problems = validate(complex)
    if not problems:
        print("ok")
        return 0
    for p in problems:
        print(f"{p.kind}: {p.message}")
    return 1


def _cmd_links(args) -> int:
    from .embedding import test_outerplanar
    complex = _load(parse_complex, args.file)
    corners = link_corners(complex)
    for v in sorted(corners):
        lg = LinkGraph(complex.graph, v, corners[v])
        result = test_outerplanar(lg)
        print("\n".join(format_link(lg)))
        status = "yes" if result.outerplanar else f"no ({result.witness.target} minor)"
        print(f"  outerplanar: {status}")
    return 0


def _cmd_decide(args) -> int:
    from .decider import decide_outerspatial
    verdict = decide_outerspatial(_load(parse_complex, args.file))
    sys.stdout.write(format_verdict(verdict))
    return verdict.exit_code


def _cmd_nested(args) -> int:
    from .decider import nested_plane_verdict
    graph = _load(parse_complex, args.file).graph
    complex = _load(lambda text: associated_complex(graph, parse_cycles(text)), args.cycles)
    verdict = nested_plane_verdict(complex, cap=args.cap)
    sys.stdout.write(format_verdict(verdict))
    return verdict.exit_code


def _cmd_oracle(args) -> int:
    from .decider import oracle_verdict
    complex = _load(parse_complex, args.file)
    problems = validate(complex)
    if problems:
        raise ValueError(problems[0].message)
    verdict = oracle_verdict(complex, cap=args.cap)
    sys.stdout.write(format_verdict(verdict))
    return verdict.exit_code


def _cmd_surface(args) -> int:
    from .surface import survey_surfaces
    complex = _load(parse_complex, args.file)
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
    for eid, (u, v) in graph.edges.items():
        lines.append(f'  "{u}" -- "{v}" [label="{eid}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_svg(graph, annotations: list[str]) -> str:
    pos = _positions(sorted(graph.vertices))
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="400" height="400" '
             'viewBox="0 0 400 400">']
    for note in annotations:
        parts.append(f"<!-- {note} -->")
    for eid, (u, v) in graph.edges.items():
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
    complex = _load(parse_complex, args.file)
    if args.link is not None:
        graph = link_graph(complex, args.link).graph
        annotations = [f"link graph at {args.link}"]
    else:
        from .decider import decide_outerspatial
        graph = complex.graph
        annotations = []
        verdict = decide_outerspatial(complex)
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
    from . import generators
    name = args.name
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
            raise ValueError("cone needs a graph file")
        complex = generators.cone_over_graph(_load(parse_complex, args.arg).graph)
    elif name == "random":
        complex = generators.random_complex(args.seed, max_vertices=args.vertices)
    else:
        raise ValueError(f"unknown generator {name!r}")
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
    """Run one command; the one place where an error becomes an exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (CapExceededError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP if isinstance(exc, CapExceededError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

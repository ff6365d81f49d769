"""Line-oriented text format for complexes, cycle lists, and verdict reports.

Complex files: `vertex <id>`, `edge <id> <u> <v>`, `face <id> <v1> ... <vk>`
(edges inferred), or `facee <id> <e1> ... <ek>` (explicit edge ids, for
multigraph inputs).  `#` starts a comment; ids are alphanumeric tokens.
Cycle files use `cycle <id> <v1> ... <vk>` lines.

`parse_complex` reads the lines in one pass, then builds the faces in line
order; its docstring gives which error a bad file reports.

Certificate reports round-trip: `format_verdict` output for an outerspatial
verdict can be re-parsed by `parse_certificate_report` and fed back to the
certificate checker.
"""

from __future__ import annotations

from .complexes import Face, Graph, LinkGraph, TwoComplex
from .verdicts import (AsphericalSubcomplex, ComponentCertificate,
                       NestedCertificate, NonOuterplanarLink,
                       NotOuterspatial, Outerspatial, RotationSystem, Verdict)


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_complex(text: str) -> TwoComplex:
    """Parse a complex file; raises ParseError with the offending line.

    One pass over the lines checks each line's form, id and edge endpoints;
    the faces are built from the graph after it, so any such error wins
    over a face error.  Within a face an undeclared vertex, sought only once
    a pair lookup fails, as one must where a vertex is undeclared, wins over
    a missing or ambiguous pair; pairs go in walk order, the closing pair
    last, and a repeated boundary comes last of all.
    """
    vertices: dict[str, str] = {}  # each name to itself, so every endpoint shares it
    edges: dict[str, tuple[str, str]] = {}
    face_specs: list[tuple[int, str, str, list[str]]] = []
    seen: set[str] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        toks = (line.partition("#")[0] if "#" in line else line).split()
        if not toks:
            continue
        directive = toks[0]
        if directive == "edge":
            if len(toks) != 4:
                raise ParseError(line_no, "edge takes an id and two endpoints")
            _, oid, u, v = toks
        elif directive == "face" or directive == "facee":
            if len(toks) < 3:
                raise ParseError(line_no, f"{directive} needs an id and a boundary")
            oid = toks[1]
        elif directive != "vertex":
            raise ParseError(line_no, f"unknown directive {directive!r}")
        elif len(toks) != 2:
            raise ParseError(line_no, "vertex takes one id")
        else:
            oid = toks[1]
        if not oid.isalnum():
            raise ParseError(line_no, f"id {oid!r} is not alphanumeric")
        if oid in seen:
            raise ParseError(line_no, f"duplicate id {oid}")
        seen.add(oid)
        if directive == "edge":
            if u not in vertices or v not in vertices:
                w = u if u not in vertices else v
                raise ParseError(line_no, f"edge {oid} references undeclared vertex {w}")
            edges[oid] = (vertices[u], vertices[v])
        elif directive == "vertex":
            vertices[oid] = oid
        else:
            face_specs.append((line_no, directive, oid, toks[2:]))
    graph = Graph(vertices, edges)
    faces = []
    boundaries: dict[tuple, str] = {}
    for line_no, directive, fid, items in face_specs:
        try:
            if directive == "face":
                face = Face.from_vertices(graph, fid, items)
            else:
                face = Face.from_edges(graph, fid, items)
        except ValueError as exc:
            # A pair lookup fails wherever a vertex is undeclared, so look for one only now.
            for v in items if directive == "face" else ():
                if v not in vertices:
                    raise ParseError(line_no, f"face {fid} references undeclared vertex {v}") from None
            raise ParseError(line_no, str(exc)) from exc
        if face.steps in boundaries:
            raise ParseError(line_no,
                             f"face {fid} duplicates the boundary of {boundaries[face.steps]}")
        boundaries[face.steps] = fid
        faces.append(face)
    return TwoComplex._regroup(graph, faces)


def format_complex(complex: TwoComplex) -> str:
    """Canonical text form; parse(format(c)) == c."""
    lines = []
    for v in sorted(complex.graph.vertices):
        lines.append(f"vertex {v}")
    for eid, (u, v) in complex.graph.edges.items():
        lines.append(f"edge {eid} {u} {v}")
    for fid, face in complex.faces.items():
        unambiguous = all(
            len(complex.graph.edges_between(*complex.graph.endpoints(e))) == 1
            and not complex.graph.is_loop(e)
            for e in face.edge_ids)
        if unambiguous:
            lines.append(f"face {fid} " + " ".join(face.vertices))
        else:
            lines.append(f"facee {fid} " + " ".join(face.edge_ids))
    return "\n".join(lines) + "\n"


def parse_cycles(text: str) -> list[tuple[str, tuple[str, ...]]]:
    """Parse a cycle list file."""
    out = []
    seen: set[str] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        toks = line.partition("#")[0].split()
        if not toks:
            continue
        if toks[0] != "cycle":
            raise ParseError(line_no, f"unknown directive {toks[0]!r}")
        if len(toks) < 5:
            raise ParseError(line_no, "cycle needs an id and at least three vertices")
        cid = toks[1]
        if not cid.isalnum():
            raise ParseError(line_no, f"id {cid!r} is not alphanumeric")
        if cid in seen:
            raise ParseError(line_no, f"duplicate cycle id {cid}")
        seen.add(cid)
        out.append((cid, tuple(toks[2:])))
    return out


def _parse_half_edge(token: str):
    eid, _, end = token.rpartition(":")
    if end not in ("0", "1") or not eid:
        raise ValueError(f"bad half-edge token {token!r}")
    return (eid, int(end))


def format_certificate(cert: NestedCertificate) -> list[str]:
    lines = ["certificate:", "  rotation:"]
    for v in cert.rotation.vertices():
        halves = " ".join(f"{eid}:{end}" for eid, end in cert.rotation.rotator(v))
        lines.append(f"    {v}: {halves}".rstrip())
    for comp in cert.components:
        lines.append("  component " + " ".join(comp.vertices) + ":")
        lines.append("    outer: " + " ".join(f"{eid}:{end}" for eid, end in comp.outer_darts))
        lines.append("    forest:")
        stack = [(root, 0) for root in reversed(comp.roots())]
        while stack:
            fid, depth = stack.pop()
            lines.append(" " * (6 + 2 * depth) + fid)
            stack.extend((child, depth + 1) for child in reversed(comp.children(fid)))
    return lines


def parse_certificate_report(text: str) -> NestedCertificate:
    """Re-parse a certificate block emitted by format_verdict."""
    lines = text.splitlines()
    rotators: dict[str, tuple] = {}
    components: list[ComponentCertificate] = []
    comp_vertices: tuple[str, ...] | None = None
    comp_outer: tuple | None = None
    parents: dict[str, str | None] = {}
    stack: list[tuple[int, str]] = []
    mode = ""

    def flush() -> None:
        nonlocal comp_vertices, comp_outer, parents
        if comp_vertices is not None:
            components.append(ComponentCertificate(comp_vertices, comp_outer or (), parents))
        comp_vertices, comp_outer, parents = None, None, {}

    for raw in lines:
        if not raw.strip():
            continue
        stripped = raw.strip()
        indent = len(raw) - len(raw.lstrip())
        if stripped == "certificate:":
            continue
        if stripped == "rotation:":
            mode = "rotation"
            continue
        if stripped.startswith("component ") and stripped.endswith(":"):
            flush()
            comp_vertices = tuple(stripped[len("component "):-1].split())
            mode = "component"
            continue
        if mode == "rotation":
            v, _, rest = stripped.partition(":")
            rotators[v.strip()] = tuple(_parse_half_edge(t) for t in rest.split())
            continue
        if stripped.startswith("outer:"):
            comp_outer = tuple(_parse_half_edge(t) for t in stripped[len("outer:"):].split())
            continue
        if stripped == "forest:":
            stack = []
            continue
        if mode == "component":
            fid = stripped
            while stack and stack[-1][0] >= indent:
                stack.pop()
            parents[fid] = stack[-1][1] if stack else None
            stack.append((indent, fid))
    flush()
    return NestedCertificate(RotationSystem(rotators), components)


def format_link(link: LinkGraph) -> list[str]:
    """A link graph's report: its host, its vertices and one line per edge."""
    lines = [f"link at {link.host}:",
             "  vertices: " + " ".join(sorted(link.vertices))]
    for le in sorted(link.ends):
        u, v = link.ends[le]
        lines.append(f"  edge {le}: {u} {v} face {link.edge_face[le]}")
    return lines


def format_verdict(verdict: Verdict) -> str:
    lines = [f"verdict: {verdict.kind}"]
    if isinstance(verdict, Outerspatial):
        lines.extend(format_certificate(verdict.certificate))
    elif isinstance(verdict, NotOuterspatial):
        obstruction = verdict.obstruction
        if isinstance(obstruction, NonOuterplanarLink):
            lines.append("obstruction: non-outerplanar-link")
            lines.append("path: " + " ".join(obstruction.path.vertices))
            lines.extend(format_link(obstruction.link))
            w = obstruction.witness
            lines.append(f"witness: {w.target}")
            for i, bs in enumerate(w.branch_sets):
                lines.append(f"  branch {i}: " + " ".join(sorted(bs)))
            for (i, j), eid in sorted(w.connecting_edges.items()):
                lines.append(f"  adjacency {i}-{j}: {eid}")
        elif isinstance(obstruction, AsphericalSubcomplex):
            lines.append("obstruction: aspherical-subcomplex")
            lines.append("faces: " + " ".join(sorted(obstruction.faces)))
            lines.append(f"euler: {obstruction.surface.euler}")
            lines.append(f"orientable: {'true' if obstruction.surface.orientable else 'false'}")
            lines.append(f"class: {obstruction.surface.kind}")
        else:
            lines.append("obstruction: exhaustive-failure")
            lines.append(f"embeddings-tried: {obstruction.embeddings_tried}")
            if obstruction.detail:
                lines.append(f"detail: {obstruction.detail}")
    else:
        for v in verdict.violations:
            lines.append(f"violation at {v.vertex}: {v.reason}")
        for note in verdict.notes:
            lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"

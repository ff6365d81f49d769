"""Line-oriented text format for complexes, cycle lists, and verdict reports.

Complex files: `vertex <id>`, `edge <id> <u> <v>`, `face <id> <v1> ... <vk>`
(edges inferred), or `facee <id> <e1> ... <ek>` (explicit edge ids, for
multigraph inputs).  `#` starts a comment; ids are alphanumeric tokens.
Cycle files use `cycle <id> <v1> ... <vk>` lines.

Certificate reports round-trip: `format_verdict` output for an outerspatial
verdict can be re-parsed by `parse_certificate_report` and fed back to the
certificate checker.
"""

from __future__ import annotations

from .complexes import Face, Graph, TwoComplex
from .embedding import RotationSystem
from .verdicts import (AsphericalSubcomplex, ComponentCertificate,
                       NestedCertificate, NonOuterplanarLink,
                       NotOuterspatial, Outerspatial, Verdict)


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _tokens(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield line_no, line.split()


def _check_id(line_no: int, token: str) -> str:
    if not token.isalnum():
        raise ParseError(line_no, f"id {token!r} is not alphanumeric")
    return token


def parse_complex(text: str) -> TwoComplex:
    """Parse a complex file; raises ParseError with the offending line."""
    vertices: set[str] = set()
    edges: dict[str, tuple[str, str]] = {}
    face_specs: list[tuple[int, str, str, list[str]]] = []
    seen: set[str] = set()
    for line_no, toks in _tokens(text):
        directive = toks[0]
        if directive == "vertex":
            if len(toks) != 2:
                raise ParseError(line_no, "vertex takes one id")
            vid = _check_id(line_no, toks[1])
            if vid in seen:
                raise ParseError(line_no, f"duplicate id {vid}")
            seen.add(vid)
            vertices.add(vid)
        elif directive == "edge":
            if len(toks) != 4:
                raise ParseError(line_no, "edge takes an id and two endpoints")
            eid = _check_id(line_no, toks[1])
            if eid in seen:
                raise ParseError(line_no, f"duplicate id {eid}")
            u, v = toks[2], toks[3]
            for w in (u, v):
                if w not in vertices:
                    raise ParseError(line_no, f"edge {eid} references undeclared vertex {w}")
            seen.add(eid)
            edges[eid] = (u, v)
        elif directive in ("face", "facee"):
            if len(toks) < 3:
                raise ParseError(line_no, f"{directive} needs an id and a boundary")
            fid = _check_id(line_no, toks[1])
            if fid in seen:
                raise ParseError(line_no, f"duplicate id {fid}")
            seen.add(fid)
            face_specs.append((line_no, directive, fid, toks[2:]))
        else:
            raise ParseError(line_no, f"unknown directive {directive!r}")
    graph = Graph(vertices, edges)
    faces = []
    boundaries: dict[tuple, str] = {}
    for line_no, directive, fid, items in face_specs:
        try:
            if directive == "face":
                for v in items:
                    if v not in graph.vertices:
                        raise ParseError(line_no, f"face {fid} references undeclared vertex {v}")
                face = Face.from_vertices(graph, fid, items)
            else:
                face = Face.from_edges(graph, fid, items)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc
        key = face.boundary_key()
        if key in boundaries:
            raise ParseError(line_no,
                             f"face {fid} duplicates the boundary of {boundaries[key]}")
        boundaries[key] = fid
        faces.append(face)
    return TwoComplex(graph, faces)


def format_complex(complex: TwoComplex) -> str:
    """Canonical text form; parse(format(c)) == c."""
    lines = []
    for v in sorted(complex.graph.vertices):
        lines.append(f"vertex {v}")
    for eid in sorted(complex.graph.edges):
        u, v = complex.graph.endpoints(eid)
        lines.append(f"edge {eid} {u} {v}")
    for fid in sorted(complex.face_ids()):
        face = complex.face(fid)
        unambiguous = all(
            len(complex.graph.edges_between(*sorted(complex.graph.endpoints(e)))) == 1
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
    for line_no, toks in _tokens(text):
        if toks[0] != "cycle":
            raise ParseError(line_no, f"unknown directive {toks[0]!r}")
        if len(toks) < 5:
            raise ParseError(line_no, "cycle needs an id and at least three vertices")
        cid = _check_id(line_no, toks[1])
        if cid in seen:
            raise ParseError(line_no, f"duplicate cycle id {cid}")
        seen.add(cid)
        out.append((cid, tuple(toks[2:])))
    return out


def _format_half_edge(h) -> str:
    return f"{h[0]}:{h[1]}"


def _parse_half_edge(token: str):
    eid, _, end = token.rpartition(":")
    if end not in ("0", "1") or not eid:
        raise ValueError(f"bad half-edge token {token!r}")
    return (eid, int(end))


def format_certificate(cert: NestedCertificate) -> list[str]:
    lines = ["certificate:", "  rotation:"]
    for v in cert.rotation.vertices():
        halves = " ".join(_format_half_edge(h) for h in cert.rotation.rotator(v))
        lines.append(f"    {v}: {halves}".rstrip())
    for comp in cert.components:
        lines.append("  component " + " ".join(comp.vertices) + ":")
        lines.append("    outer: " + " ".join(_format_half_edge(d) for d in comp.outer_darts))
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


def format_verdict(verdict: Verdict) -> str:
    lines = [f"verdict: {verdict.kind}"]
    if isinstance(verdict, Outerspatial):
        lines.extend(format_certificate(verdict.certificate))
    elif isinstance(verdict, NotOuterspatial):
        obstruction = verdict.obstruction
        if isinstance(obstruction, NonOuterplanarLink):
            lines.append("obstruction: non-outerplanar-link")
            lines.append("path: " + " ".join(obstruction.path.vertices))
            link = obstruction.link
            lines.append(f"link at {link.host}:")
            lines.append("  vertices: " + " ".join(sorted(link.graph.vertices)))
            for le in sorted(link.graph.edges):
                u, v = link.graph.endpoints(le)
                lines.append(f"  edge {le}: {u} {v} face {link.edge_face[le]}")
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

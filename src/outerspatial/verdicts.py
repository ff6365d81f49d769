"""The records of an answer: certificates, obstructions and verdicts.

A positive answer is a nested sphere embedding: a rotation system plus, per
component, the outer face orbit and the laminar forest over the face
boundaries.  A negative answer is an obstruction: a contracted link with a
K4 or K2,3 minor witness, a closed surface other than the sphere, or the
exhaustion of every sphere embedding.  `embedding`, `decider`, `oracle` and
`fileformat` build, check and print these records; this module runs none of
their algorithms and at run time imports only the records of `complexes`.
Every positive answer, whichever route embedded it, is assembled here by
`nested_certificate`.  The exhaustive search's default cap and the error
that refuses a larger search live here too, so the command line reads them
without compiling the search.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .complexes import Dart, Graph, HalfEdge, LinkGraph, Path

if TYPE_CHECKING:
    from .surface import SurfaceClass


class RotationSystem:
    """A cyclic order of half-edges at every vertex of a graph.

    It holds only the rotators, each rotated to start at its least
    half-edge; `trace_faces` builds the successor map it walks.
    """

    def __init__(self, rotators: Mapping[str, Sequence[HalfEdge]]):
        self._rot: dict[str, tuple[HalfEdge, ...]] = {
            v: _normalize_cycle(tuple(rotators[v])) for v in sorted(rotators)}

    @classmethod
    def union(cls, parts: Iterable[tuple[RotationSystem, Iterable[str]]]) -> RotationSystem:
        """The rotators of each system at its vertices, merged as they are normalised."""
        merged, rot = cls({}), {v: system._rot[v] for system, vertices in parts for v in vertices}
        merged._rot = {v: rot[v] for v in sorted(rot)}
        return merged

    def vertices(self) -> tuple[str, ...]:
        return tuple(self._rot)

    def rotator(self, v: str) -> tuple[HalfEdge, ...]:
        return self._rot[v]

    def validate_for(self, graph: Graph) -> None:
        """Every vertex of the graph has a rotator listing exactly its half-edges.

        That is as many as it has (a loop is incident once, with two ends),
        none twice, each at the vertex.  Other vertices may have rotators
        too, so one rotation system serves each component of a graph.
        """
        ends = graph.edges
        loops = Counter(ends[eid][0] for eid in graph.loops())
        for v in graph.vertices:
            cyc = self._rot.get(v)
            if cyc is None:
                raise ValueError("rotation system does not cover the vertex set")
            if len(cyc) == len(graph.incident_edges(v)) + loops.get(v, 0) == len(set(cyc)):
                for eid, o in cyc:
                    if o not in (0, 1) or ends.get(eid, (None, None))[o] != v:
                        break
                else:
                    continue
            raise ValueError(f"rotator at {v} does not list the half-edges at {v}")

    def canonical_key(self) -> tuple:
        return tuple(self._rot.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, RotationSystem) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"RotationSystem({len(self._rot)} rotators)"


def _normalize_cycle(cyc: tuple) -> tuple:
    """Rotate a cyclic sequence to start at its minimal element."""
    if not cyc:
        return cyc
    i = cyc.index(min(cyc))
    return cyc[i:] + cyc[:i]


class MinorWitness:
    """Branch sets realizing a K4 or K2,3 minor."""

    def __init__(self, target: str, branch_sets: Sequence[frozenset[str]],
                 connecting_edges: Mapping[tuple[int, int], str]):
        self.target = target
        self.branch_sets = tuple(branch_sets)
        self.connecting_edges = dict(connecting_edges)

    def __repr__(self) -> str:
        return f"MinorWitness({self.target})"


class NonOuterplanarLink:
    """A path whose contraction leaves a non-outerplanar link at the merged vertex."""

    def __init__(self, path: Path, link: LinkGraph, witness: MinorWitness):
        self.path = path
        self.link = link
        self.witness = witness

    def __repr__(self) -> str:
        return f"NonOuterplanarLink(path={self.path!r}, witness={self.witness.target})"


class AsphericalSubcomplex:
    """A face subset inducing a closed surface with Euler characteristic != 2."""

    def __init__(self, faces: frozenset[str], surface: SurfaceClass):
        self.faces = faces
        self.surface = surface

    def __repr__(self) -> str:
        return f"AsphericalSubcomplex({len(self.faces)} faces, {self.surface.kind})"


class ExhaustiveFailure:
    """Negative answer proved by exhausting every sphere embedding."""

    def __init__(self, embeddings_tried: int, detail: str = ""):
        self.embeddings_tried = embeddings_tried
        self.detail = detail

    def __repr__(self) -> str:
        return f"ExhaustiveFailure({self.embeddings_tried} embeddings)"


Obstruction = NonOuterplanarLink | AsphericalSubcomplex | ExhaustiveFailure

DEFAULT_CAP = 10_000_000


class CapExceededError(Exception):
    def __init__(self, required: int, cap: int, what: str = "rotation systems"):
        super().__init__(f"{required} {what} exceed the cap of {cap}")
        self.required = required
        self.cap = cap


class ComponentCertificate:
    """Per-component embedding data: outer face orbit and nesting forest."""

    def __init__(self, vertices: tuple[str, ...], outer_darts: tuple[Dart, ...],
                 parents: Mapping[str, str | None]):
        self.vertices = tuple(sorted(vertices))
        self.outer_darts = _normalize_cycle(tuple(outer_darts))
        self.parents = dict(parents)

    @cached_property
    def _children(self) -> dict[str | None, tuple[str, ...]]:
        """Sorted children of every face; roots under None."""
        kids: dict[str | None, list[str]] = {}
        for cid in sorted(self.parents):
            kids.setdefault(self.parents[cid], []).append(cid)
        return {p: tuple(cs) for p, cs in kids.items()}

    def roots(self) -> tuple[str, ...]:
        return self._children.get(None, ())

    def children(self, cid: str) -> tuple[str, ...]:
        return self._children.get(cid, ())


class NestedCertificate:
    """A genus-zero rotation system plus laminar forests over all face boundaries."""

    def __init__(self, rotation: RotationSystem,
                 components: Iterable[ComponentCertificate]):
        self.rotation = rotation
        self.components = tuple(sorted(components, key=lambda c: c.vertices))

    def __repr__(self) -> str:
        return f"NestedCertificate({len(self.components)} components)"


class Outerspatial:
    kind = "outerspatial"
    exit_code = 0

    def __init__(self, certificate: NestedCertificate):
        self.certificate = certificate

    def __repr__(self) -> str:
        return "Outerspatial(...)"


class NotOuterspatial:
    kind = "not-outerspatial"
    exit_code = 1

    def __init__(self, obstruction: Obstruction):
        self.obstruction = obstruction

    def __repr__(self) -> str:
        return f"NotOuterspatial({self.obstruction!r})"


class LinkViolation:
    def __init__(self, vertex: str, reason: str):
        self.vertex = vertex
        self.reason = reason

    def __repr__(self) -> str:
        return f"LinkViolation({self.vertex}: {self.reason})"


class HypothesisViolated:
    kind = "hypothesis-violated"
    exit_code = 2

    def __init__(self, violations: Iterable[LinkViolation], notes: Iterable[str] = ()):
        self.violations = tuple(violations)
        self.notes = tuple(notes)

    def __repr__(self) -> str:
        return f"HypothesisViolated({len(self.violations)} violations)"


Verdict = Outerspatial | NotOuterspatial | HypothesisViolated


def nested_certificate(parts: Iterable[tuple[RotationSystem, ComponentCertificate]]
                       ) -> NestedCertificate:
    """One certificate from each component's genus-zero rotation system and certificate."""
    parts = list(parts)
    rotation = RotationSystem.union((rotation, cert.vertices) for rotation, cert in parts)
    return NestedCertificate(rotation, [cert for _, cert in parts])

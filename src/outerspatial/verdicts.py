"""The records of an answer: certificates, obstructions and verdicts.

A positive answer is a nested sphere embedding: a rotation system plus, per
component, the outer face orbit and the laminar forest over the face
boundaries.  A negative answer is an obstruction: a contracted link with a
K4 or K2,3 minor, a closed surface other than the sphere, or the exhaustion
of every sphere embedding.  `decider`, `oracle` and `fileformat` build,
check and print these records; this module imports none of them.  Every
positive answer, whichever route embedded it, is assembled here.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping

from .complexes import LinkGraph, Path, TwoComplex
from .embedding import (CrossingPair, Dart, MinorWitness, RotationSystem,
                        TracedFaces, nesting_forest, _normalize_cycle)
from .surface import SurfaceClass


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


def component_certificate(traced: TracedFaces,
                          comp: TwoComplex) -> ComponentCertificate | CrossingPair:
    """Certificate for one traced component's faces, or the first crossing pair."""
    parents = nesting_forest(traced, {fid: f.edge_set for fid, f in comp.faces.items()})
    if isinstance(parents, CrossingPair):
        return parents
    outer = traced.orbits[0] if traced.orbits else ()
    return ComponentCertificate(tuple(traced.graph.vertices), outer, parents)


def nested_certificate(parts: Iterable[tuple[TracedFaces, ComponentCertificate]]
                       ) -> NestedCertificate:
    """One certificate from each component's genus-zero tracing and certificate."""
    parts = list(parts)
    rotation = RotationSystem.union((traced.rotation, traced.graph.vertices) for traced, _ in parts)
    return NestedCertificate(rotation, [cert for _, cert in parts])

"""Deciding outerspatiality of 2-complexes and nested plane embeddings of graphs."""

from .complexes import (Face, Graph, LinkGraph, Path, TwoComplex,
                        associated_complex, cone, contract_path, delete_faces,
                        link_graph, skeleton, split_components, validate,
                        vertex_sum)
from .decider import (check_perfectly_chordal, decide_nested_plane,
                      decide_outerspatial, find_chordal_faces,
                      is_locally_2_connected, verify_certificate,
                      verify_obstruction)
from .embedding import (MinorWitness, RotationSystem, TracedFaces,
                        cycle_sides, find_minor, is_2_connected,
                        nesting_forest, test_outerplanar, test_planar,
                        trace_faces, verify_minor_witness)
from .oracle import (CapExceededError, brute_force_nested,
                     brute_force_outerspatial, enumerate_sphere_embeddings,
                     find_aspherical_subcomplex)
from .surface import SurfaceClass, classify_surface, is_closed_surface, survey_surfaces
from .verdicts import (AsphericalSubcomplex, ExhaustiveFailure,
                       HypothesisViolated, NestedCertificate, NonOuterplanarLink,
                       NotOuterspatial, Outerspatial, Verdict)

__version__ = "0.1.0"

"""Deciding outerspatiality of 2-complexes and nested plane embeddings of graphs."""

from .complexes import (Face, Graph, LinkGraph, Path, TwoComplex,
                        associated_complex, cone, contract_path, delete_faces,
                        link_graph, split_components, validate)
from .decider import (check_perfectly_chordal, decide_nested_plane,
                      decide_outerspatial, find_chordal_faces,
                      is_locally_2_connected, verify_certificate,
                      verify_obstruction)
from .embedding import (TracedFaces, cycle_sides, find_minor, is_2_connected,
                        test_outerplanar, test_planar, trace_faces,
                        verify_minor_witness)
from .oracle import (CapExceededError, brute_force_outerspatial,
                     enumerate_sphere_embeddings, find_aspherical_subcomplex)
from .surface import SurfaceClass, survey_surfaces
from .verdicts import (AsphericalSubcomplex, ExhaustiveFailure,
                       HypothesisViolated, MinorWitness, NestedCertificate,
                       NonOuterplanarLink, NotOuterspatial, Outerspatial,
                       RotationSystem, Verdict)

__version__ = "0.1.0"

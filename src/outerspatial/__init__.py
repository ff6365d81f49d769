"""Deciding outerspatiality of 2-complexes and nested plane embeddings of graphs.

Every public name is imported from its home module when it is first read
(PEP 562), so `import outerspatial` loads no other module of the package
and a command compiles only the modules it runs.
"""

import importlib

# The public names of each module that `outerspatial.<name>` reads.
_HOMES = {
    "complexes": ("Face", "Graph", "LinkGraph", "Path", "TwoComplex", "associated_complex",
                  "cone", "contract_path", "delete_faces", "link_graph", "split_components",
                  "validate"),
    "decider": ("check_perfectly_chordal", "decide_nested_plane", "decide_outerspatial",
                "find_chordal_faces", "is_locally_2_connected", "verify_certificate",
                "verify_obstruction"),
    "embedding": ("TracedFaces", "cycle_sides", "find_minor", "is_2_connected",
                  "test_outerplanar", "test_planar", "trace_faces", "verify_minor_witness"),
    "oracle": ("brute_force_outerspatial", "enumerate_sphere_embeddings",
               "find_aspherical_subcomplex"),
    "surface": ("SurfaceClass", "survey_surfaces"),
    "verdicts": ("AsphericalSubcomplex", "CapExceededError", "ExhaustiveFailure",
                 "HypothesisViolated", "MinorWitness", "NestedCertificate",
                 "NonOuterplanarLink", "NotOuterspatial", "Outerspatial", "RotationSystem",
                 "Verdict"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

# The modules are public names too, as they were when this file imported them.
__all__ = sorted([*_HOMES, *_HOME_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME_OF:
        return getattr(importlib.import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

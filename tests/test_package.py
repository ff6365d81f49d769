"""The package's top-level names, read lazily from their home modules.

`outerspatial/__init__.py` imports no module; each name below is imported
from its home module on first read.  The table is every name the package
exported when its `__init__` imported every module, so none may go.
`tests/test_cold_start.py` checks in a fresh interpreter that
`import outerspatial` alone loads no other module of the package.
"""

import importlib

import pytest

import outerspatial

HOMES = {
    "complexes": ["Face", "Graph", "LinkGraph", "Path", "TwoComplex", "associated_complex",
                  "cone", "contract_path", "delete_faces", "link_graph", "split_components",
                  "validate"],
    "decider": ["check_perfectly_chordal", "decide_nested_plane", "decide_outerspatial",
                "find_chordal_faces", "is_locally_2_connected", "verify_certificate",
                "verify_obstruction"],
    "embedding": ["TracedFaces", "cycle_sides", "find_minor", "is_2_connected",
                  "test_outerplanar", "test_planar", "trace_faces", "verify_minor_witness"],
    "oracle": ["brute_force_outerspatial", "enumerate_sphere_embeddings",
               "find_aspherical_subcomplex"],
    "surface": ["SurfaceClass", "survey_surfaces"],
    # `CapExceededError` was read from `oracle`, which still binds the same class.
    "verdicts": ["AsphericalSubcomplex", "CapExceededError", "ExhaustiveFailure",
                 "HypothesisViolated", "MinorWitness", "NestedCertificate",
                 "NonOuterplanarLink", "NotOuterspatial", "Outerspatial", "RotationSystem",
                 "Verdict"],
}
NAMES = [(module, name) for module, names in HOMES.items() for name in names]
# A star import also gave the modules that `__init__` imported.
STAR = {name for _, name in NAMES} | set(HOMES)


@pytest.mark.parametrize("module,name", NAMES, ids=lambda x: x)
def test_each_name_is_its_home_modules_object(module, name):
    home = importlib.import_module(f"outerspatial.{module}")
    assert getattr(outerspatial, name) is getattr(home, name)


@pytest.mark.parametrize("module", sorted(HOMES))
def test_each_module_is_a_name_of_the_package(module):
    assert getattr(outerspatial, module) is importlib.import_module(f"outerspatial.{module}")


def test_the_cap_error_is_one_class_wherever_it_is_read():
    from outerspatial import decider, oracle, verdicts
    assert oracle.CapExceededError is decider.CapExceededError is verdicts.CapExceededError
    assert oracle.DEFAULT_CAP == decider.DEFAULT_CAP == verdicts.DEFAULT_CAP == 10_000_000


def test_dir_and_star_import_see_every_name():
    assert STAR | {"__version__"} <= set(dir(outerspatial))
    namespace: dict = {}
    exec("from outerspatial import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        outerspatial.no_such_name
    assert not hasattr(outerspatial, "DEFAULT_CAP")
    with pytest.raises(ImportError):
        from outerspatial import no_such_name  # noqa: F401

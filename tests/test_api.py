"""The package's names: what its modules define, and that their annotations resolve."""

import importlib
import inspect
import pkgutil
import typing

import pstnet

MODULES = [pstnet] + [
    importlib.import_module(f"pstnet.{info.name}")
    for info in pkgutil.iter_modules(pstnet.__path__)
    if info.name != "__main__"
]


def _functions(module):
    """Functions and methods that ``module`` defines, by qualified name."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj.__qualname__, obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                for unwrap in ("__func__", "fget", "func"):  # static, property, cached
                    attr = getattr(attr, unwrap, attr)
                if inspect.isfunction(attr):
                    yield attr.__qualname__, attr


def test_every_annotation_resolves():
    unresolved = []
    for module in MODULES:
        for name, function in _functions(module):
            try:
                typing.get_type_hints(function)
            except NameError as error:
                unresolved.append(f"{module.__name__}.{name}: {error}")
    assert unresolved == []


def test_references_live_in_the_tests():
    # the references the tests compare against are not part of the simulator
    deleted = {"ode_oracle", "closed_form_amplitude", "fourier_matrix",
               "vacuum_covariance", "pst_cat_fidelity", "mu_from_separation"}
    assert {(m.__name__, name) for m in MODULES for name in deleted & vars(m).keys()} == set()

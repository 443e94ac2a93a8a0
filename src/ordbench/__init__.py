"""ordbench: Cantor-normal-form ordinal arithmetic and forcing-condition
combinatorics over finitely presented toy universes.

Importing the package loads no layer: each public name below is imported
from its module on first use (PEP 562), so a CLI call pays only for the
layers its verb runs.
"""

import importlib.util
import sys

# Module -> the public names the package re-exports from it.
_EXPORTS = {
    "ordinal": ("Ordinal", "ZERO", "ONE", "OMEGA", "add", "compare", "omega_power",
                "cnf_difference", "limit_order", "classify", "parse_ordinal", "format_ordinal"),
    "oset": ("OrdinalSet", "parse_set", "format_set"),
    "universe": ("ToyUniverse",),
    "magidor": ("Block", "MagidorCondition", "ExtensionType"),
    "projection": ("IndexSet", "ICondition"),
    "generic": ("CanonicalSequence",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


def _lazy(name: str):
    """The submodule `name`, bound now and executed on its first attribute
    access (`importlib.util.LazyLoader`).  Merely passing the module around
    loads nothing."""
    full = f"{__name__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        loader = spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = globals()[name] = module
        loader.exec_module(module)
    return sys.modules[full]

"""ordbench: Cantor-normal-form ordinal arithmetic and forcing-condition
combinatorics over finitely presented toy universes.

Importing the package loads no layer: each public name below is imported
from its module on first use (PEP 562), so a CLI call pays only for the
layers its verb runs.
"""

import importlib.util
import operator
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


_set = object.__setattr__  # how an `__init__` sets a slot past the frozen `__setattr__`


class _Record:
    """Frozen value record.  A record class lists its fields in `__slots__`
    in constructor order (a slot whose name starts with `_` is a memo, not a
    field) and sets them in `__init__` with `_set`.  `==`, `hash`, pickling
    and `repr` read the fields as one tuple, `_key`.  `Ordinal` and
    `OrdinalSet` keep their own `==` and `hash`."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(n for n in vars(cls).get("__slots__", ()) if n[0] != "_")
        if fields:
            get = operator.attrgetter(*fields)
            cls._fields = fields
            cls._key = property(get if len(fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __reduce__(self):
        # Unpickling and copying go through `__init__`, not `__setattr__`.
        return type(self), self._key

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

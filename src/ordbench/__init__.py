"""ordbench: Cantor-normal-form ordinal arithmetic and forcing-condition
combinatorics over finitely presented toy universes.

Each name is imported from its module, for example
`from ordbench.oset import OrdinalSet`; importing the package loads no
layer, so a CLI call pays only for the layers its verb runs.
"""

import importlib.util
import operator
import sys


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

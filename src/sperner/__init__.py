"""Bitset toolkit for antichains of {1..n}: squashed order, shadows and
shades with their closed-form size bounds, middle-band normalization,
and exhaustive verification of the cross-intersecting maximum-sum
theorems at desk scale.

Every public name lives in its layer module (``sperner.ground.Family``,
``sperner.cascade.cascade``); the package serves only the seven layers.
Importing the package runs none of them: each is registered lazily and
runs on its first attribute access, so a command runs only the layers it
calls.  A module imports the layers it uses at its top, never inside a
function: by name (``from .ground import Family``) a layer it needs
whenever it runs, and as the lazy module (``from . import cascade``) a
layer that only some of its functions call, through it
(``cascade.shadow(f)``).  Binding a lazy layer does not run it, so this
registry alone decides when a layer runs, and a call through it reads
the layer's current attribute."""

import importlib.util
import sys

__all__ = ["ground", "squashed", "cascade", "differences", "normalize",
           "parallel", "verifier"]
__version__ = "0.1.0"

for _layer in __all__:
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    globals()[_layer] = _module

"""Bitset toolkit for antichains of {1..n}: squashed order, shadows and
shades with their closed-form size bounds, middle-band normalization,
and exhaustive verification of the cross-intersecting maximum-sum
theorems at desk scale.

Every public name lives in its layer module (``sperner.ground.Family``,
``sperner.cascade.cascade``); the package serves only the seven layers.
Importing the package runs none of them: each is registered lazily and
runs on its first attribute access, so a command runs only the layers it
calls.  On Python 3.11 any attribute access runs a lazy module, so a
layer that needs another layer only in some functions imports it inside
them."""

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

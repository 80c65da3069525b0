"""Bitset toolkit for antichains of {1..n}: squashed order, shadows and
shades with their closed-form size bounds, middle-band normalization,
and exhaustive verification of the cross-intersecting maximum-sum
theorems at desk scale.

Importing the package runs none of its layer modules: each is registered
lazily and runs on its first attribute access, so a command runs only
the layers it calls.  On Python 3.11 any attribute access runs a lazy
module, so a layer that needs another layer only in some functions
imports it inside them.  The public names below are read from their home
module when first asked for (the package attribute ``cascade`` is the
function; the module is ``sys.modules["sperner.cascade"]``)."""

import importlib.util
import sys

# public name -> the layer module that defines it
_HOME = {name: layer for layer, names in (
    ("ground", "Family complement format_family format_set full_level "
               "independent is_antichain is_cross_intersecting parse_family "
               "parse_set read_family"),
    ("squashed", "first_segment last_segment level_masks rank segment "
                 "squash_compare unrank"),
    ("cascade", "CascadeRep cascade kkt_shadow_bound local_shade_bound "
                "local_shadow_bound new_shade new_shadow shade "
                "shade_of_last_bound shade_table shadow"),
    ("differences", "CheckReport check_all check_lemma damped_term_gain "
                    "hockey_stick term_gain"),
    ("normalize", "NormalizationTrace SelectionError middle_band normalize_pair "
                  "normalize_to_middle push_down_max_rank push_up_min_rank"),
    ("verifier", "SearchCensus canonical_family_key canonical_pair "
                 "canonical_pair_key enumerate_antichains max_cross_sum "
                 "max_sum_formula"),
) for name in names.split()}

_LAYERS = ("ground", "squashed", "cascade", "differences", "normalize",
           "parallel", "verifier")
for _layer in _LAYERS:
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    if _layer not in _HOME:  # the name cascade is served by the table
        globals()[_layer] = _module

__all__ = [*_HOME, *(layer for layer in _LAYERS if layer not in _HOME)]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)

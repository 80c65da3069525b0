"""Bitset toolkit for antichains of {1..n}: squashed order, shadows and
shades with their closed-form size bounds, middle-band normalization,
and exhaustive verification of the cross-intersecting maximum-sum
theorems at desk scale."""

from .ground import (
    Family,
    complement,
    format_family,
    format_set,
    full_level,
    independent,
    is_antichain,
    is_cross_intersecting,
    parse_family,
    parse_set,
    read_family,
)
from .squashed import (
    first_segment,
    last_segment,
    level_masks,
    rank,
    segment,
    squash_compare,
    unrank,
)
from .cascade import (
    CascadeRep,
    cascade,
    kkt_shadow_bound,
    local_shade_bound,
    local_shadow_bound,
    new_shade,
    new_shadow,
    shade,
    shade_of_last_bound,
    shade_table,
    shadow,
)
from .differences import (
    CheckReport,
    check_all,
    check_lemma,
    damped_term_gain,
    hockey_stick,
    term_gain,
)
from .normalize import (
    NormalizationTrace,
    SelectionError,
    middle_band,
    normalize_pair,
    normalize_to_middle,
    push_down_max_rank,
    push_up_min_rank,
)
from .verifier import (
    SearchCensus,
    canonical_family_key,
    canonical_pair,
    canonical_pair_key,
    enumerate_antichains,
    max_cross_sum,
    max_sum_formula,
)

__version__ = "0.1.0"

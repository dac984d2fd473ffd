"""permroot: cycle-structure bijections, exact root-existence counting, and
exhaustive verification for permutations of finite sets."""

import importlib

from .bijections import (
    ColoredFirstCycle,
    DeltaOutput,
    extend_regular,
    extract_element,
    from_enriched_cycles,
    from_nearly_regular,
    grow_first_cycle,
    insert_element,
    merge_cycle_class,
    shrink_first_cycle,
    split_nearly_regular,
    to_enriched_cycles,
    to_nearly_regular,
)
from .counting import (
    count_AP,
    count_cyc,
    count_cyc_qr,
    count_enriched_cyc,
    count_nreg,
    count_of_type,
    count_q_family,
    count_reg,
    count_roots,
    count_S_rho_q,
    double_factorial,
    falling_factorial,
    prob_root,
    regular_proportion_product,
    root_count_sequence,
)
from .errors import (
    CycleNotationError,
    DomainError,
    EnumerationBoundError,
    InvalidPermutationError,
    PermrootError,
    SequenceLookupError,
)
from .families import (
    DEFAULT_ENUMERATION_BOUND,
    FamilySpec,
    classify,
    enumerate_enriched_cycles,
    enumerate_enriched_nearly_regular,
    enumerate_family,
    enumerate_regular_on,
    is_nearly_regular,
    is_regular,
)
from .oeis import SequenceRef, cross_check, fetch
from .permutation import (
    CycleType,
    EnrichedPermutation,
    Permutation,
    parse,
    parse_cycle_type,
)
from .roots import (
    brute_force_root_table,
    find_root_bruteforce,
    has_root_general,
    has_root_prime_power,
    is_qr_divisible,
    prime_power_decomposition,
)

__version__ = "0.1.0"


# name -> its submodule, loaded on first use: verify brings concurrent.futures,
# report json and dataclasses.  import_module, unlike "from . import verify",
# does not come back to __getattr__.
_LAZY = {
    **dict.fromkeys(("verify", "run_suite", "run_suites", "suite_ids"), "verify"),
    **dict.fromkeys(("report", "VerificationReport", "golden_compare", "golden_diff"), "report"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)

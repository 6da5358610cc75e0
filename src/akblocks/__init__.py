"""Abacus calculus for blocks of Ariki-Koike algebras.

Multipartition abacus displays, elementary bead moves and moving
vectors, block invariants (residue content, defect, affine Weyl action),
the representation-type classification of blocks, and the cell-chain
combinatorics of straight-line Brauer tree algebras.

The names below are loaded on first use (PEP 562): ``import akblocks``
runs no submodule, and ``akblocks.core`` imports ``akblocks.moves``
(and what it imports) the first time it is read.
"""

from importlib import import_module

# public name -> the submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in {
        "abacus": "AbacusPair UglovImage dual is_complete pair_from_beads render uglov",
        "blocks": "BlockId BudgetExceeded CartanData OrbitResult block_id defect "
        "enumerate_block_members normalize_multicharge orbit_reachable weyl_sigma",
        "brauer": "BrauerLine Cell cell_chains multiplication_poset projective_structure",
        "classify": "IncomparabilityWitness ReprTypeReport block_moving_vector "
        "derived_equivalent_weight1 find_incomparable_pair incomparable_abaci "
        "is_incomparable_witness permutation_for_incomparability repr_type schur_repr_type "
        "subabacus_moving_vector",
        "moves": "ElementaryOp apply_op construct_from_vector core moving_vector_between "
        "operation_set_between remove_rim_hook rotate_rows",
        "partitions": "INFINITY DominanceRel conjugate conjugate_multi count_standard_tableaux "
        "dominance_compare in_A in_Abar multipartitions_of partitions_of permute "
        "permute_charge residue_content",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(_SUBMODULE.values())

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})

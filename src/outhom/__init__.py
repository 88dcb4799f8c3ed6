"""Forested graph chain complexes for the rational homology of Out(F_n)."""

from .chain import ChainBasis, ClassStore, SparseIntMat, boundary_contract, boundary_remove, build_chain_basis
from .cycleio import CycleVector, parse_cycle, serialize_cycle, verify_cycle
from .enumerator import EnumSpec, ResourceCapError, enumerate_graphs
from .exactla import DEFAULT_PRIMES, FieldSpec, NullspaceBasis, nullspace_of, rank_of
from .forests import ForestedGraph, ForestIndex
from .multigraph import GraphClass, Multigraph, canonical_form, contract_edges
from .pipeline import (
    RankProfile,
    compute_rank_profile,
    homology_dimensions,
    oracle_full_complex,
)

__all__ = [
    "ChainBasis",
    "ClassStore",
    "CycleVector",
    "DEFAULT_PRIMES",
    "EnumSpec",
    "FieldSpec",
    "ForestIndex",
    "ForestedGraph",
    "GraphClass",
    "Multigraph",
    "NullspaceBasis",
    "RankProfile",
    "ResourceCapError",
    "SparseIntMat",
    "boundary_contract",
    "boundary_remove",
    "build_chain_basis",
    "canonical_form",
    "compute_rank_profile",
    "contract_edges",
    "enumerate_graphs",
    "homology_dimensions",
    "nullspace_of",
    "oracle_full_complex",
    "parse_cycle",
    "rank_of",
    "serialize_cycle",
    "verify_cycle",
]

__version__ = "0.1.0"

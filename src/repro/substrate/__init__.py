"""Substrate extraction: box-integration mesh, Kron reduction, port macromodel."""

from .mesh import MeshSpec, SubstrateMesh
from .reduction import SubstrateMacromodel, kron_reduce
from .extraction import (
    PortKind,
    SubstrateExtraction,
    SubstrateExtractionOptions,
    SubstratePort,
    extract_substrate,
    identify_ports,
    substrate_inputs,
)

__all__ = [
    "MeshSpec",
    "PortKind",
    "SubstrateExtraction",
    "SubstrateExtractionOptions",
    "SubstrateMacromodel",
    "SubstrateMesh",
    "SubstratePort",
    "extract_substrate",
    "identify_ports",
    "kron_reduce",
    "substrate_inputs",
]

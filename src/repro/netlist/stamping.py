"""Stamping interface between netlist elements and the MNA assembler.

Netlist elements know *what* they contribute to the modified-nodal-analysis
system (conductances, capacitances, source branches); the simulator knows
*where* those contributions go (node ordering, matrix storage).  The
:class:`Stamper` abstract base class is the contract between the two: the
simulator implements it, elements call it.

All node arguments are node *names* (strings); the ground node is ``"0"``.
"""

from __future__ import annotations

import abc


GROUND = "0"


class Stamper(abc.ABC):
    """Receives element contributions during MNA assembly.

    Sign conventions follow standard MNA practice:

    * ``conductance(a, b, g)`` adds a conductance ``g`` between nodes ``a``
      and ``b`` (either may be ground).
    * ``capacitance(a, b, c)`` adds a capacitance similarly; in AC analysis it
      contributes ``j*omega*c``, in transient a companion conductance.
    * ``current(a, b, i)`` injects a current ``i`` flowing *from node a to
      node b* (i.e. it is extracted from ``a`` and pushed into ``b``).  Only
      the Newton companion models of nonlinear devices call it; an
      independent source's value never goes through the stamper (the
      analyses build its right-hand side from
      :func:`repro.simulator.mna.source_rows`).
    * ``vccs(p, n, cp, cn, gm)`` adds a transconductance: a current
      ``gm * (v_cp - v_cn)`` flowing from node ``p`` to node ``n``.
    * ``branch_*`` methods register contributions that need an extra MNA
      unknown (branch current): ideal voltage sources, inductors, VCVS.
      ``branch`` is an element-unique string key; the simulator allocates the
      row/column.  A voltage source stamps only its incidence, not its value.
    """

    @abc.abstractmethod
    def conductance(self, node_a: str, node_b: str, value: float) -> None:
        """Add a conductance ``value`` (siemens) between two nodes."""

    @abc.abstractmethod
    def capacitance(self, node_a: str, node_b: str, value: float) -> None:
        """Add a capacitance ``value`` (farad) between two nodes."""

    @abc.abstractmethod
    def current(self, node_from: str, node_to: str, value: float) -> None:
        """Add a companion current ``value`` from ``node_from`` to ``node_to``."""

    @abc.abstractmethod
    def vccs(self, node_p: str, node_n: str, ctrl_p: str, ctrl_n: str,
             gm: float) -> None:
        """Add a voltage-controlled current source (transconductance)."""

    @abc.abstractmethod
    def branch_voltage_source(self, branch: str, node_p: str,
                              node_n: str) -> None:
        """Add the incidence of an ideal voltage source across two nodes."""

    @abc.abstractmethod
    def branch_inductor(self, branch: str, node_p: str, node_n: str,
                        inductance: float) -> None:
        """Add an inductor as a branch element (current is an MNA unknown)."""

    @abc.abstractmethod
    def branch_vcvs(self, branch: str, node_p: str, node_n: str,
                    ctrl_p: str, ctrl_n: str, gain: float) -> None:
        """Add a voltage-controlled voltage source."""

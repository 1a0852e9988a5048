"""3-D box-integration mesh of the substrate.

The substrate is discretised into a regular grid of boxes: uniform in the
lateral (x, y) directions over the region of interest and layered vertically
according to the technology's doping profile (thin boxes near the surface
where contacts and devices sit, thick boxes in the deep bulk).  Each box is a
node; neighbouring boxes are connected by conductances

``G = sigma_avg * A / d``

where ``A`` is the shared face area, ``d`` the centre-to-centre distance and
``sigma_avg`` the series-averaged conductivity of the two half-boxes — the
standard finite-volume (box integration) discretisation of the Laplace
equation that commercial substrate extractors use.

Surface *ports* (substrate taps, guard rings, device back-gates, wells,
inductor footprints) are attached to the surface boxes they cover and are
later reduced to a compact macromodel by
:mod:`repro.substrate.reduction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..errors import ExtractionError
from ..layout.geometry import Rect
from ..obs import trace_span
from ..technology.process import SubstrateProfile


@dataclass(frozen=True)
class MeshSpec:
    """Lateral extent and resolution of the substrate mesh.

    Parameters
    ----------
    region:
        Lateral extent of the meshed substrate (metres).  Should cover the
        layout with some margin so current can spread.
    nx, ny:
        Number of lateral boxes in x and y.
    max_depth:
        Depth of the deepest meshed box; the remaining bulk below is ignored
        (valid when there is no backside contact) or lumped (when there is).
    n_z_per_layer:
        Number of mesh layers per substrate profile layer (the thick bulk
        layer is subdivided geometrically).
    """

    region: Rect
    nx: int = 40
    ny: int = 40
    max_depth: float = 200e-6
    n_z_per_layer: int = 3

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise ExtractionError("mesh needs at least 2 boxes per lateral direction")
        if self.max_depth <= 0:
            raise ExtractionError("max_depth must be positive")


def _vertical_planes(profile: SubstrateProfile, spec: MeshSpec) -> np.ndarray:
    """Depth coordinates of the horizontal mesh planes (starting at 0)."""
    planes = [0.0]
    depth_so_far = 0.0
    for layer in profile.layers:
        bottom = min(depth_so_far + layer.thickness, spec.max_depth)
        thickness = bottom - depth_so_far
        if thickness <= 0:
            break
        # Geometric subdivision: finer boxes near the top of each layer.
        n = max(1, spec.n_z_per_layer)
        ratios = np.geomspace(1.0, 3.0, n)
        ratios = ratios / ratios.sum()
        z = depth_so_far
        for r in ratios:
            z += thickness * r
            planes.append(z)
        depth_so_far = bottom
        if depth_so_far >= spec.max_depth:
            break
    return np.asarray(planes)


@dataclass
class SubstrateMesh:
    """A box-integration mesh plus its assembled conductance matrix."""

    spec: MeshSpec
    profile: SubstrateProfile
    x_edges: np.ndarray = field(init=False)
    y_edges: np.ndarray = field(init=False)
    z_edges: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        region = self.spec.region
        self.x_edges = np.linspace(region.x0, region.x1, self.spec.nx + 1)
        self.y_edges = np.linspace(region.y0, region.y1, self.spec.ny + 1)
        self.z_edges = _vertical_planes(self.profile, self.spec)
        if len(self.z_edges) < 2:
            raise ExtractionError("substrate profile produced an empty mesh")

    # -- indexing ---------------------------------------------------------------

    @property
    def nx(self) -> int:
        return self.spec.nx

    @property
    def ny(self) -> int:
        return self.spec.ny

    @property
    def nz(self) -> int:
        return len(self.z_edges) - 1

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny * self.nz

    def node_index(self, ix: int, iy: int, iz: int) -> int:
        if not (0 <= ix < self.nx and 0 <= iy < self.ny and 0 <= iz < self.nz):
            raise ExtractionError(f"mesh index out of range: {(ix, iy, iz)}")
        return (iz * self.ny + iy) * self.nx + ix

    def cell_centers_z(self) -> np.ndarray:
        return 0.5 * (self.z_edges[:-1] + self.z_edges[1:])

    def conductivity_at_depth(self, depth: float) -> float:
        return 1.0 / self.profile.resistivity_at_depth(depth)

    def layer_conductivity(self) -> np.ndarray:
        """Conductivity of each mesh layer, taken at its centre depth."""
        return np.array([self.conductivity_at_depth(z)
                         for z in self.cell_centers_z()])

    # -- surface coverage --------------------------------------------------------

    def surface_cells_under(self, rect: Rect) -> list[tuple[int, int, float]]:
        """Surface cells (iz = 0) overlapped by ``rect`` with their overlap area.

        Returns a list of ``(ix, iy, overlap_area)``; an empty list means the
        rectangle lies outside the meshed region.  Overlaps are computed for
        all cells at once by clipping the rectangle against the mesh edge
        grids (an outer product of the per-axis overlap lengths).
        """
        overlap_x = (np.minimum(self.x_edges[1:], rect.x1)
                     - np.maximum(self.x_edges[:-1], rect.x0))
        overlap_y = (np.minimum(self.y_edges[1:], rect.y1)
                     - np.maximum(self.y_edges[:-1], rect.y0))
        np.clip(overlap_x, 0.0, None, out=overlap_x)
        np.clip(overlap_y, 0.0, None, out=overlap_y)
        areas = np.outer(overlap_x, overlap_y)          # indexed [ix, iy]
        xs, ys = np.nonzero(areas > 0.0)
        return [(int(ix), int(iy), float(areas[ix, iy]))
                for ix, iy in zip(xs, ys)]

    # -- assembly -----------------------------------------------------------------

    def conductance_matrix(self) -> sp.csr_matrix:
        """Assemble the (n_nodes x n_nodes) substrate conductance Laplacian.

        The matrix is symmetric, has non-positive off-diagonal entries and
        zero row sums (the substrate floats unless a backside contact is
        added by the caller) — properties the test-suite verifies.
        """
        with trace_span("extract.mesh_assembly", nodes=self.n_nodes):
            return self._conductance_matrix()

    def _conductance_matrix(self) -> sp.csr_matrix:
        nx, ny, nz = self.nx, self.ny, self.nz
        dx = np.diff(self.x_edges)
        dy = np.diff(self.y_edges)
        dz = np.diff(self.z_edges)
        sigma = self.layer_conductivity()

        # All neighbour couplings are assembled as whole index planes: the
        # node grid is reshaped to (nz, ny, nx) and each direction contributes
        # the conductances between adjacent slices in one broadcast expression.
        nodes = np.arange(self.n_nodes).reshape(nz, ny, nx)
        row_parts: list[np.ndarray] = []
        col_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []

        def add_conductances(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> None:
            a, b, g = np.broadcast_arrays(a, b, g)
            a, b, g = a.ravel(), b.ravel(), g.ravel()
            row_parts.append(np.concatenate((a, b, a, b)))
            col_parts.append(np.concatenate((a, b, b, a)))
            val_parts.append(np.concatenate((g, g, -g, -g)))

        if nx > 1:
            # x-neighbours: G = sigma * (dy*dz) / (0.5*(dx_i + dx_i+1))
            g_x = (sigma[:, None, None] * dy[None, :, None] * dz[:, None, None]
                   / (0.5 * (dx[:-1] + dx[1:]))[None, None, :])
            add_conductances(nodes[:, :, :-1], nodes[:, :, 1:], g_x)
        if ny > 1:
            # y-neighbours: G = sigma * (dx*dz) / (0.5*(dy_i + dy_i+1))
            g_y = (sigma[:, None, None] * dx[None, None, :] * dz[:, None, None]
                   / (0.5 * (dy[:-1] + dy[1:]))[None, :, None])
            add_conductances(nodes[:, :-1, :], nodes[:, 1:, :], g_y)
        if nz > 1:
            # z-neighbours: series combination of the two half boxes, which
            # may have different conductivities.
            area = dx[None, None, :] * dy[None, :, None]
            half_upper = 0.5 * dz[:-1, None, None] / (sigma[:-1, None, None] * area)
            half_lower = 0.5 * dz[1:, None, None] / (sigma[1:, None, None] * area)
            add_conductances(nodes[:-1, :, :], nodes[1:, :, :],
                             1.0 / (half_upper + half_lower))

        if not row_parts:
            return sp.csr_matrix((self.n_nodes, self.n_nodes))
        matrix = sp.coo_matrix(
            (np.concatenate(val_parts),
             (np.concatenate(row_parts), np.concatenate(col_parts))),
            shape=(self.n_nodes, self.n_nodes))
        return matrix.tocsr()

"""Exact Kron reduction of the laterally uniform substrate mesh.

The box-integration mesh of :mod:`repro.substrate.mesh` has uniform lateral
edges and a conductivity that depends on depth only.  The lateral part of
its Laplacian is therefore a sum of path-graph Laplacians, which the 2-D
DCT-II (the Neumann eigenvectors of a path graph) diagonalises; each lateral
mode ``(p, q)`` leaves an independent ``nz``-point tridiagonal system along
depth.  The ports touch only ``k`` surface cells, so the reduction needs
just the ``k x k`` surface Green's matrix ``Z = S A^-1 S^T`` of the floating
mesh ``A`` (with the same ``1e-12`` diagonal shift as the direct path), and
the contacts enter through the Woodbury identity:

``Y_red = R + E^T (Z + D^-1)^-1 E``

``W`` is the ``(k x P)`` cell-to-port contact conductance, ``D`` each cell's
total contact conductance, ``E = D^-1 W`` and ``R = diag(sum W) - W^T D^-1 W``.
``R`` is exactly zero for a cell that belongs to a single port, so the
formula avoids the cancellation of ``Y_pp - Y_ip^T Y_ii^-1 Y_ip`` between
the (up to 1e6 S) contact ties and the mS-scale substrate couplings.  This
is the surface Green's-function method of substrate extractors (Gharpurey &
Meyer, IEEE JSSC 1996; Costa, Chou & Silveira, IEEE TCAD 1999).

``Z`` is assembled without ever forming the mesh matrix:

1. each mode's ``[M_pq^-1]_00`` from a bottom-up continued fraction over
   depth (the conductance to ground of a ladder, free of cancellation);
2. one ``(2nx x 2ny)`` cosine-sum table of those diagonals, from two real
   FFT passes;
3. four Toeplitz/Hankel gathers from that table, because the product of two
   DCT-II basis vectors is a sum of a difference and a sum cosine.

The uniform lateral mode ``(0, 0)`` is nearly singular: only the 1e-12 shift
grounds the floating mesh, so it adds one huge constant ``1 / G_u`` to every
entry of ``Z``.  It is kept out of the table and applied exactly by a
Sherman-Morrison update, which keeps the dense Cholesky of ``Z + D^-1``
(the one ``O(k^3)`` step) well conditioned.

The dense ``k x k`` matrix grows with the square of the contacted cells
(k = 3,258 at 160x160 on the VCO testchip, 85 MB; 17,312 at 400x400,
2.4 GB).  :func:`spectral_kron` estimates that memory before it allocates
anything and raises :class:`~repro.errors.ExtractionError`, naming the mesh,
``k`` and the estimate, past :data:`DENSE_BUDGET_BYTES`; it does not fall
back to the direct path, which would need more.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ..errors import ExtractionError
from .mesh import SubstrateMesh

#: Relative spread of the lateral cell sizes up to which a mesh counts as
#: uniform (``linspace`` edges vary by round-off only).
_UNIFORM_RTOL = 1e-10
#: Rows of ``Z`` gathered per block (bounds the index temporaries).
_GATHER_ROWS = 64
#: Most bytes the dense path may allocate (:func:`dense_bytes`): a 1 GiB
#: budget admits k up to ~11,000 contacted cells.
DENSE_BUDGET_BYTES = 2 ** 30


def _uniform_pitch(edges: np.ndarray) -> float | None:
    widths = np.diff(edges)
    pitch = (edges[-1] - edges[0]) / len(widths)
    if np.max(np.abs(widths - pitch)) > _UNIFORM_RTOL * pitch:
        return None
    return float(pitch)


def supports(mesh: SubstrateMesh, nodes: np.ndarray) -> bool:
    """Whether the spectral path can reduce ``mesh`` contacted at ``nodes``:
    uniform lateral edges and every contacted node on the surface (iz = 0)."""
    return (bool(np.all(nodes < mesh.nx * mesh.ny))
            and _uniform_pitch(mesh.x_edges) is not None
            and _uniform_pitch(mesh.y_edges) is not None)


def _path_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues ``4 sin^2(pi p / 2n)`` of the n-node path Laplacian."""
    return 4.0 * np.sin(0.5 * np.pi * np.arange(n) / n) ** 2


def _cosine_sums(values: np.ndarray, axis: int) -> np.ndarray:
    """``out[a] = sum_p values[p] cos(pi p a / n)`` for ``a`` in ``0..2n-1``."""
    n = values.shape[axis]
    half = np.fft.rfft(values, n=2 * n, axis=axis).real       # a = 0..n
    mirror = np.flip(np.take(half, np.arange(1, n), axis=axis), axis=axis)
    return np.concatenate((half, mirror), axis=axis)


def _surface_green_table(mesh: SubstrateMesh,
                        shift: float) -> tuple[np.ndarray, float]:
    """The ``(2nx, 2ny)`` cosine-sum table behind the surface Green's matrix,
    and the uniform mode's conductance ``G_u``.

    ``table[a, c] = sum_pq w_p w_q [M_pq^-1]_00 cos(pi p a/nx) cos(pi q c/ny)``
    over every mode but ``(0, 0)``, with ``w_0 = 1/2n`` and ``w_p = 1/n``
    (half the squared DCT-II norms).  The uniform mode contributes
    ``1 / G_u`` to every entry of ``Z``, ``G_u = nx ny / [M_00^-1]_00``.
    """
    dx = _uniform_pitch(mesh.x_edges)
    dy = _uniform_pitch(mesh.y_edges)
    dz = np.diff(mesh.z_edges)
    sigma = mesh.layer_conductivity()
    # The per-layer couplings of SubstrateMesh.conductance_matrix.
    g_x = sigma * dy * dz / dx
    g_y = sigma * dx * dz / dy
    g_z = dx * dy / (0.5 * dz[:-1] / sigma[:-1] + 0.5 * dz[1:] / sigma[1:])
    lam_x = _path_eigenvalues(mesh.nx)[:, None]
    lam_y = _path_eigenvalues(mesh.ny)[None, :]

    # Bottom-up continued fraction: ``ground`` is each mode's conductance to
    # ground seen from layer iz, so [M^-1]_00 = 1 / ground at the surface.
    ground = lam_x * g_x[-1] + lam_y * g_y[-1] + shift
    for iz in range(mesh.nz - 2, -1, -1):
        ground = (lam_x * g_x[iz] + lam_y * g_y[iz] + shift
                  + g_z[iz] * ground / (g_z[iz] + ground))

    w_x = np.full(mesh.nx, 1.0 / mesh.nx)
    w_x[0] *= 0.5
    w_y = np.full(mesh.ny, 1.0 / mesh.ny)
    w_y[0] *= 0.5
    weighted = w_x[:, None] * w_y[None, :] / ground
    weighted[0, 0] = 0.0
    table = _cosine_sums(_cosine_sums(weighted, axis=0), axis=1)
    return table, float(mesh.nx * mesh.ny * ground[0, 0])


def _surface_green_matrix(mesh: SubstrateMesh, cells: np.ndarray,
                         shift: float) -> tuple[np.ndarray, float]:
    """``Z = S A^-1 S^T`` for the surface cells ``cells`` (``iy * nx + ix``),
    as the non-uniform part ``Z'`` and ``G_u`` with ``Z = Z' + 1 1^T / G_u``.

    ``u_p(i) u_p(i')`` is a cosine of ``i - i'`` plus one of ``i + i' + 1``,
    so every entry of ``Z'`` is four lookups in :func:`_surface_green_table`.
    """
    table, uniform = _surface_green_table(mesh, shift)
    flat = table.ravel()
    stride = table.shape[1]
    # int32 indices and row blocks of the upper triangle (mirrored below)
    # keep the gathers in cache; the table has 4 nx ny < 2^31 entries.
    ix = (cells % mesh.nx).astype(np.int32)
    iy = (cells // mesh.nx).astype(np.int32)
    x_next, y_next = (ix + 1) * stride, iy + 1
    k = len(cells)
    green = np.empty((k, k))
    for start in range(0, k, _GATHER_ROWS):
        rows, cols = slice(start, start + _GATHER_ROWS), slice(start, k)
        x_diff = np.abs(ix[rows, None] - ix[None, cols])
        x_diff *= stride
        x_sum = ix[rows, None] * stride + x_next[None, cols]
        y_diff = np.abs(iy[rows, None] - iy[None, cols])
        y_sum = iy[rows, None] + y_next[None, cols]
        index = x_diff + y_diff
        block = np.take(flat, index)
        for x, y in ((x_diff, y_sum), (x_sum, y_diff), (x_sum, y_sum)):
            np.add(x, y, out=index)
            block += np.take(flat, index)
        green[rows, cols] = block
        green[cols, rows] = block.T
    return green, uniform


def dense_bytes(mesh: SubstrateMesh, k: int) -> int:
    """Estimated peak bytes of the dense path on ``k`` contacted cells:
    the ``k x k`` float64 matrix (factorized in place), the cosine-sum
    table and one row block of gather temporaries (five int32 index arrays
    and two float64 blocks)."""
    table = 4 * mesh.nx * mesh.ny * 8
    gather = min(_GATHER_ROWS, k) * k * (5 * 4 + 2 * 8)
    return 8 * k * k + table + gather


def spectral_kron(mesh: SubstrateMesh, cells: np.ndarray, shares: np.ndarray,
                  shift: float) -> tuple[np.ndarray, float]:
    """Reduce ``mesh`` to its ports through the Woodbury identity.

    ``cells`` are the ``k`` distinct contacted surface cells and ``shares``
    the ``(k, P)`` contact conductance of each cell to each port.  Returns
    the ``(P, P)`` admittance and the seconds spent in the dense Cholesky
    factorization and solve; a non-positive-definite ``Z + D^-1`` raises
    :class:`numpy.linalg.LinAlgError` from :func:`scipy.linalg.cho_factor`.
    A reduction whose :func:`dense_bytes` exceed :data:`DENSE_BUDGET_BYTES`
    raises :class:`~repro.errors.ExtractionError` before allocating.
    """
    estimate = dense_bytes(mesh, len(cells))
    if estimate > DENSE_BUDGET_BYTES:
        raise ExtractionError(
            f"spectral Kron reduction of the {mesh.nx}x{mesh.ny}x{mesh.nz} "
            f"substrate mesh needs a dense {len(cells)} x {len(cells)} "
            f"surface Green's matrix: ~{estimate / 2 ** 30:.2f} GiB, over "
            f"the {DENSE_BUDGET_BYTES / 2 ** 30:.2f} GiB budget of "
            "repro.substrate.spectral.DENSE_BUDGET_BYTES; use a coarser "
            "mesh")
    contact = shares.sum(axis=1)
    coupling = shares / contact[:, None]                      # E = D^-1 W
    system, uniform = _surface_green_matrix(mesh, cells, shift)
    system[np.diag_indices_from(system)] += 1.0 / contact
    start = time.perf_counter()
    # ``system`` is exactly symmetric, so its transpose is the same matrix
    # in the column-major order LAPACK factorizes in place, without a copy.
    factor = cho_factor(system.T, lower=True, overwrite_a=True,
                        check_finite=False)
    solved = cho_solve(factor, np.column_stack((coupling, np.ones(len(cells)))),
                       check_finite=False)
    dense_seconds = time.perf_counter() - start
    # Sherman-Morrison for the uniform mode: with K' = Z' + D^-1,
    # (K' + 1 1^T / G_u)^-1 = K'^-1 - K'^-1 1 1^T K'^-1 / (G_u + 1^T K'^-1 1).
    solved, ones = solved[:, :-1], solved[:, -1]
    uniform_coupling = coupling.T @ ones
    # R without cancellation: a cell's contact minus one port's share is
    # exactly zero when that port is the cell's only one.
    remainder = -(coupling.T @ shares)
    remainder[np.diag_indices_from(remainder)] = np.sum(
        coupling * (contact[:, None] - shares), axis=0)
    return (remainder + coupling.T @ solved
            - np.outer(uniform_coupling, uniform_coupling)
            / (uniform + ones.sum())), dense_seconds

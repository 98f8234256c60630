"""SciPy's sparse kernels, called without the operator dispatch.

``bind_matvec`` binds the CSR kernel that ``fp_step`` and ``exact.evolve``
use; ``bind_dia_matvec`` binds the banded (DIA) kernel that steps the
wave's stencil, for one field or for every run and channel of an engine
batch at once. ``csr_from_triplets`` runs the kernels of a COO to CSR
conversion for ``exact``'s generator. The kernels are imported inside the
functions, not with this module, so importing lecollapse loads numpy
alone; ``scipy.sparse`` loads at the first operator build, which only the
``wave``, ``fp``, ``exact`` and ``compare`` modes and seeded
(advancing-field) ``collapse`` and ``sweep`` runs do.
"""

from functools import partial

import numpy as np


def bind_matvec(g, scale=None):
    """The kernel behind ``g @ x`` for a CSR matrix g, bound to g: call (x, y).

    It adds each row's products into y in stored order, so a zeroed y gives
    ``g @ x`` and a nonzero one (``wave.reaction_diffusion``'s) keeps its
    terms. The kernel's type is g's dtype, real or complex, and x and y
    must have it too. Skipping the dispatch of ``@`` keeps a matvec cheap.
    A ``scale`` c binds ``g.data * c`` on g's pattern, the data of ``c * g``.
    """
    from scipy.sparse import _sparsetools

    data = g.data if scale is None else g.data * scale
    return partial(_sparsetools.csr_matvec, *g.shape, g.indptr, g.indices,
                   data)


def bind_dia_matvec(a, blocks=1):
    """The kernel behind ``a @ x`` for a DIA array a, bound to a: call (x, y).

    It adds into y one stored diagonal at a time, so each row gets its
    products in the order of ``a.offsets``. ``blocks`` = m binds
    diag(a, ..., a), a's diagonals tiled m times: x and y may hold any
    b <= m vectors end to end, and one call steps all b. Each vector gets
    the bytes of a call on it alone if a holds an explicit 0 wherever a
    row's stencil crosses a block edge (the wave's wall entries) and x is
    finite and >= 0, so a product from the next block adds +0.0.
    """
    from scipy.sparse import _sparsetools

    if blocks == 1:  # no Python frame per call: 9% of a kpp_step step
        return partial(_sparsetools.dia_matvec, *a.shape, *a.data.shape,
                       a.offsets, a.data)
    data = np.tile(a.data, blocks)

    def matvec(x, y):
        _sparsetools.dia_matvec(x.size, x.size, *data.shape, a.offsets, data,
                                x, y)

    return matvec


def csr_from_triplets(rows, cols, vals, n):
    """(indptr, indices, data) of the n x n matrix summing the triplets, by
    the kernel calls of ``coo_matrix((vals, (rows, cols))).tocsr()``: equal
    (row, col) entries add in the same order, to the same bytes."""
    from scipy.sparse import _sparsetools

    idx = np.int32 if max(vals.size, n) < 2**31 else np.int64
    indptr, indices = np.empty(n + 1, idx), np.empty(vals.size, idx)
    data = np.empty_like(vals)
    _sparsetools.coo_tocsr(n, n, vals.size, rows.astype(idx), cols.astype(idx),
                           vals, indptr, indices, data)
    if not _sparsetools.csr_has_sorted_indices(n, indptr, indices):
        _sparsetools.csr_sort_indices(n, indptr, indices, data)
    _sparsetools.csr_sum_duplicates(n, n, indptr, indices, data)
    return indptr, indices[:indptr[-1]], data[:indptr[-1]]

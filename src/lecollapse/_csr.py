"""SciPy's CSR matrix-vector kernel, called without the operator dispatch."""

from functools import partial

from scipy.sparse import _sparsetools


def bind_matvec(g):
    """The kernel behind ``g @ x`` for a CSR matrix g, bound to g: call (x, y).

    It adds g x into y, so y starts at zero to match ``g @ x``, which
    fills a zeroed result the same way. The kernel's type is g's dtype,
    real or complex, and x and y must have it too. Skipping the operator
    dispatch of ``@`` is what keeps a small matvec cheap.
    """
    return partial(_sparsetools.csr_matvec, *g.shape, g.indptr, g.indices,
                   g.data)

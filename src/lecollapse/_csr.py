"""SciPy's CSR matrix-vector kernel, called without the operator dispatch.

The kernel is imported inside ``bind_matvec``, not with this module, so
importing lecollapse loads numpy alone; ``scipy.sparse`` loads at the first
operator build, which only the ``wave``, ``fp``, ``exact`` and ``compare``
modes and seeded (advancing-field) ``collapse`` and ``sweep`` runs do.
"""

from functools import partial


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

"""The package's layers as the benchmark sees them: which public functions
to wrap, what to count at each boundary, and matrix helpers.

Span names are ``<module>.<function>``; the boundary functions of
``cayley`` share the span ``cayley.boundary`` and both canonicalisation
entry points share ``colouring.canonicalize``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph


def as_sparse(M) -> scipy.sparse.csr_matrix:
    """CSR view of a restriction, whatever container the package returns."""
    if scipy.sparse.issparse(M):
        return scipy.sparse.csr_matrix(M)
    if isinstance(M, np.ndarray):
        return scipy.sparse.csr_matrix(M)
    if hasattr(M, "data"):
        return as_sparse(M.data)
    return scipy.sparse.csr_matrix(M.to_dense())


def as_dense(M) -> np.ndarray:
    if isinstance(M, np.ndarray):
        return np.asarray(M, dtype=np.float64)
    return as_sparse(M).toarray()


def _spectrum_counts(tracer, args, kwargs, out) -> None:
    c = tracer.counts
    c["colouring.occurring_pattern_spectrum.classes"] += len(out)
    c["colouring.occurring_pattern_spectrum.positions"] += sum(e.count for e in out.values())


def _operator_counts(tracer, args, kwargs, out) -> None:
    S = as_sparse(out)
    tracer.counts["operators.rows"] += S.shape[0]
    tracer.counts["operators.nnz"] += S.count_nonzero()


def _eigen_counts(tracer, args, kwargs, out) -> None:
    S = as_sparse(args[0] if args else kwargs["M"])
    n = S.shape[0]
    if n == 0:
        return
    c = tracer.counts
    c["spectra.dim_max"] = max(c["spectra.dim_max"], n)
    c["spectra.n3_sum"] += float(n) ** 3
    ncomp, labels = scipy.sparse.csgraph.connected_components(S, directed=False)
    c["spectra.components"] += ncomp
    c["spectra.largest_block"] = max(c["spectra.largest_block"], int(np.bincount(labels).max()))


# (module, attribute, span name, counter)
TARGETS = [
    ("cayley", "boundary", "cayley.boundary", None),
    ("cayley", "boundary_int", "cayley.boundary", None),
    ("cayley", "boundary_ext", "cayley.boundary", None),
    ("cayley", "boundary_size", "cayley.boundary", None),
    ("cayley", "boundary_int_size", "cayley.boundary", None),
    ("cayley", "shrink", "cayley.shrink", None),
    ("cayley", "admissible_positions", "cayley.admissible_positions", None),
    ("cayley", "folner_set", "cayley.folner_set", None),
    ("colouring", "restrict", "colouring.restrict", None),
    ("colouring", "canonicalize", "colouring.canonicalize", None),
    ("colouring", "canonicalize_with_shift", "colouring.canonicalize", None),
    ("colouring", "count_occurrences", "colouring.count_occurrences", None),
    ("colouring", "occurring_pattern_spectrum", "colouring.occurring_pattern_spectrum", _spectrum_counts),
    ("colouring", "frequency_deviation", "colouring.frequency_deviation", None),
    ("operators", "restrict_operator", "operators.restrict_operator", _operator_counts),
    ("spectra", "eigenvalues", "spectra.eigenvalues", _eigen_counts),
    ("spectra", "counting_function", "spectra.counting_function", None),
    ("ergodic", "sup_distance", "ergodic.sup_distance", None),
    ("ids", "ids_approximant", "ids.ids_approximant", None),
    ("ids", "ids_certificate", "ids.ids_certificate", None),
]

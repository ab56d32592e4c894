"""Vertex-count caps of the dense routes, defined once for every module."""

# Pairwise mixing holds the kernel rows of the starts it keeps (keep x m,
# about a third of the rows at the desk preset's probe times) and bounds
# every pair among them: memory and time grow with m^2 and faster.
PAIRWISE_CAP = 5000
# `Chain.eigensystem`, the dense m x m eigendecomposition of S, is refused
# above this many vertices; a chain whose sparse solves certify runs at any size.
MATRIX_HARD_CAP = 12000
# Spectral gap: a size label only, method "dense" up to here and "iterative"
# above; the gap is certified at every size.
DENSE_CAP = 5000
# At or below this many vertices the dense eigendecomposition of S costs less
# than a sparse eigensolve; above it the sparse solve answers, dense falls back.
SPARSE_EIGEN_MIN = 256

"""Vertex-count caps of the dense routes, defined once for every module."""

# Pairwise mixing holds every start's transient distribution: an m x m kernel.
PAIRWISE_CAP = 5000
# No dense m x m kernel matrix is built above this many vertices.
MATRIX_HARD_CAP = 12000
# Spectral gap: certified (or dense) up to here, uncertified Lanczos above.
DENSE_CAP = 5000
# At or below this many vertices the dense eigendecomposition of S costs less
# than a sparse eigensolve; above it the sparse solve answers, dense falls back.
SPARSE_EIGEN_MIN = 256

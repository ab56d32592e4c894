"""Vertex-count caps of the dense routes, defined once for every module."""

# Pairwise mixing holds every start's transient distribution: an m x m kernel.
PAIRWISE_CAP = 5000
# No dense m x m kernel matrix is built above this many vertices.
MATRIX_HARD_CAP = 12000
# Eigensolver switch: dense eigendecomposition up to here, Lanczos above.
DENSE_CAP = 5000

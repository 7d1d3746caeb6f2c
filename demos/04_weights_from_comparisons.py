"""Derive criterion weights from a pairwise comparison matrix.

Entry (i, j) says how many times more important criterion i is than
criterion j. The dominant eigenvector of such a matrix is the classic
importance prior; the consistency ratio flags self-contradictory
judgements (rule of thumb: CR above 0.1 deserves a second look).
"""

import numpy as np

from netselect import PairwiseMatrix, principal_eigenvector

# Delay matters most, then packet loss; bandwidth, energy, and cost trail.
judgements = PairwiseMatrix(
    [
        [1.0, 1 / 7, 1 / 5, 1.0, 1.0],
        [7.0, 1.0, 2.0, 7.0, 7.0],
        [5.0, 1 / 2, 1.0, 5.0, 5.0],
        [1.0, 1 / 7, 1 / 5, 1.0, 1.0],
        [1.0, 1 / 7, 1 / 5, 1.0, 1.0],
    ]
)
derivation = principal_eigenvector(judgements)
print("weights:            ", tuple(round(w, 4) for w in derivation.weights))
print("principal eigenvalue:", round(derivation.principal_eigenvalue, 6))
print("consistency ratio:   ", round(derivation.consistency_ratio, 6))
print("iterations:          ", derivation.iterations)

# Sanity check the machinery: a matrix built from known priorities
# (entry i,j = p_i / p_j) is perfectly consistent and must return them.
target = np.array([0.30, 0.25, 0.20, 0.15, 0.10])
recovered = principal_eigenvector(PairwiseMatrix.from_priorities(target))
print("\nconstruct-then-recover:")
print("  target:   ", tuple(float(x) for x in target))
print("  recovered:", tuple(round(w, 12) for w in recovered.weights))
print("  eigenvalue:", round(recovered.principal_eigenvalue, 9), "(matrix size 5)")
print("  CR:", recovered.consistency_ratio)

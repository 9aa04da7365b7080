"""stretchkit: stretching maps for even-order square tensors.

Tensors indexed by a finite subset of Z^l are flattened to labelled matrices
through an integer-valued index map; non-injective maps fold equivalence
classes together, turning matricization into a family of representations
with a convolution product, a class-averaging projection and closed-form
Jordan types for stretched Kronecker products.
"""

from .errors import (DimensionError, DomainError, ParseError,
                     PermutationDomainError, StretchkitError, VariantError)
from .indexing import (ClassPartition, IndexMap, IndexSet, Permutation,
                       enumerate_z, enumerate_z_inverse)
from .jordan import (JordanOracleResult, JordanSpec, explicit_pair_matrix,
                     jordan_block, jordan_nfold, jordan_oracle, jordan_pair,
                     jordan_product, nfold_eigenvalues, nfold_oracle,
                     nfold_product_matrix, spec_matrix)
from .linalg import (DenseMatrix, DenseVector, det, inverse, kron, mat_mul,
                     mat_vec, nullity_sequence, permutation_matrix, rank)
from .scalars import CF64, GQ, GaussianRational, close, gq
from .stretching import (SimilarityWitness, check_tp_witness, kappa,
                         kernel_preservation_check, permute_stretch, stretch,
                         stretch_vector, tp_similarity_witness,
                         verify_averaging_decomposition)
from .tensors import (Tensor, TensorVector, act, average, convolve,
                      identity_tensor, pure_tensor, star, tensors_close)
from .verify import SUITE_NAMES, run_suite

__version__ = "0.1.0"

__all__ = [
    "CF64", "GQ", "GaussianRational", "gq", "close",
    "DenseMatrix", "DenseVector", "det", "inverse", "kron", "mat_mul",
    "mat_vec", "nullity_sequence", "permutation_matrix", "rank",
    "ClassPartition", "IndexMap", "IndexSet", "Permutation",
    "enumerate_z", "enumerate_z_inverse",
    "Tensor", "TensorVector", "act", "average", "convolve",
    "identity_tensor", "pure_tensor", "star", "tensors_close",
    "SimilarityWitness", "check_tp_witness", "kappa",
    "kernel_preservation_check", "permute_stretch", "stretch",
    "stretch_vector", "tp_similarity_witness", "verify_averaging_decomposition",
    "JordanOracleResult", "JordanSpec", "explicit_pair_matrix", "jordan_block",
    "jordan_nfold", "jordan_oracle", "jordan_pair", "jordan_product",
    "nfold_eigenvalues", "nfold_oracle", "nfold_product_matrix", "spec_matrix",
    "SUITE_NAMES", "run_suite",
    "StretchkitError", "VariantError", "DimensionError", "DomainError",
    "PermutationDomainError", "ParseError",
    "__version__",
]

"""Every kernel, given operands from either side of the stretch, returns or
raises a StretchkitError; none reads an attribute the operand lacks."""
from hypothesis import given, settings
from hypothesis import strategies as st

from stretchkit.errors import StretchkitError
from stretchkit.indexing import IndexMap, IndexSet
from stretchkit.jordan import jordan_oracle
from stretchkit.linalg import (DenseMatrix, DenseVector, det, inverse, kron, mat_mul,
                               mat_vec, nullity_sequence, rank)
from stretchkit.scalars import CF64, GQ
from stretchkit.stretching import (SimilarityWitness, check_tp_witness, kappa, stretch,
                                   stretch_vector)
from stretchkit.tensors import Tensor, TensorVector, act, average, convolve, pure_tensor, star

DOMAINS = (IndexSet.rectangular((2, 2)), IndexSet.rectangular((1,)))


def operand(family, kind, domain):
    """An operand of ``family`` with |A| rows, and |A| columns or one."""
    n = len(domain)
    cols = 1 if family in (TensorVector, DenseVector) else n
    data = [k % 3 + 1 for k in range(n * cols)]  # an invertible n x n matrix
    if family in (Tensor, TensorVector):
        return family(domain, kind, data)
    return DenseVector(kind, n, data) if cols == 1 else DenseMatrix(kind, n, n, data)


CALLS = {
    "mat_mul": lambda a, b, f: mat_mul(a, b),
    "mat_vec": lambda a, b, f: mat_vec(a, b),
    "kron": lambda a, b, f: kron(a, b),
    "det": lambda a, b, f: det(a),
    "inverse": lambda a, b, f: inverse(a),
    "rank": lambda a, b, f: rank(a),
    "nullity_sequence": lambda a, b, f: nullity_sequence(a, 1, 2),
    "jordan_oracle": lambda a, b, f: jordan_oracle(a, [0, 1]),
    "pure_tensor": lambda a, b, f: pure_tensor([a, b]),
    "check_tp_witness": lambda a, b, f: check_tp_witness(f, SimilarityWitness((0,), a)),
    "stretch": lambda a, b, f: stretch(a, f),
    "stretch_vector": lambda a, b, f: stretch_vector(a, f),
    "act": lambda a, b, f: act(a, b, f),
    "convolve": lambda a, b, f: convolve(a, b, f),
    "average": lambda a, b, f: average(a, f),
    "kappa": lambda a, b, f: kappa(a, f),
    "star": lambda a, b, f: star(a),
}
operands = st.builds(operand, st.sampled_from((Tensor, TensorVector, DenseMatrix, DenseVector)),
                     st.sampled_from((GQ, CF64)), st.sampled_from(DOMAINS))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CALLS)), operands, operands, st.sampled_from(DOMAINS))
def test_kernels_return_or_raise_a_library_error(name, a, b, map_domain):
    try:
        CALLS[name](a, b, IndexMap.max_coord(map_domain))
    except StretchkitError:
        pass


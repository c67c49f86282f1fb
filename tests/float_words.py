"""float64 bit patterns for tests that compare two computations bit for
bit, as hypothesis strategies over 64-bit words."""

import numpy as np
from hypothesis import strategies as st

# signed zeros, subnormals, infinities, and quiet and signalling NaNs of
# either sign with payloads
EDGE_WORDS = [0x0000000000000000, 0x8000000000000000,
              0x0000000000000001, 0x800FFFFFFFFFFFFF,
              0x7FF0000000000000, 0xFFF0000000000000,
              0x7FF8000000000000, 0xFFF8000000000000,
              0x7FF0000000000001, 0xFFF8000000000123]
WORDS = st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2 ** 64 - 1))
# Where both operands of one operation are NaN, which of the two comes
# out is the choice of numpy's inner loop (or BLAS's kernel), and the
# loops for a broadcast, a column and a gemv choose differently.  So a
# test draws one operand of each rewritten operation from NOT_NAN: the
# other's NaNs, with their signs and payloads, must come through.
NOT_NAN = WORDS.filter(
    lambda w: (w >> 52) & 0x7FF != 0x7FF or w & (2 ** 52 - 1) == 0)


def from_words(data, shape, words=WORDS):
    """A float64 array of the given shape drawn word by word."""
    count = int(np.prod(shape))
    drawn = data.draw(st.lists(words, min_size=count, max_size=count))
    return np.array(drawn, dtype=np.uint64).view(np.float64).reshape(shape)


def same_bits(got, want):
    return got.shape == want.shape \
        and got.view(np.int64).tolist() == want.view(np.int64).tolist()

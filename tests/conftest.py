import random

import pytest

from cssbalance import BitMatrix, ChainComplex


# Chunks of a few bytes hold one row or a few, so every row boundary is
# also a chunk boundary somewhere.
SMALL_CHUNKS = [1, 4, 9, 23]


def rand_matrix(rng: random.Random, rows: int, cols: int) -> BitMatrix:
    return BitMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


def rand_valid_complex(rng: random.Random, max_terms: int = 3, max_dim: int = 8) -> ChainComplex:
    """Random complex with zero composites by construction: each higher
    differential maps into the kernel of the one below it."""
    terms = rng.randint(1, max_terms)
    dims = [rng.randint(0, max_dim) for _ in range(terms)]
    spaces = list(dims)  # highest grade first
    diffs = []
    below = None  # the differential leaving the grade under construction
    for i in range(terms - 2, -1, -1):
        rows, cols = spaces[i + 1], spaces[i]
        if below is None:
            d = rand_matrix(rng, rows, cols)
        else:
            kernel = below.kernel_basis()
            vals = []
            for _ in range(cols):
                v = 0
                for b in kernel:
                    if rng.getrandbits(1):
                        v ^= b
                vals.append(v)
            d = BitMatrix(cols, rows, vals).transpose()
        diffs.insert(0, d)
        below = d
    return ChainComplex(spaces, diffs)


@pytest.fixture
def rng():
    return random.Random(20240811)

"""Dense mod-p row reduction in numpy.

Its one caller is linalg._rref_modp_dense, an oracle for the tests.
Entries are int64 in [0, p); products of two reduced entries must fit
in int64, so p < 2**31.
"""

import numpy as np


def rref_mod_p(a: np.ndarray, p: int) -> int:
    """In-place reduced row echelon form of a over F_p; returns the rank.

    After the call the first `rank` rows are the RREF rows and the pivot
    column of row i is the first nonzero column of row i.
    """
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + nz[0]
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        coeffs = a[:, c].copy()
        coeffs[r] = 0
        a -= np.outer(coeffs, a[r])
        a %= p
        r += 1
    return r


def backend_name() -> str:
    return "numpy"

"""The Jacobi check as it stood up to rank 4, kept as a test oracle.

It streams every one of the dim^3 basis triples (x, y, z) and sums the three
cyclic double brackets with `bracket_keys`.
`ChevalleyBasisTable.verify_jacobi` now checks antisymmetry and
ad[x, y] = [ad x, ad y] for the generators x = e_{+-a_i} at every rank; the
property in `test_chevalley.py` holds the two to the same verdict on mutated
tables.
"""
import itertools


def reference_jacobi(table) -> bool:
    """True when the Jacobi identity holds on every basis triple of the table."""
    keys = table.basis_keys()
    for x, y, z in itertools.product(keys, repeat=3):
        total: dict = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            for k1, c1 in table.bracket_keys(b, c).items():
                for k, v in table.bracket_keys(a, k1).items():
                    total[k] = total.get(k, 0) + c1 * v
        if any(total.values()):
            return False
    return True

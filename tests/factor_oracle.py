"""Integer factorization by trial division, as `rings.factorize` stood before
it split large cofactors with Pollard's rho, kept as a test oracle.  The test
in `test_rings.py` holds the two to the same ascending lists."""
from chevlab.rings import is_prime


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, ascending primes; stops as soon
    as the remaining cofactor is prime."""
    out = []
    d = 2
    while n > 1 and not is_prime(n):
        while n % d:
            d += 1 if d == 2 else 2
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        out.append((d, k))
    if n > 1:
        out.append((n, 1))
    return out

"""Euler's totient, which :mod:`surfbraid.invariants` reads."""


def totient(d: int) -> int:
    """Euler's phi; only an exact ``int`` >= 1 passes: bools, floats and
    strings are rejected, never coerced."""
    if type(d) is not int or d < 1:
        raise ValueError(f"the totient's argument must be an integer >= 1, got {d!r}")
    result, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result

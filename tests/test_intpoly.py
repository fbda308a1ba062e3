import re

import pytest

from surfbraid.intpoly import totient


@pytest.mark.parametrize("d", [True, 2.0, "2", 0, -1])
def test_indices_are_rejected_never_coerced(d):
    with pytest.raises(ValueError, match=f"must be an integer >= 1, got {re.escape(repr(d))}$"):
        totient(d)


def test_totient():
    assert [totient(d) for d in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]

import pytest

from catalan_lab import D, U, Path, raney_shift


def reference_draw(n, rng):
    """The Dyck sampler's draw, written out from its documented method.

    2n + 1 fair bits come from one ``getrandbits``, most significant first, a
    1 for U. While the U are not n + 1, a position j < 2n + 1 is drawn by
    ``getrandbits`` of the bit length of 2n + 1 (drawn again while too
    large) and set to D when there are too many U, or to U when too few.
    The cycle lemma cuts the path from the arrangement.
    """
    size = 2 * n + 1
    bits = bin(rng.getrandbits(size))[2:].rjust(size, "0")
    arrangement = [U if bit == "1" else D for bit in bits]
    ups = arrangement.count(U)
    while ups != n + 1:
        j = rng.getrandbits(size.bit_length())
        if j >= size:
            continue
        step = D if ups > n + 1 else U
        if arrangement[j] != step:
            arrangement[j] = step
            ups += step
    r = raney_shift(arrangement)
    return Path(tuple(arrangement[r:] + arrangement[: r - 1]))


@pytest.fixture(name="reference_draw")
def reference_draw_fixture():
    return reference_draw

import pytest

from coxcat.core import SetPartition, ValidationError
from coxcat.signed import (
    SignedPartition,
    compose_triple,
    count_signed,
    decompose_triple,
    enumerate_signed,
    involutions,
    maximal_matchings,
    signed_type,
    stirling2,
    zero_block_size,
)

sp = SetPartition.from_blocks
EXAMPLE = [[1, -3, 6], [-1, 3, -6], [2, 4, -2, -4], [5, 8], [-5, -8], [7], [-7]]


def test_validate_example():
    p = SignedPartition.from_blocks(EXAMPLE)
    assert p.zero_block() == (-4, -2, 2, 4)
    assert p.n == 8
    assert p.blocks[0] == (-3, 1, 6)  # positive representative listed first


@pytest.mark.parametrize(
    "blocks",
    [
        [[1, -1], [2, -2]],
        [[1, -3, 6], [2, -2]],
        [[1, 2], [-1, -2], [1, -1]],
        [[1], [-2]],
    ],
)
def test_validate_rejects(blocks):
    with pytest.raises(ValidationError):
        SignedPartition.from_blocks(blocks)


@pytest.mark.parametrize("blocks, n", [([], -2), ([], -1), ([[1], [-1]], -1)])
def test_validate_rejects_negative_n(blocks, n):
    with pytest.raises(ValidationError, match=r"^n must be >= 0$"):
        SignedPartition.from_blocks(blocks, n)


def test_validate_accepts_plain_mirror():
    p = SignedPartition.from_blocks([[1, 2], [-1, -2], [3, -3]])
    assert p.zero_block() == (-3, 3)


def test_decompose_example():
    d = decompose_triple(SignedPartition.from_blocks(EXAMPLE))
    assert d.alpha == sp([[1, 6], [2, 4], [3], [5, 8], [7]])
    assert d.beta == ((3,), (2, 4), (1, 6))
    assert d.gamma == (((3,), (1, 6)),)
    assert d.gamma0 == (((3,), (1, 6)), ((0,), (2, 4)))


def test_decompose_no_mixed_blocks():
    d = decompose_triple(SignedPartition.from_blocks([[1], [-1], [2], [-2]]))
    assert d.alpha == sp([[1], [2]])
    assert d.beta == () and d.gamma == () and d.gamma0 == ()


def test_compose_examples():
    d = decompose_triple(SignedPartition.from_blocks(EXAMPLE))
    assert compose_triple(d.alpha, d.beta, d.gamma) == SignedPartition.from_blocks(EXAMPLE)
    assert compose_triple(sp([[1], [2]]), (), ()) == SignedPartition.from_blocks([[1], [-1], [2], [-2]])
    assert compose_triple(sp([[1]]), ((1,),), ()) == SignedPartition.from_blocks([[1, -1]])


def test_compose_validates():
    sigma = sp([[1], [2], [3]])
    with pytest.raises(ValidationError):
        compose_triple(sigma, ((1, 2),), ())
    with pytest.raises(ValidationError):
        compose_triple(sigma, ((1,), (2,), (3,)), ())  # two unmatched blocks
    with pytest.raises(ValidationError):
        compose_triple(sigma, ((1,),), (((2,), (3,)),))


def test_maximal_matchings_counts():
    blocks = [(i,) for i in range(1, 5)]
    assert sum(1 for _ in maximal_matchings(blocks)) == 3
    assert sum(1 for _ in maximal_matchings(blocks[:3])) == 3
    assert list(maximal_matchings([])) == [()]


def test_counting_formula():
    assert [count_signed(n) for n in range(1, 7)] == [2, 6, 24, 116, 648, 4088]
    assert stirling2(6, 3) == 90
    assert involutions(7) == 232


def test_count_signed_domain():
    assert count_signed(0) == 1 == sum(1 for _ in enumerate_signed(0))
    with pytest.raises(ValidationError):
        count_signed(-1)


def test_enumerate_n1():
    got = set(enumerate_signed(1))
    assert got == {SignedPartition.from_blocks([[1], [-1]]), SignedPartition.from_blocks([[1, -1]])}


def test_signed_type():
    p = SignedPartition.from_blocks(EXAMPLE)
    assert signed_type(p) == (3, 2, 1)
    assert zero_block_size(p) == 4

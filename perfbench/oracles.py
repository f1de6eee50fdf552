"""Benchmark-owned inputs and oracles: nothing here imports coxcat.

Random noncrossing partitions come from uniform random Dyck paths (cycle
lemma), read two steps per element: NN opens a block, EN adds to the
innermost open block, EE closes it and NE is a singleton.  Counts are the
closed forms of the paper, computed here with ``math.comb``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

# ---------------------------------------------------------------------------
# Inputs


def random_dyck(rng, n: int) -> list[int]:
    """A uniform Dyck path of semilength n as +1/-1 steps (cycle lemma)."""
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    s, low, at = 0, 1, 0
    for i, x in enumerate(steps, 1):
        s += x
        if s < low:
            low, at = s, i
    rotated = steps[at:] + steps[:at]
    return rotated[:-1]


def random_nc(rng, n: int) -> list[list[int]]:
    """A uniform random noncrossing partition of [n], canonical blocks."""
    path = random_dyck(rng, n)
    stack: list[list[int]] = []
    done: list[list[int]] = []
    for i in range(1, n + 1):
        a, b = path[2 * i - 2], path[2 * i - 1]
        if a > 0 and b < 0:
            done.append([i])
        elif a > 0:
            stack.append([i])
        elif b > 0:
            stack[-1].append(i)
        else:
            blk = stack.pop()
            blk.append(i)
            done.append(blk)
    return sorted(done)


def nonnested(blocks) -> list[list[int]]:
    """Blocks under no edge of another block, sorted by maximum."""
    edges = [(b[i], b[i + 1]) for b in blocks for i in range(len(b) - 1)]
    out = [b for b in blocks if not any(i < b[0] and b[-1] < j for i, j in edges)]
    return sorted(out, key=lambda b: b[-1])


def random_marked(rng, n: int) -> dict:
    """A marked pair as JSON: each nonnested block marked with probability 1/2."""
    blocks = random_nc(rng, n)
    marked = [list(b) for b in nonnested(blocks) if rng.random() < 0.5]
    return {"sigma": {"n": n, "blocks": blocks}, "marked": marked}


# ---------------------------------------------------------------------------
# Counts


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def involutions(n: int) -> int:
    a, b = 1, 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b


def family_count(family: str, n: int) -> int:
    if family in ("nc_a", "nn_a"):
        return catalan(n)
    if family in ("nc_b", "nn_b", "nn_c"):
        return math.comb(2 * n, n)
    if family in ("nc_d", "nn_d"):
        return (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n
    if family == "pi_b":
        return sum(stirling2(n, k) * involutions(k + 1) for k in range(1, n + 1))
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Membership of samples


def _mirror(b) -> tuple[int, ...]:
    return tuple(sorted(-x for x in b))


def signed_valid(blocks, n: int) -> bool:
    """Blocks partition +-[n], are closed under negation, at most one zero block."""
    elems = sorted(x for b in blocks for x in b)
    if elems != [x for x in range(-n, n + 1) if x]:
        return False
    canon = {tuple(sorted(b)) for b in blocks}
    if any(_mirror(b) not in canon for b in canon):
        return False
    return sum(1 for b in canon if _mirror(b) == b) <= 1


def zero_block(blocks):
    for b in blocks:
        if _mirror(b) == tuple(sorted(b)):
            return tuple(sorted(b))
    return None


def arcs_nest(blocks, order) -> bool:
    """Two arcs of the standard representation nest, positions read in ``order``."""
    pos = {x: i for i, x in enumerate(order)}
    arcs = []
    for b in blocks:
        q = sorted(pos[x] for x in b)
        arcs.extend(zip(q, q[1:]))
    return any(a < c < d < b or c < a < b < d for (a, b), (c, d) in itertools.combinations(arcs, 2))


def in_family(family: str, blocks, n: int, pattern_free) -> bool:
    """Membership of one sample member; ``pattern_free`` is the crossing oracle.

    The nonnesting families use the arc test here: ``pattern_free``'s nesting
    pattern (two elements of one block between two of another) is stricter.
    The D families are checked for their zero-block condition only.
    """
    pos = tuple(range(1, n + 1))
    neg_up = tuple(-i for i in range(1, n + 1))
    neg_down = tuple(-i for i in range(n, 0, -1))
    if family == "nc_a":
        return pattern_free(blocks, pos, "crossing")
    if family == "nn_a":
        return not arcs_nest(blocks, pos)
    if not signed_valid(blocks, n):
        return False
    if family == "nc_b":
        return pattern_free(blocks, pos + neg_up, "crossing")
    if family == "nn_c":
        return not arcs_nest(blocks, pos + neg_down)
    if family == "nn_b":
        z = zero_block(blocks)
        with_zero = [tuple(b) + ((0,) if tuple(sorted(b)) == z else ()) for b in blocks]
        if z is None:
            with_zero.append((0,))
        return not arcs_nest(with_zero, pos + (0,) + neg_down)
    if family in ("nc_d", "nn_d"):
        z = zero_block(blocks)
        return z is None or (n in z and -n in z)
    return family == "pi_b"


# ---------------------------------------------------------------------------
# Map outputs


def signed_type(blocks) -> tuple[int, ...]:
    """Sizes of the nonzero mirror pairs of blocks, weakly decreasing."""
    seen, sizes = set(), []
    for b in blocks:
        t, m = tuple(sorted(b)), _mirror(b)
        if t == m or t in seen:
            continue
        seen.add(m)
        sizes.append(len(t))
    return tuple(sorted(sizes, reverse=True))


def block_sizes(blocks) -> list[int]:
    return sorted(len(b) for b in blocks)


def rho_image_ok(src_blocks, img_blocks) -> bool:
    """Same block maxima and sizes, and no two arcs nest."""
    profile = sorted((b[-1], len(b)) for b in src_blocks)
    if sorted((max(b), len(b)) for b in img_blocks) != profile:
        return False
    n = sum(len(b) for b in img_blocks)
    return not arcs_nest(img_blocks, range(1, n + 1))

"""Integer partitions, Young diagram statistics, and triples of partitions.

A partition is a plain tuple of weakly decreasing positive integers; () is
the empty partition.  Diagram convention, fixed once for the whole package:
row i of the diagram carries parts[i] boxes and rows are drawn bottom up, so
a box is addressed as (row, col) with 0-based indices and col < parts[row].
The leg of a box counts the boxes strictly to its right in the same row; the
arm counts the boxes strictly above it in the same column, i.e. in rows with
larger index.  The opposite naming is also in circulation; all weight
formulas downstream assume the convention stated here.
"""


def check_partition(p) -> tuple:
    """Normalize p to a tuple and verify it is a valid partition."""
    p = tuple(p)
    for i, part in enumerate(p):
        if not isinstance(part, int) or part < 1:
            raise ValueError("parts must be positive integers, got %r" % (part,))
        if i and p[i - 1] < part:
            raise ValueError("parts must be weakly decreasing: %r" % (p,))
    return p


def enumerate_partitions(n: int) -> list:
    """All partitions of n, in lexicographically decreasing order.

    The order is part of the contract: downstream enumeration of fixed
    points relies on it being deterministic.
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    return _partitions(n, n)


def _partitions(n: int, max_part: int) -> list:
    # the partitions of n with no part above max_part
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(max_part, n), 0, -1)
            for rest in _partitions(n - first, first)]


def boxes(p):
    """Yield the boxes of the diagram of p as (row, col) pairs."""
    for row, width in enumerate(p):
        for col in range(width):
            yield (row, col)


def _require_box(p, row, col):
    if row < 0 or col < 0 or row >= len(p) or col >= p[row]:
        raise ValueError("box (%d, %d) is not in the diagram of %r" % (row, col, p))


def leg(p, b) -> int:
    """Number of boxes of p strictly to the right of b in its row."""
    row, col = b
    _require_box(p, row, col)
    return p[row] - col - 1


def arm(p, b) -> int:
    """Number of boxes of p strictly above b in its column.

    "Above" means rows with larger index; parts are weakly decreasing, so
    these are the later, shorter rows.
    """
    row, col = b
    _require_box(p, row, col)
    return sum(1 for r in range(row + 1, len(p)) if p[r] > col)


def hooks(p) -> list:
    """(arm, leg) of every box of p, in boxes(p) order, read off the
    conjugate partition in O(|p|): the box (row, col) has arm
    conj[col] - row - 1 and leg p[row] - col - 1."""
    conj = [0] * (p[0] if p else 0)
    for width in p:
        for col in range(width):
            conj[col] += 1
    return [(conj[col] - row - 1, width - col - 1)
            for row, width in enumerate(p) for col in range(width)]


def enumerate_triples(n: int) -> list:
    """All triples (p1, p2, p3) of partitions with |p1|+|p2|+|p3| = n.

    Ordered by (|p1|, |p2|) ascending, then by the enumerate_partitions
    order within each size slot.
    """
    if n < 0:
        raise ValueError("total size must be nonnegative")
    out = []
    for n1 in range(n + 1):
        parts1 = enumerate_partitions(n1)
        for n2 in range(n - n1 + 1):
            parts2 = enumerate_partitions(n2)
            parts3 = enumerate_partitions(n - n1 - n2)
            for p1 in parts1:
                for p2 in parts2:
                    for p3 in parts3:
                        out.append((p1, p2, p3))
    return out

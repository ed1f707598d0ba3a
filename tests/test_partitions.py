"""Partition enumeration and combinatorics, checked against routes the
package does not use: the pentagonal-number recurrence for counts, an
ascending-composition generator for content, and diagram transposition for
the arm/leg statistics."""

import math

import pytest

from sheafcount.partitions import (
    arm,
    boxes,
    check_partition,
    enumerate_partitions,
    enumerate_triples,
    hooks,
    leg,
)


def pentagonal_counts(top):
    # p(n) via Euler's recurrence, nothing shared with the enumerator
    p = [1] + [0] * top
    for n in range(1, top + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sgn = -1 if k % 2 == 0 else 1
            total += sgn * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sgn * p[n - k * (3 * k + 1) // 2]
            k += 1
        p[n] = total
    return p


def ascending_partitions(n, least=1):
    # partitions built smallest-part-first, yielded in package order only
    # after sorting; a different construction than the library's
    if n == 0:
        yield ()
        return
    for part in range(least, n + 1):
        for rest in ascending_partitions(n - part, part):
            yield rest + (part,)


def conjugate(p):
    if not p:
        return ()
    cols = max(p)
    return tuple(sum(1 for part in p if part > c) for c in range(cols))


PCOUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_counts_match_pentagonal_recurrence():
    assert pentagonal_counts(12) == PCOUNTS
    assert enumerate_partitions(0) == [()]
    for n in range(13):
        assert len(enumerate_partitions(n)) == PCOUNTS[n]


def test_content_matches_independent_generator():
    for n in range(11):
        ours = set(enumerate_partitions(n))
        theirs = {tuple(sorted(q, reverse=True)) for q in ascending_partitions(n)}
        assert ours == theirs


def test_enumeration_order_is_strictly_decreasing_lex():
    for n in range(1, 10):
        ps = enumerate_partitions(n)
        assert all(a > b for a, b in zip(ps, ps[1:]))


def test_check_partition_rejects_garbage():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))
    with pytest.raises(ValueError):
        check_partition((2, -1))
    assert check_partition([3, 1]) == (3, 1)


def test_boxes_count():
    for n in range(8):
        for p in enumerate_partitions(n):
            assert sum(1 for _ in boxes(p)) == n


# frozen by hand from the diagram: rows listed bottom-up, arm counts boxes
# strictly above, leg boxes strictly to the right
def test_armleg_frozen_examples():
    assert arm((2, 1), (0, 0)) == 1
    assert leg((2, 1), (0, 0)) == 1
    assert arm((2, 1), (0, 1)) == 0
    assert leg((2, 1), (0, 1)) == 0
    assert arm((2, 1), (1, 0)) == 0
    assert leg((2, 1), (1, 0)) == 0
    assert arm((3,), (0, 0)) == 0
    assert leg((3,), (0, 0)) == 2


def test_armleg_transposition_duality():
    for n in range(1, 9):
        for p in enumerate_partitions(n):
            q = conjugate(p)
            assert sum(q) == n
            for (r, c) in boxes(p):
                assert arm(p, (r, c)) == leg(q, (c, r))
                assert leg(p, (r, c)) == arm(q, (c, r))


def test_armleg_bounded_by_hook():
    for p in enumerate_partitions(7):
        for b in boxes(p):
            assert arm(p, b) + leg(p, b) + 1 <= 7


def test_hooks_are_arm_and_leg_box_by_box():
    # hooks reads the conjugate partition, arm and leg scan the diagram
    for n in range(13):
        for p in enumerate_partitions(n):
            assert hooks(p) == [(arm(p, b), leg(p, b)) for b in boxes(p)]


def test_armleg_reject_outside_box():
    with pytest.raises(ValueError):
        arm((2, 1), (0, 2))
    with pytest.raises(ValueError):
        leg((2, 1), (2, 0))


def triple_count_series(top):
    # coefficients of the cube of the partition generating function
    p = pentagonal_counts(top)
    conv = [sum(p[i] * p[n - i] for i in range(n + 1)) for n in range(top + 1)]
    return [sum(conv[i] * p[n - i] for i in range(n + 1)) for n in range(top + 1)]


def test_triple_counts_match_series_cube():
    want = triple_count_series(9)
    for n in range(10):
        ts = enumerate_triples(n)
        assert len(ts) == want[n]
        assert all(sum(map(sum, t)) == n for t in ts)


def test_triple_order_groups_by_first_two_sizes():
    for n in range(6):
        keys = [(sum(a), sum(b)) for (a, b, _) in enumerate_triples(n)]
        assert keys == sorted(keys)


def test_triples_distinct():
    for n in range(7):
        ts = enumerate_triples(n)
        assert len(set(ts)) == len(ts)

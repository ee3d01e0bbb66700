"""Partition core: canonical form, enumeration, and the diagram operations."""

from __future__ import annotations

import copy
import dataclasses
import gc
import math
import pickle
import time
import tracemalloc
import weakref
from itertools import combinations
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgram.errors import RotationUndefined, ShapeError
from ncgram.partitions import (
    Corner,
    Partition,
    PartitionClass,
    _canonical,
    _enumerate,
    compose,
    count_partitions,
    enumerate_partitions,
    involution,
    is_noncrossing,
    iter_partitions,
    kernel,
    mirror,
    refines,
    rotate,
    tensor,
)

ALL = PartitionClass.ALL
NC = PartitionClass.NONCROSSING
NC2 = PartitionClass.NONCROSSING_PAIRS

# ---------------------------------------------------------------------------
# independent oracles


def catalan_numbers(n_max: int) -> list[int]:
    """C_0..C_{n_max} by the convolution recurrence (independent of the library)."""
    c = [1]
    for n in range(n_max):
        c.append(sum(c[i] * c[n - i] for i in range(n + 1)))
    return c


def bell_numbers(n_max: int) -> list[int]:
    b = [1]
    for n in range(n_max):
        b.append(sum(math.comb(n, j) * b[j] for j in range(n + 1)))
    return b


def crossing_by_quadruples(p: Partition) -> bool:
    """The literal a<b<c<d definition, O(n^4) — used only as an oracle."""
    rgs = p.rgs
    n = len(rgs)
    for a, b, c, d in combinations(range(n), 4):
        if rgs[a] == rgs[c] and rgs[b] == rgs[d] and rgs[a] != rgs[b]:
            return True
    return False


def noncrossing_by_last_positions(p: Partition) -> bool:
    """The crossing test as first written, from each block's last position:
    a block revisited must be the innermost open one. Used only as an
    oracle for the one-stack pass of `is_noncrossing`."""
    last = {}
    for i, b in enumerate(p.rgs):
        last[b] = i
    stack: list[int] = []
    seen = set()
    for i, b in enumerate(p.rgs):
        if b in seen:
            if stack[-1] != b:
                return False
        else:
            seen.add(b)
            stack.append(b)
        while stack and last[stack[-1]] == i:
            stack.pop()
    return True


def all_rgs(n: int) -> Iterator[tuple[int, ...]]:
    """Restricted-growth strings of length n, lexicographically ascending."""
    a = [0] * n

    def rec(i: int, mx: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(a)
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(0, -1)


def oracle_enumerate(points: int, cls: PartitionClass) -> list[Partition]:
    """Every Bell(points) string, filtered to the class: the enumeration the
    pruning generator replaced, kept as its oracle."""
    out = []
    for rgs in all_rgs(points):
        p = Partition(0, points, rgs)
        if cls is NC and not is_noncrossing(p):
            continue
        if cls is NC2 and not (
            is_noncrossing(p) and p.is_pair_partition()
        ):
            continue
        out.append(p)
    return out


def partitions_of(k: int, l: int) -> list[Partition]:
    """All of P(k, l), via rotating the one-row enumeration."""
    out = []
    for p in enumerate_partitions(k + l, PartitionClass.ALL):
        for _ in range(k):
            p = rotate(p, Corner.LOWER_LEFT_UP)
        out.append(p)
    return out


# a hypothesis strategy for canonical RGS strings of bounded length
@st.composite
def rgs_strings(draw, max_len: int = 8):
    n = draw(st.integers(min_value=0, max_value=max_len))
    rgs = []
    top = 0
    for _ in range(n):
        v = draw(st.integers(min_value=0, max_value=top))
        rgs.append(v)
        top = max(top, v + 1)
    return tuple(rgs)


# ---------------------------------------------------------------------------
# canonical form and serialization


def test_canonical_rgs_enforced():
    with pytest.raises(ValueError):
        Partition(0, 2, (1, 0))
    with pytest.raises(ValueError):
        Partition(0, 3, (0, 2, 1))
    with pytest.raises(ValueError):
        Partition(1, 1, (0,))
    with pytest.raises(ValueError):
        Partition(0, 4, (0, 1, 3, 2))


def test_a_list_rgs_is_refused():
    # a list RGS once passed every check and made a partition that could not
    # be hashed and was not equal to the same RGS as a tuple
    with pytest.raises(TypeError, match="RGS must be a tuple, not list"):
        Partition(0, 2, [0, 0])
    assert Partition(0, 2, (0, 0)) == Partition.one_block(2)
    assert hash(Partition(0, 2, (0, 0))) == hash(Partition.one_block(2))


@pytest.mark.parametrize("upper, lower", [(0.0, 2), (True, 1), (0, 2.0), (0, True)])
def test_a_row_size_that_is_not_an_int_is_refused(upper, lower):
    # Partition(0.0, 2, (0, 0)) once equalled Partition(0, 2, (0, 0)) but
    # wrote '0.0|2|00', which from_text refuses; True wrote 'True|1|00'
    with pytest.raises(TypeError, match="row sizes must be ints"):
        Partition(upper, lower, (0,) * int(upper + lower))


@pytest.mark.parametrize("rgs", [(0.0, 1.0), (0, 1.0), (False, True), (0, True), (0, 0.5)])
def test_an_rgs_entry_that_is_not_an_int_is_refused(rgs):
    # Partition(0, 2, (0.0, 1.0)) once equalled and hashed as
    # Partition(0, 2, (0, 1)), and then its repr and to_text raised
    with pytest.raises(TypeError, match="RGS entries must be ints"):
        Partition(0, 2, rgs)


def test_from_blocks_roundtrip():
    p = Partition.from_lower_blocks(4, [[1, 3], [2], [4]])
    assert p.rgs == (0, 1, 0, 2)
    assert p.lower_blocks() == ((1, 3), (2,), (4,))


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([[("middle", 1)]], "unknown row 'middle'"),
        ([[("upper", 0)], [("upper", 1)], [("lower", 1)]], "upper index 0 out of range"),
        ([[("upper", 1), ("upper", 3)], [("lower", 1)]], "upper index 3 out of range"),
        ([[("upper", 1), ("upper", 2)], [("lower", 0)]], "lower index 0 out of range"),
        ([[("upper", 1), ("upper", 2)], [("lower", 2)]], "lower index 2 out of range"),
        ([[("upper", 1), ("lower", 1)], [("upper", 2), ("upper", 1)]], "blocks are not disjoint"),
        ([[("upper", 1), ("lower", 1)]], "blocks do not cover all points"),
    ],
)
def test_from_blocks_refusals(blocks, message):
    # a (2, 1) partition: each row is checked against its own size
    with pytest.raises(ValueError) as caught:
        Partition.from_blocks(2, 1, blocks)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


def test_text_form():
    p = Partition(0, 4, (0, 0, 1, 1))
    assert p.to_text() == "0|4|0011"
    assert Partition.from_text("0|4|0011") == p
    assert Partition.from_text("0|0|") == Partition.empty()


@given(rgs_strings())
def test_text_roundtrip_random(rgs):
    p = Partition(0, len(rgs), rgs)
    assert Partition.from_text(p.to_text()) == p


def text_by_digit_join(p: Partition) -> str:
    """`Partition.to_text` as it joined one digit per point."""
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    if p.block_count > len(digits):
        raise ValueError("too many blocks for the text encoding")
    return f"{p.upper}|{p.lower}|{''.join(digits[b] for b in p.rgs)}"


def test_text_is_the_digit_join():
    cases = [p for n in range(9) for p in enumerate_partitions(n, ALL)]
    cases += [p for n in range(11) for p in enumerate_partitions(n, NC)]
    cases += [p for k, l in ((1, 1), (1, 4), (2, 3), (3, 3), (4, 2)) for p in partitions_of(k, l)]
    cases += [Partition.singletons(36), Partition(3, 33, tuple(range(36))), Partition.one_block(50)]
    for p in cases:
        assert p.to_text() == text_by_digit_join(p)
    # 37 blocks and more are refused, past 255 too, where no byte holds a block
    for p in (Partition.singletons(37), Partition(2, 35, tuple(range(37))), Partition.singletons(300)):
        with pytest.raises(ValueError) as expected:
            text_by_digit_join(p)
        with pytest.raises(ValueError) as caught:
            p.to_text()
        assert type(caught.value) is ValueError
        assert str(caught.value) == str(expected.value) == "too many blocks for the text encoding"


def test_named_constructors():
    assert Partition.pair() == Partition(0, 2, (0, 0))
    assert Partition.identity(2) == Partition(2, 2, (0, 1, 0, 1))
    assert Partition.singletons(3).block_count == 3
    assert Partition.one_block(3).block_count == 1
    assert Partition.empty().points == 0


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_against_recurrences():
    catalan = catalan_numbers(10)
    bell = bell_numbers(8)
    for n in range(11):
        assert len(enumerate_partitions(n, PartitionClass.NONCROSSING)) == catalan[n]
    for n in range(9):
        assert len(enumerate_partitions(n, PartitionClass.ALL)) == bell[n]
    for n in range(7):
        got = enumerate_partitions(2 * n, PartitionClass.NONCROSSING_PAIRS)
        assert len(got) == catalan[n]
        assert all(p.is_pair_partition() for p in got)


def test_closed_form_counts_match_the_enumeration():
    for cls in PartitionClass:
        for n in range(11):
            assert count_partitions(n, cls) == len(enumerate_partitions(n, cls))


def test_closed_form_counts_against_recurrences_past_enumeration():
    catalan = catalan_numbers(30)
    bell = bell_numbers(30)
    for n in range(31):
        assert count_partitions(n, NC) == catalan[n]
        assert count_partitions(n) == count_partitions(n, ALL) == bell[n]
        assert count_partitions(n, NC2) == (0 if n % 2 else catalan[n // 2])
    with pytest.raises(ValueError):
        count_partitions(-1, NC)


def test_enumeration_matches_the_filter_oracle():
    # the same list, order included: matrix labels and cache keys depend on it
    for n in range(11):
        assert enumerate_partitions(n, NC) == oracle_enumerate(n, NC)
        assert enumerate_partitions(n, NC2) == oracle_enumerate(n, NC2)
    for n in range(9):
        assert enumerate_partitions(n, ALL) == oracle_enumerate(n, ALL)


def test_generated_noncrossing_partitions_have_no_crossing():
    for n in range(9):
        for cls in (NC, NC2):
            for p in enumerate_partitions(n, cls):
                assert not crossing_by_quadruples(p)


def test_generated_partitions_equal_checked_ones():
    # the enumerator skips the constructor's check; its output must still
    # be the partition the public constructor builds, hash included
    for n in range(10):
        for cls in (ALL, NC, NC2):
            for p in enumerate_partitions(n, cls):
                checked = Partition(0, n, p.rgs)
                assert p == checked and hash(p) == hash(checked)
                assert (p.upper, p.lower, p.rgs) == (0, n, checked.rgs)


def test_enumeration_result_is_freed_without_the_cycle_collector():
    # a self-referencing helper closure would keep the whole list alive
    # until a collection, and raise the peak memory of every caller
    gc.disable()
    try:
        parts = enumerate_partitions(4, NC)
        first = weakref.ref(parts[0])
        del parts
        assert first() is None
    finally:
        gc.enable()


def _both_kinds() -> list[Partition]:
    """A generated partition, and checked ones on one row and on two."""
    return [enumerate_partitions(4, NC)[3], Partition(0, 4, (0, 0, 1, 1)), Partition.identity(2)]


def test_partitions_keep_no_instance_dict():
    for p in _both_kinds():
        assert not hasattr(p, "__dict__")
        assert weakref.ref(p)() is p


@pytest.mark.parametrize("field", ["upper", "lower", "rgs"])
def test_partitions_refuse_assignment(field):
    for p in _both_kinds():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, field, getattr(p, field))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(p, field)


def test_partitions_pickle_and_copy_as_equal_partitions():
    for p in _both_kinds():
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        restored = [pickle.loads(pickle.dumps(p, protocol)) for protocol in protocols]
        for q in [*restored, copy.copy(p), copy.deepcopy(p), copy.deepcopy([p, p])[1]]:
            assert q == p and hash(q) == hash(p) and q.rgs == p.rgs
            assert (q.upper, q.lower) == (p.upper, p.lower) and not hasattr(q, "__dict__")


def test_a_non_canonical_pickle_is_refused_on_load():
    # a partition loads through the checked constructor, so a forged
    # payload is refused as the constructor refuses it
    class Forged:
        def __reduce__(self):
            return Partition, (0, 2, (1, 0))

    data = pickle.dumps(Forged())
    with pytest.raises(ValueError, match="not in canonical form"):
        pickle.loads(data)


def test_an_enumerated_partition_retains_at_most_200_bytes():
    # NC(10) is held whole by Tutte's strata; with an instance dict each
    # partition retained 224.5 bytes, its RGS tuple and list slot included
    gc.collect()
    tracemalloc.start()
    try:
        parts = enumerate_partitions(10, NC)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(parts) == 16796
    assert retained / len(parts) < 200


def test_enumeration_order_is_rgs_lex():
    ps = enumerate_partitions(3, PartitionClass.ALL)
    assert [p.rgs for p in ps] == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (0, 1, 2),
    ]


def test_enumerate_zero_points():
    assert enumerate_partitions(0, PartitionClass.ALL) == [Partition.empty()]
    assert enumerate_partitions(0, PartitionClass.NONCROSSING) == [Partition.empty()]


def test_odd_points_have_no_pair_partitions():
    assert enumerate_partitions(3, PartitionClass.NONCROSSING_PAIRS) == []


def test_odd_points_start_no_pair_search():
    # the class is empty, so not one prefix is tried: 27 points took 2 s
    # when every prefix was walked (so that step fails fast), and a tree of
    # a million points would not end
    started = time.perf_counter()
    assert enumerate_partitions(27, PartitionClass.NONCROSSING_PAIRS) == []
    assert time.perf_counter() - started < 0.5
    assert enumerate_partitions(10**6 + 1, PartitionClass.NONCROSSING_PAIRS) == []


def started_like(p: Partition, opened: int, waiting: int) -> bool:
    """The filter of a generator start: the RGS begins 0, 1, …, opened − 1
    and none of the blocks 0, …, waiting − 1 is a singleton."""
    sizes = [p.rgs.count(b) for b in range(waiting)]
    return p.rgs[:opened] == tuple(range(opened)) and min(sizes, default=2) >= 2


def test_the_generator_matches_the_filter_from_every_start():
    # every start `tutte.w_stratum` makes (NC, n ≤ 10, every level r: the
    # prefix 0..s and s + r mod 2 blocks waiting, r = 2s or 2s + 1), among
    # them those whose first free position is the last one (r = n − 1),
    # the NC2 starts of each parity, and the unwaited ALL starts; the leaves
    # are yielded in place, in the order of the full class
    starts = [
        (NC, n, s + 1 if r else 0, s + r % 2)
        for n in range(11)
        for r in range(n + 1)
        for s in [r // 2]
    ]
    starts += [(NC2, n, o, o) for n in range(13) for o in range(n + 2)]
    starts += [(ALL, n, o, 0) for n in range(8) for o in range(n + 2)]
    assert (NC, 4, 2, 1) in starts and (NC, 5, 3, 2) in starts  # w_stratum(4, 3), (5, 4)
    full = {(cls, n): enumerate_partitions(n, cls) for cls, n, _, _ in starts}
    for cls, n, opened, waiting in starts:
        want = [p for p in full[cls, n] if started_like(p, opened, waiting)]
        assert list(_enumerate(n, cls, opened, waiting)) == want, (cls, n, opened, waiting)


def test_iter_partitions_yields_the_list_order_lazily():
    for cls in PartitionClass:
        for n in range(8):
            stream = iter_partitions(n, cls)
            assert iter(stream) is stream  # a generator, not a list
            assert list(stream) == enumerate_partitions(n, cls)
    # a bad count is refused at the call, before anything is asked of it
    with pytest.raises(ValueError):
        iter_partitions(-1, PartitionClass.ALL)


# ---------------------------------------------------------------------------
# crossing test


def test_noncrossing_examples():
    assert is_noncrossing(Partition.pair())
    assert not is_noncrossing(Partition.from_lower_blocks(4, [[1, 3], [2, 4]]))
    for n in range(1, 7):
        assert is_noncrossing(Partition.one_block(n))


def test_crossing_against_the_last_position_oracle():
    # every partition of ALL(n ≤ 10), 142,418 in all
    count = 0
    for n in range(11):
        for p in enumerate_partitions(n, PartitionClass.ALL):
            assert is_noncrossing(p) == noncrossing_by_last_positions(p), p.rgs
            count += 1
    assert count == sum(count_partitions(n, PartitionClass.ALL) for n in range(11)) == 142_418


def test_crossing_against_quadruple_oracle():
    for n in range(7):
        for p in enumerate_partitions(n, PartitionClass.ALL):
            assert is_noncrossing(p) == (not crossing_by_quadruples(p))


# ---------------------------------------------------------------------------
# tensor


def test_tensor_examples():
    e = Partition.empty()
    pair = Partition.pair()
    for p in enumerate_partitions(4, PartitionClass.ALL):
        assert tensor(e, p) == p
        assert tensor(p, e) == p
    assert tensor(pair, pair) == Partition.from_lower_blocks(4, [[1, 2], [3, 4]])


@given(rgs_strings(max_len=5), rgs_strings(max_len=5))
def test_tensor_block_counts_add(r1, r2):
    p = Partition(0, len(r1), r1)
    q = Partition(0, len(r2), r2)
    assert tensor(p, q).block_count == p.block_count + q.block_count


def test_tensor_associative():
    ps = enumerate_partitions(2, PartitionClass.ALL)
    for a in ps:
        for b in ps:
            for c in ps:
                assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))


# ---------------------------------------------------------------------------
# involution


def test_involution_is_an_involution():
    for p in partitions_of(2, 2):
        assert involution(involution(p)) == p
    pair_up = involution(Partition.pair())
    assert (pair_up.upper, pair_up.lower) == (2, 0)


def test_involution_distributes_over_tensor():
    ps = [p for k in range(3) for p in partitions_of(k, 3 - k)]
    for p in ps:
        for q in ps:
            assert involution(tensor(p, q)) == tensor(involution(p), involution(q))


# ---------------------------------------------------------------------------
# mirror


def test_mirror_is_an_involution():
    for k in range(4):
        for p in partitions_of(k, 4 - k):
            assert mirror(mirror(p)) == p
    # each row is reversed on its own, rows kept
    p = Partition.from_text("2|3|01002")
    assert mirror(p) == Partition.from_text("2|3|01211")


def test_mirror_keeps_block_count_and_class():
    for n in range(9):
        for cls in PartitionClass:
            parts = enumerate_partitions(n, cls)
            images = [mirror(p) for p in parts]
            assert [q.block_count for q in images] == [p.block_count for p in parts]
            assert set(images) == set(parts)
    assert mirror(Partition.from_lower_blocks(4, [[1, 2, 4], [3]])) == (
        Partition.from_lower_blocks(4, [[1, 3, 4], [2]])
    )


# ---------------------------------------------------------------------------
# composition


def test_compose_identity_is_neutral():
    for n in range(1, 5):
        ident = Partition.identity(n)
        for p in enumerate_partitions(n, PartitionClass.ALL):
            assert compose(ident, p) == (p, 0)


def test_compose_shape_mismatch():
    with pytest.raises(ShapeError):
        compose(Partition.identity(2), Partition.one_block(3))


def test_pair_on_mirror_closes_one_loop():
    pair = Partition.pair()
    result, loops = compose(involution(pair), pair)
    assert result == Partition.empty()
    assert loops == 1


def test_self_pairing_loops_count_blocks():
    # stacking p on its own mirror fuses each block with its reflection
    for n in range(1, 6):
        for p in enumerate_partitions(n, PartitionClass.NONCROSSING):
            _, loops = compose(involution(p), p)
            assert loops == p.block_count


def test_noncrossing_closed_under_pairing():
    for n in range(1, 5):
        ncs = enumerate_partitions(n, PartitionClass.NONCROSSING)
        for p in ncs:
            for q in ncs:
                result, loops = compose(involution(q), p)
                assert 0 <= loops <= n
                assert is_noncrossing(result)


def test_compose_involution_antihomomorphism():
    sources = [p for k in range(3) for p in partitions_of(k, 2)]
    targets = partitions_of(2, 1) + partitions_of(2, 2)
    for s in sources:
        for t in targets:
            lhs = involution(compose(t, s).partition)
            rhs = compose(involution(s), involution(t)).partition
            assert lhs == rhs


def test_compose_associative_with_loop_bookkeeping():
    for r in partitions_of(0, 2):
        for s in partitions_of(2, 1):
            for t in partitions_of(1, 2):
                sr, l1 = compose(s, r)
                a, l2 = compose(t, sr)
                ts, l3 = compose(t, s)
                b, l4 = compose(ts, r)
                assert a == b
                assert l1 + l2 == l3 + l4


# ---------------------------------------------------------------------------
# rotation


def test_rotate_identity_gives_pair():
    assert rotate(Partition.identity(1), Corner.UPPER_RIGHT_DOWN) == Partition.pair()


def test_rotations_invert():
    inverse = {
        Corner.UPPER_RIGHT_DOWN: Corner.LOWER_RIGHT_UP,
        Corner.LOWER_RIGHT_UP: Corner.UPPER_RIGHT_DOWN,
        Corner.UPPER_LEFT_DOWN: Corner.LOWER_LEFT_UP,
        Corner.LOWER_LEFT_UP: Corner.UPPER_LEFT_DOWN,
    }
    for p in partitions_of(2, 2):
        for corner, back in inverse.items():
            assert rotate(rotate(p, corner), back) == p


def rotate_by_cases(p: Partition, corner: Corner) -> Partition:
    """`rotate` as it was written before it read the corner as row, side
    and direction: one branch per corner, kept as its oracle."""
    k, l = p.upper, p.lower
    if corner is Corner.UPPER_RIGHT_DOWN:
        if k == 0:
            raise RotationUndefined("no upper point to rotate down")
        order = list(range(k - 1)) + list(range(k, k + l)) + [k - 1]
        shape = (k - 1, l + 1)
    elif corner is Corner.LOWER_RIGHT_UP:
        if l == 0:
            raise RotationUndefined("no lower point to rotate up")
        order = list(range(k)) + [k + l - 1] + list(range(k, k + l - 1))
        shape = (k + 1, l - 1)
    elif corner is Corner.UPPER_LEFT_DOWN:
        if k == 0:
            raise RotationUndefined("no upper point to rotate down")
        order = list(range(1, k)) + [0] + list(range(k, k + l))
        shape = (k - 1, l + 1)
    elif corner is Corner.LOWER_LEFT_UP:
        if l == 0:
            raise RotationUndefined("no lower point to rotate up")
        order = [k] + list(range(k)) + list(range(k + 1, k + l))
        shape = (k + 1, l - 1)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(corner)
    return Partition(shape[0], shape[1], _canonical(p.rgs[pos] for pos in order))


def _outcome(rotation, p: Partition, corner: Corner):
    try:
        return rotation(p, corner)
    except Exception as error:  # the type and message are compared
        return type(error), str(error)


def test_rotate_matches_the_case_oracle_on_every_small_partition():
    # every (k, l) partition with k, l ≤ 4, built from the RGS directly so
    # that no rotation makes the inputs: 6,815 partitions, 27,260 rotations
    cases = [
        Partition(k, l, p.rgs)
        for k in range(5)
        for l in range(5)
        for p in enumerate_partitions(k + l, ALL)
    ]
    assert len(cases) * len(Corner) == 27260
    for p in cases:
        for corner in Corner:
            assert _outcome(rotate, p, corner) == _outcome(rotate_by_cases, p, corner)


def test_rotate_empty_row_is_undefined():
    with pytest.raises(RotationUndefined):
        rotate(Partition.pair(), Corner.UPPER_RIGHT_DOWN)
    with pytest.raises(RotationUndefined):
        rotate(involution(Partition.pair()), Corner.LOWER_LEFT_UP)


@pytest.mark.parametrize("corner", ["upper_right_down", None])
def test_rotate_refuses_a_corner_that_is_not_a_member(corner):
    # as a class must be a PartitionClass member, a corner must be a Corner
    with pytest.raises(TypeError, match="corner must be a Corner"):
        rotate(Partition.identity(1), corner)


def test_rotation_compositional_identity():
    # rot_{upper-right-down}(p) = (p ⊗ id) ∘ (id^{⊗(k−1)} ⊗ ⊓) with no loops closed
    for p in partitions_of(2, 2):
        k = p.upper
        cap = tensor(Partition.identity(k - 1), Partition.pair())
        rhs, loops = compose(tensor(p, Partition.identity(1)), cap)
        assert rotate(p, Corner.UPPER_RIGHT_DOWN) == rhs
        assert loops == 0


# ---------------------------------------------------------------------------
# kernel and refinement


def test_kernel_examples():
    assert kernel((1, 1, 2)) == Partition.from_lower_blocks(3, [[1, 2], [3]])
    assert kernel((5, 6, 6)) == Partition.from_lower_blocks(3, [[1], [2, 3]])
    assert kernel((7,) * 5) == Partition.one_block(5)
    assert kernel(()) == Partition.empty()


@given(st.lists(st.integers(min_value=1, max_value=4), max_size=7))
def test_kernel_blocks_are_label_classes(labels):
    p = kernel(tuple(labels))
    for block in p.lower_blocks():
        values = {labels[i - 1] for i in block}
        assert len(values) == 1


def test_refines_bounds_and_order():
    ps = enumerate_partitions(4, PartitionClass.ALL)
    one = Partition.one_block(4)
    sing = Partition.singletons(4)
    for p in ps:
        assert refines(sing, p)
        assert refines(p, one)
        assert refines(p, p)
    # antisymmetry and transitivity
    for p in ps:
        for q in ps:
            if refines(p, q) and refines(q, p):
                assert p == q
            for s in ps:
                if refines(p, q) and refines(q, s):
                    assert refines(p, s)


@settings(max_examples=60)
@given(rgs_strings(max_len=6), rgs_strings(max_len=6))
def test_refines_means_blockwise_containment(r1, r2):
    if len(r1) != len(r2):
        return
    p = Partition(0, len(r1), r1)
    q = Partition(0, len(r2), r2)
    contained = all(
        any(set(bp) <= set(bq) for bq in q.lower_blocks()) for bp in p.lower_blocks()
    )
    assert refines(p, q) == contained

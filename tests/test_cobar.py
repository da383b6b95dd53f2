"""Cobar Ext of exterior Hopf algebras.

Sign oracle: the Koszul sign of a splitting is the parity of the bubble
sort putting the concatenation back in order, computed here from scratch.
Dimension oracle: stars and bars, Sym on n generators.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imj.cobar import (GF, ExtTable, ExteriorHopf, _pack, cobar_ext,
                       cobar_matrix, rank_mod_p, symmetric_oracle)
from imj.gmod import ModMatrix, Smith


def smith_rank(M, p):
    """Rank over F_p as the cobar spot check reads it: the unit pivots of
    the Smith form at precision 1."""
    return Smith(ModMatrix(M, p, 1)).valuations.count(0)


def sort_parity_sign(left, right):
    seq = sorted(left) + sorted(right)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps % 2 else 1


# The Hopf-algebra structure around `ExteriorHopf.coproduct`, which the
# axioms below check.  The coproduct and the cobar differential read one
# split generator, `cobar._splits`, so the axioms and the sign test also
# cover the splits of a slot that `cobar_ext` uses.

def basis(H):
    """The subsets of {1..n}, by size and then lexicographically."""
    return [frozenset(c) for r in range(H.n + 1)
            for c in itertools.combinations(range(1, H.n + 1), r)]


def degree(S):
    """Internal degree: each odd generator has degree -1."""
    return -len(S)


def counit(S):
    return 0 if S else 1


def reduced_coproduct(H, S):
    return [(a, b, c) for a, b, c in H.coproduct(S) if a and b]


def test_coproduct_of_a_pair():
    H = ExteriorHopf(2, 3)
    got = {(tuple(sorted(a)), tuple(sorted(b))): c
           for a, b, c in H.coproduct(frozenset({1, 2}))}
    assert got == {((), (1, 2)): 1, ((1, 2), ()): 1,
                   ((1,), (2,)): 1, ((2,), (1,)): -1}


def test_generators_primitive():
    H = ExteriorHopf(3, 5)
    for i in (1, 2, 3):
        assert reduced_coproduct(H, frozenset({i})) == []


def test_splitting_signs_match_sort_parity():
    H = ExteriorHopf(4, 3)
    for S in basis(H):
        for a, b, c in H.coproduct(S):
            assert c == sort_parity_sign(a, b)
            assert frozenset(a) | frozenset(b) == S
            assert not frozenset(a) & frozenset(b)
        assert len(H.coproduct(S)) == 2 ** len(S)


def test_counit_axiom():
    H = ExteriorHopf(4, 3)
    for S in basis(H):
        left = sum(c * counit(a) for a, b, c in H.coproduct(S)
                   if frozenset(b) == S)
        assert left == 1


def test_coassociativity():
    H = ExteriorHopf(4, 3)
    for S in basis(H):
        lhs, rhs = {}, {}
        for a, b, c in H.coproduct(S):
            for a1, a2, c1 in H.coproduct(frozenset(a)):
                key = (tuple(sorted(a1)), tuple(sorted(a2)), tuple(sorted(b)))
                lhs[key] = lhs.get(key, 0) + c * c1
            for b1, b2, c1 in H.coproduct(frozenset(b)):
                key = (tuple(sorted(a)), tuple(sorted(b1)), tuple(sorted(b2)))
                rhs[key] = rhs.get(key, 0) + c * c1
        assert {k: v for k, v in lhs.items() if v} == \
               {k: v for k, v in rhs.items() if v}


def test_internal_degree():
    H = ExteriorHopf(3, 3)
    assert degree(frozenset()) == 0
    assert degree(frozenset({2})) == -1
    assert degree(frozenset({1, 2, 3})) == -3
    # the coproduct is graded
    for S in basis(H):
        for a, b, _ in H.coproduct(S):
            assert degree(a) + degree(b) == degree(S)


def test_differential_squares_to_zero():
    for n, q in ((2, 3), (3, 3), (3, 9)):
        H = ExteriorHopf(n, q)
        p = H.field.p
        for s in (1, 2, 3):
            for profile in all_profiles(n, s):
                cols, mid, d0 = cobar_matrix(H, s, profile)
                mid2, rows, d1 = cobar_matrix(H, s + 1, profile)
                assert mid == mid2
                if d0.size and d1.size:
                    assert not ((d1.astype(np.int64) @ d0) % p).any()


def all_profiles(n, s):
    return [m for m in itertools.product(range(s + 1), repeat=n)
            if s <= sum(m) <= n * s]


def blocks(n, s_top):
    return [(s, m) for s in range(1, s_top + 1) for m in all_profiles(n, s)]


def test_gf_rejects_out_of_scope_orders():
    for q in (2, 4, 8, 12, 1):
        with pytest.raises(ValueError):
            GF(q)
    for q, p, e in ((7, 7, 1), (9, 3, 2), (3 ** 20, 3, 20)):
        gf = GF(q)
        assert (gf.q, gf.p, gf.e) == (q, p, e)


def test_rank_agrees_across_field_extensions():
    # integer matrices, signed like the cobar entries: both ranks reduce
    # them into the prime field F_p, where the rank over every F_q of
    # characteristic p is decided (the field order is never read)
    rng = random.Random(40961)
    for _ in range(25):
        p = rng.choice([3, 5])
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        M = [[rng.randrange(-2, 3) for _ in range(cols)] for _ in range(rows)]
        dense = rank_mod_p(np.array(M, dtype=np.int16) % p, p)
        assert dense == smith_rank(M, GF(p * p).p)


@pytest.mark.parametrize("p", [3, 5, 7, 181, 191, 257, 32771, 4294967311])
def test_forward_elimination_matches_gauss_jordan(p):
    # the numpy forward elimination against the Smith rank, whose pivots
    # are exact Python ints; past p = 181 a product of two residues no
    # longer fits in int16
    rng = random.Random(p)
    for _ in range(30):
        rows, cols = rng.randrange(1, 12), rng.randrange(1, 12)
        M = [[rng.randrange(p) if rng.random() < 0.5 else 0
              for _ in range(cols)] for _ in range(rows)]
        assert rank_mod_p(np.array(M), p) == smith_rank(M, p)


def test_block_entries_never_repeat():
    from imj.cobar import _block
    for n in (1, 2, 3):
        for s in range(1, 5):
            for profile in itertools.product(range(s + 1), repeat=n):
                cols, rows, (ri, ci, val) = _block(s, _pack(profile))
                assert cols == sorted(set(cols))
                assert len(set(zip(ri, ci))) == len(val)
                assert set(val) <= {-1, 1}


def matched_up(tpl):
    # the scan of the imj.cobar docstring on one listed cell: a singleton
    # mask is below the next slot's lowest bit exactly when its generator
    # is below that slot's lowest generator
    for mask, nxt in zip(tpl, tpl[1:] + (0,)):
        if mask & (mask - 1):
            return True
        if mask < nxt & -nxt:
            return False
    return False


def up_partner(tpl):
    # a cell matched up is split at its first slot of two or more
    # generators, into (lowest generator, rest)
    i = next(i for i, m in enumerate(tpl) if m & (m - 1))
    low = tpl[i] & -tpl[i]
    return tpl[:i] + (low, tpl[i] ^ low) + tpl[i + 1:]


@pytest.mark.parametrize("n,s_top", [(1, 4), (2, 4), (3, 4), (4, 3)])
def test_matching_is_acyclic(n, s_top):
    # Kahn sort of d^s with matched edges pointing up (column to row) and
    # every other entry pointing down: it drains iff there is no cycle
    from imj.cobar import _block
    for s, profile in blocks(n, s_top):
        cols, rows, (ri, ci, _) = _block(s, _pack(profile))
        index = {t: r for r, t in enumerate(rows)}
        matched = {(index[up_partner(x)], c)
                   for c, x in enumerate(cols) if matched_up(x)}
        assert len({r for r, _ in matched}) == len(matched)
        assert not any(matched_up(rows[r]) for r, _ in matched)
        assert matched <= set(zip(ri, ci))
        out = [[] for _ in range(len(cols) + len(rows))]
        indeg = [0] * len(out)
        for r, c in zip(ri, ci):
            a, b = (c, len(cols) + r) if (r, c) in matched \
                else (len(cols) + r, c)
            out[a].append(b)
            indeg[b] += 1
        ready = [v for v, k in enumerate(indeg) if k == 0]
        drained = 0
        while ready:
            v = ready.pop()
            drained += 1
            for b in out[v]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
        assert drained == len(out), (n, s, profile)


@pytest.mark.parametrize("n,s_top", [(1, 5), (2, 5), (3, 4), (4, 3)])
def test_critical_cells_are_decreasing_singletons(n, s_top):
    # neither matched up nor the partner of a cell matched up
    from imj.cobar import _block_basis
    for s, profile in blocks(n, s_top):
        prof = _pack(profile)
        down = {up_partner(x) for x in _block_basis(s - 1, prof)
                if matched_up(x)}
        critical = [x for x in _block_basis(s, prof)
                    if not matched_up(x) and x not in down]
        decreasing = [x for x in _block_basis(s, prof)
                      if all(m & (m - 1) == 0 for m in x)
                      and list(x) == sorted(x, reverse=True)]
        assert critical == decreasing
        assert len(critical) == (sum(profile) == s)


@pytest.mark.parametrize("n,s_top,p", [(1, 5, 3), (2, 5, 5), (3, 4, 3),
                                       (4, 3, 5)])
def test_matched_count_is_the_dense_rank(n, s_top, p, monkeypatch):
    from imj import cobar
    monkeypatch.setattr(cobar, "_BLOCKS", {})
    H = ExteriorHopf(n, p)
    for s, profile in blocks(n, s_top):
        _, _, M = cobar_matrix(H, s, profile)
        canon = _pack(sorted(profile, reverse=True))
        assert cobar._count(s, canon, 0) == \
            (M.shape[1], rank_mod_p(M, p)), (s, profile)


def cells_by_profile(n, s):
    """Every tuple of s nonempty masks on n generators, in lexicographic
    order, grouped by the multiset union of its slots.  Mask m weighs
    sum((s+1)^i for bit i of m), so digit i in base s + 1 of a tuple's
    total weight is the multiplicity of generator i."""
    base = s + 1
    weight = [sum(base**i for i in range(n) if m >> i & 1)
              for m in range(1 << n)]
    by_weight = {}
    for cell in itertools.product(range(1, 1 << n), repeat=s):
        by_weight.setdefault(sum(map(weight.__getitem__, cell)),
                             []).append(cell)
    return {tuple(w // base**i % base for i in range(n)): cells
            for w, cells in by_weight.items()}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_block_basis_is_the_product_filtered_by_profile(n):
    # independent of the slot choices that listing and counting share
    from imj.cobar import _block_basis
    for s in range(6):
        cells = cells_by_profile(n, s)
        for profile in itertools.product(range(s + 1), repeat=n):
            assert _block_basis(s, _pack(profile)) == \
                cells.get(profile, []), (s, profile)


@pytest.mark.parametrize("n,s_top", [(1, 6), (2, 6), (3, 6), (4, 5)])
def test_count_equals_the_listing_oracle(n, s_top, monkeypatch):
    # every decreasing profile, empty blocks included: the prefix count
    # against the listed cells and the scan of each
    from imj import cobar
    from imj.cobar import _block_basis
    monkeypatch.setattr(cobar, "_BLOCKS", {})
    for s in range(s_top + 1):
        for low in itertools.combinations_with_replacement(range(s + 1), n):
            canon = _pack(low[::-1])
            cells = _block_basis(s, canon)
            assert cobar._count(s, canon, 0) == \
                (len(cells), sum(map(matched_up, cells))), (s, canon)


def choices_oracle(slots, prof):
    # every mask up to the generators present, kept if the multiplicities
    # it leaves fit the other slots; profiles are tuples here
    allowed = sum(1 << i for i, m in enumerate(prof) if m)
    out = []
    for sub in range(1, allowed + 1):
        if sub & ~allowed:
            continue
        rest = tuple(m - (sub >> i & 1) for i, m in enumerate(prof))
        if max(rest) < slots <= sum(rest) + 1:
            out.append((sub, rest))
    return out


def test_choices_walk_only_the_admissible_masks():
    # the forced set, the free submasks and the popcount bound give the
    # oracle's list, in its order, on every small profile
    from imj.cobar import _choices
    choices = _choices.__wrapped__
    for n in range(6):
        for prof in itertools.product(range(5), repeat=n):
            for slots in range(1, 9):
                assert choices(slots, _pack(prof)) == \
                    [(sub, _pack(rest))
                     for sub, rest in choices_oracle(slots, prof)], \
                    (slots, prof)


@st.composite
def count_args(draw):
    n = draw(st.integers(0, 4))
    slots = draw(st.integers(0, 5))
    prof = tuple(draw(st.lists(st.integers(0, slots + 1), min_size=n,
                               max_size=n)))
    prev = draw(st.sampled_from([0] + [1 << i for i in range(n)]))
    return slots, prof, prev


@settings(max_examples=300)
@given(count_args())
def test_count_is_the_listing_and_its_scan(args):
    # profiles in any order and any previous singleton, each counted cold
    from imj import cobar
    from imj.cobar import _block_basis
    slots, profile, prev = args
    prof = _pack(profile)
    cells = _block_basis(slots, prof)
    head = (prev,) if prev else ()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cobar, "_BLOCKS", {})
        assert cobar._count(slots, prof, prev) == \
            (len(cells), sum(matched_up(head + c) for c in cells))


def test_widest_multiplicity_packs_and_one_more_is_refused():
    # the widest multiplicity a digit holds lists the block the product
    # walk lists; one more would carry into the next generator's digit
    from imj.cobar import _DIGIT, _block_basis
    cells = cells_by_profile(2, _DIGIT)
    for profile in ((_DIGIT, 0), (_DIGIT, 1), (1, _DIGIT), (_DIGIT, _DIGIT)):
        assert cells[profile]
        assert _block_basis(_DIGIT, _pack(profile)) == cells[profile]
    H = ExteriorHopf(2, 3)
    for profile in ((_DIGIT + 1, 0), (0, _DIGIT + 1), (-1, 1)):
        with pytest.raises(ValueError):
            _pack(profile)
        with pytest.raises(ValueError):
            cobar_matrix(H, _DIGIT + 1, profile)


def unpack(prof):
    # the multiplicities of a packed profile, generator 1 first, up to the
    # highest generator present
    from imj.cobar import _DIGIT, _WIDTH
    out = []
    while prof:
        out.append(prof & _DIGIT)
        prof >>= _WIDTH
    return tuple(out)


def trim(prof):
    # a profile tuple without its trailing zero multiplicities
    while prof and not prof[-1]:
        prof = prof[:-1]
    return prof


def tuple_walk(sizes):
    # the memo keys of cold `cobar_ext` walks at `sizes`, in the order
    # they are first stored, from a recursion keyed on profile tuples
    # without trailing zeros: the prefix count over `choices_oracle`,
    # walked over `profiles_oracle` with the spot check's sizing of one
    # small block per walk
    memo = {}

    def count(slots, prof, prev):
        prof = trim(prof)
        if slots == 0:
            return (0, 0) if prof else (1, 0)
        if (slots, prof, prev) not in memo:
            tails = up = 0
            for sub, rest in choices_oracle(slots, prof):
                if prev and sub & -sub > prev:
                    tails += count(slots - 1, rest, 0)[0]
                elif sub & (sub - 1):
                    t = count(slots - 1, rest, 0)[0]
                    tails += t
                    up += t
                else:
                    t, u = count(slots - 1, rest, sub)
                    tails += t
                    up += u
            memo[slots, prof, prev] = (tails, up)
        return memo[slots, prof, prev]

    for n, S in sizes:
        unchecked = True
        for s in range(1, S + 1):
            for canon, _, _ in profiles_oracle(n, s):
                if (s, trim(canon), 0) not in memo:
                    dim = count(s, canon, 0)[0]
                    if (unchecked and dim <= 30
                            and 0 < count(s + 1, canon, 0)[0] <= 30):
                        unchecked = False
                count(s - 1, canon, 0)
    return list(memo)


# the cobar workload's sizes, in the order a batch runs them cold
BENCH_SIZES = [(2, 6), (3, 4), (3, 5), (4, 3), (4, 4)]


def test_cold_walks_store_the_listed_blocks_in_order(monkeypatch):
    # the five benchmark sizes cold in one process: each memo entry,
    # unpacked, is the listing and its scan, and the keys come in the
    # tuple recursion's order; n is not in the key, so (1, 1) and
    # (1, 1, 0) are one entry
    from imj import cobar
    from imj.cobar import _block_basis
    monkeypatch.setattr(cobar, "_BLOCKS", {})
    for n, S in BENCH_SIZES:
        assert cobar_ext(ExteriorHopf(n, 3), S) == symmetric_oracle(n, S)
    walk = tuple_walk(BENCH_SIZES)
    assert [(slots, unpack(prof), prev)
            for slots, prof, prev in cobar._BLOCKS] == walk
    assert len(walk) == 1066
    assert _pack((1, 1)) == _pack((1, 1, 0))
    for (slots, prof, prev), got in cobar._BLOCKS.items():
        cells = _block_basis(slots, prof)
        head = (prev,) if prev else ()
        assert got == (len(cells),
                       sum(matched_up(head + c) for c in cells)), \
            (slots, unpack(prof), prev)


def test_shared_blocks_do_not_depend_on_walk_order(monkeypatch):
    # sizes with different n store blocks the others read: walked cold
    # forward and in reverse, each from an empty memo, both give the
    # stars-and-bars tables and agree on every block they both hold
    from imj import cobar
    memos = []
    for sizes in (BENCH_SIZES, BENCH_SIZES[::-1]):
        monkeypatch.setattr(cobar, "_BLOCKS", {})
        for n, S in sizes:
            assert cobar_ext(ExteriorHopf(n, 3), S) == symmetric_oracle(n, S)
        memos.append(cobar._BLOCKS)
    forward, backward = memos
    shared = forward.keys() & backward.keys()
    assert (len(forward), len(backward), len(shared)) == (1066, 915, 909)
    assert [forward[k] for k in shared] == [backward[k] for k in shared]


@pytest.mark.parametrize("s,a,b", [(1, 1, 1), (2, 2, 1), (3, 2, 2),
                                   (4, 3, 2)])
def test_trailing_zero_multiplicities_give_the_same_matrix(s, a, b):
    # generators that do not occur change neither the bases nor d
    for q in (3, 25):
        wide = cobar_matrix(ExteriorHopf(4, q), s, (a, b, 0, 0))
        narrow = cobar_matrix(ExteriorHopf(2, q), s, (a, b))
        assert wide[2].size and wide[:2] == narrow[:2]
        assert np.array_equal(wide[2], narrow[2])


def test_batch_order_spot_checks_are_pinned(monkeypatch):
    # each call re-ranks the first small block it counts cold; the blocks
    # earlier sizes stored are not counted again, so (3, 5) and (4, 4)
    # re-rank none
    from imj import cobar
    monkeypatch.setattr(cobar, "_BLOCKS", {})
    built = []
    for n, S in BENCH_SIZES:
        monkeypatch.setattr(cobar, "Smith", lambda A, size=(n, S): (
            built.append((size, A.rows, A.cols, A.precision)) or Smith(A)))
        assert cobar_ext(ExteriorHopf(n, 3), S) == symmetric_oracle(n, S)
    assert built == [((2, 6), 2, 1, 1), ((3, 4), 6, 1, 1),
                     ((4, 3), 14, 1, 1)]


def test_cold_run_lists_one_small_block(monkeypatch):
    # the spot check sizes both sides by the count before it lists any
    from imj import cobar
    monkeypatch.setattr(cobar, "_BLOCKS", {})
    listed = []

    def block(s, profile):
        out = real(s, profile)
        listed.append(out)
        return out

    real = cobar._block
    monkeypatch.setattr(cobar, "_block", block)
    assert cobar_ext(ExteriorHopf(4, 3), 6) == symmetric_oracle(4, 6)
    assert len(listed) == 1
    cols, rows, _ = listed[0]
    assert 0 < len(cols) <= 30 and 0 < len(rows) <= 30
    # a warm repeat re-ranks nothing
    assert cobar_ext(ExteriorHopf(4, 3), 6) == symmetric_oracle(4, 6)
    assert len(listed) == 1


def profiles_oracle(n, s):
    # the first occurrence of each decreasing profile of weight >= s in
    # the product walk, with its permutations counted by listing them
    seen, out = set(), []
    for prof in itertools.product(range(s + 1), repeat=n):
        canon = tuple(sorted(prof, reverse=True))
        w = sum(prof)
        if w >= s and canon not in seen:
            seen.add(canon)
            perms = len(set(itertools.permutations(canon))) if w == s else 0
            out.append((canon, w, perms))
    return out


def test_profiles_are_the_product_walk():
    from imj.cobar import _profiles
    for n in range(5):
        for s in range(7):
            assert list(_profiles(n, s)) == \
                [(_pack(canon), w, perms)
                 for canon, w, perms in profiles_oracle(n, s)], (n, s)


def test_warm_repeat_reads_the_plan_and_the_cache(monkeypatch):
    # a repeat at another characteristic reuses the plan of the cold walk
    # and counts nothing: the only `_count` calls are at zero slots, which
    # `_count` answers before it reads its memo
    from imj import cobar
    monkeypatch.setattr(cobar, "_BLOCKS", {})
    cold = cobar_ext(ExteriorHopf(4, 3), 6)
    assert cold == symmetric_oracle(4, 6)
    blocks = dict(cobar._BLOCKS)
    misses = cobar._profiles.cache_info().misses
    calls = []
    count = cobar._count

    def counting(slots, prof, prev):
        calls.append((slots, prof, prev))
        return count(slots, prof, prev)

    monkeypatch.setattr(cobar, "_count", counting)
    for q in (5, 25, 7):
        assert cobar_ext(ExteriorHopf(4, q), 6) == cold
    assert cobar._profiles.cache_info().misses == misses
    assert cobar._BLOCKS == blocks
    assert calls and all(slots == 0 for slots, _, _ in calls)


@pytest.mark.parametrize("n,S_max", [(4, 6), (3, 5)])
def test_spot_check_block_is_pinned(n, S_max, monkeypatch):
    # the first small cold block of the walk: d^1 on two generators once
    from imj import cobar
    monkeypatch.setattr(cobar, "_BLOCKS", {})
    checked = []
    monkeypatch.setattr(cobar, "_subfield_spot_check",
                        lambda gf, s, canon, rank:
                        checked.append((gf.p, s, canon, rank)))
    cobar_ext(ExteriorHopf(n, 9), S_max)
    assert checked == [(3, 1, _pack((1, 1) + (0,) * (n - 2)), 1)]


@pytest.mark.parametrize("q", [191, 32771, 4294967311])
def test_ext_at_primes_past_int16(q):
    # products of residues overflow int16 at 191 and int64 at 2^32 + 15;
    # the residues themselves overflow int16 at 32771
    assert cobar_ext(ExteriorHopf(3, q), 4) == symmetric_oracle(3, 4)


def test_largest_accepted_input_matches_oracle(monkeypatch):
    # the guard accepts n = 4, S_max = 6; it must finish cold under the
    # 10 s ceiling the guard is meant to keep
    from imj import cobar
    monkeypatch.setattr(cobar, "_BLOCKS", {})
    t0 = time.perf_counter()
    assert cobar_ext(ExteriorHopf(4, 3), 6) == symmetric_oracle(4, 6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"cold cobar_ext at the guard took {elapsed:.2f}s"


def test_ext_one_generator_is_a_polynomial_line():
    table = cobar_ext(ExteriorHopf(1, 3), 4)
    for s in range(5):
        assert table.dims.get((s, -s), 0) == 1
    assert all(t == -s for s, t in table.dims)


def test_ext_two_generators_quadratic_count():
    table = cobar_ext(ExteriorHopf(2, 3), 3)
    assert table.dims.get((0, 0), 0) == 1
    assert table.dims.get((2, -2), 0) == 3
    assert table.dims.get((3, -3), 0) == 4


def test_ext_matches_symmetric_oracle_desk_sample():
    for n, q in ((1, 3), (2, 3), (2, 9)):
        assert cobar_ext(ExteriorHopf(n, q), 4) == symmetric_oracle(n, 4)


def test_oracle_counts():
    assert symmetric_oracle(3, 2).dims.get((2, -2), 0) == 6
    assert symmetric_oracle(2, 4).dims.get((0, 0), 0) == 1
    assert symmetric_oracle(2, 4).dims.get((4, -4), 0) == 5
    assert symmetric_oracle(4, 3).dims.get((3, -3), 0) == math.comb(6, 3)


def test_ext_dims_rise_in_s():
    # the builders write (0, 0), then one (s, -s) per s: tables and JSON
    # print them as they come
    for n, S in ((0, 3), (1, 4), (3, 5), (4, 6)):
        for table in (cobar_ext(ExteriorHopf(n, 3), S),
                      symmetric_oracle(n, S)):
            assert list(table.dims) == [(s, -s) for s in
                                        range(S + 1 if n else 1)]


def test_table_equality_and_lines():
    a = symmetric_oracle(2, 3)
    b = ExtTable({(s, -s): math.comb(s + 1, s) for s in range(4)})
    assert a == b
    assert a != symmetric_oracle(2, 2)
    assert any("s=2" in line and "3" in line for line in a.lines())
    with pytest.raises(TypeError):  # a tuple holding a dict: unhashable
        hash(a)
    assert (a == 3) is False
    with pytest.raises(AttributeError):
        a.dims = {}
    # n = 0: F_q in degree 0 whatever the top degree
    assert symmetric_oracle(0, 3) == symmetric_oracle(0, 5)


@pytest.mark.parametrize("call, message", [
    (lambda: ExteriorHopf(2, 3).coproduct({3}),
     "generator index 3 out of range"),
    (lambda: cobar_matrix(ExteriorHopf(2, 3), 1, (1,)),
     "profile must list one multiplicity per generator"),
    (lambda: rank_mod_p([1, 2, 3], 3), "need a matrix")],
    ids=["coproduct", "cobar_matrix", "rank_mod_p"])
def test_malformed_inputs_refused(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_desk_scale_enforced():
    with pytest.raises(ValueError):
        cobar_ext(ExteriorHopf(5, 3), 2)
    with pytest.raises(ValueError):
        cobar_ext(ExteriorHopf(2, 3), 7)


def test_symmetric_oracle_refuses_negative_sizes():
    with pytest.raises(ValueError) as exc:
        symmetric_oracle(-1, 2)
    assert str(exc.value) == "need nonnegative n and S_max"


def test_even_prime_out_of_scope():
    with pytest.raises(ValueError):
        ExteriorHopf(2, 2)

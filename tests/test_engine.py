"""Prefix cache semantics, refereed by the brute-force oracle."""

from __future__ import annotations

import gc
import math
import random
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachesim import (CacheMode, CacheStore, PriceSchedule, ProviderPolicy, access,
                      builtin_policy, synth_tokens)
from reference import oracle_access

_PRICES = PriceSchedule(1.0, 2.0, 0.1)


def make_policy(min_tokens=1024, granularity=1, ttl=300.0, refresh=False):
    return ProviderPolicy(
        name="test", min_cache_tokens=min_tokens, granularity_tokens=granularity,
        ttl_seconds=ttl, refresh_on_read=refresh, mode=CacheMode.AUTOMATIC,
        prices=_PRICES)


def test_lookup_empty_store():
    policy = make_policy()
    assert access(CacheStore(policy), synth_tokens(100, 1), 0, 0.0) == (0, 0)


def test_exact_self_match():
    policy = make_policy(min_tokens=1024, granularity=1)
    store = CacheStore(policy)
    prompt = synth_tokens(2048, 5)
    assert access(store, prompt, 2048, 0.0) == (0, 2048)
    assert access(store, prompt, 0, 1.0) == (2048, 0)


def test_first_token_mismatch_yields_zero():
    policy = make_policy(min_tokens=1, granularity=1)
    store = CacheStore(policy)
    stored = synth_tokens(64, 1)
    access(store, stored, 64, 0.0)
    ids = stored.copy()
    ids[0] += 1
    assert access(store, ids, 0, 0.0) == (0, 0)


def test_below_minimum_never_caches():
    prompt = synth_tokens(500, 2)
    for policy in (make_policy(1024, 1), make_policy(1024, 128), make_policy(4096, 128)):
        store = CacheStore(policy)
        assert access(store, prompt, 500, 0.0) == (0, 0)
        assert len(store) == 0


def test_ttl_expiry_boundary():
    policy = make_policy(min_tokens=1024, granularity=1, ttl=300.0, refresh=False)
    store = CacheStore(policy)
    prompt = synth_tokens(2000, 3)
    access(store, prompt, 2000, 0.0)
    assert access(store, prompt, 0, 300.0) == (2000, 0)
    assert access(store, prompt, 0, 301.0) == (0, 0)


def test_refresh_on_read_extends_life():
    policy = make_policy(min_tokens=1024, granularity=1, ttl=300.0, refresh=True)
    store = CacheStore(policy)
    prompt = synth_tokens(1500, 4)
    access(store, prompt, 1500, 0.0)
    assert access(store, prompt, 0, 250.0) == (1500, 0)
    # the read at t=250 pushed expiry to t=550
    assert access(store, prompt, 0, 540.0) == (1500, 0)
    assert access(store, prompt, 0, 900.0) == (0, 0)


def test_refresh_touches_the_earliest_of_tied_matches():
    """Entries tied on the longest common prefix: only the first inserted is refreshed."""
    policy = make_policy(min_tokens=1024, granularity=1, ttl=300.0, refresh=True)
    store = CacheStore(policy)
    base = synth_tokens(1600, 16)
    first, second, probe = (_with_token(base, 1500, tok) for tok in (71, 72, 73))
    access(store, first, 1600, 0.0)
    access(store, second, 1600, 10.0)
    assert access(store, probe, 0, 20.0) == (1500, 0)
    assert [e.last_used_at for e in store.snapshot()] == [20.0, 10.0]


def test_granularity_floors_the_match():
    policy = make_policy(min_tokens=1024, granularity=128)
    store = CacheStore(policy)
    prompt = synth_tokens(2050, 6)
    assert access(store, prompt, 2050, 0.0) == (0, 2048)  # floor(2050 / 128) * 128
    assert access(store, prompt, 0, 0.0) == (2048, 0)
    # a probe extending past the stored prefix still matches only the stored part
    assert access(store, synth_tokens(2100, 6), 0, 0.0) == (2048, 0)


def test_commit_twice_is_free():
    policy = make_policy(min_tokens=1024, granularity=1)
    store = CacheStore(policy)
    prompt = synth_tokens(2000, 7)
    assert access(store, prompt, 2000, 0.0) == (0, 2000)
    assert access(store, prompt, 2000, 1.0) == (2000, 0)
    assert len(store) == 1


def test_commit_below_minimum_stores_nothing():
    policy = make_policy(min_tokens=1024, granularity=1)
    store = CacheStore(policy)
    assert access(store, synth_tokens(900, 8), 900, 0.0) == (0, 0)
    assert len(store) == 0


def test_commit_limit_out_of_range():
    policy = make_policy()
    for limit in (-1, 11):
        with pytest.raises(ValueError):
            access(CacheStore(policy), synth_tokens(10, 9), limit, 0.0)


def test_access_rejects_time_going_back_or_not_finite():
    policy = make_policy()
    store = CacheStore(policy)
    prompt = synth_tokens(10, 9)
    with pytest.raises(ValueError, match="finite"):
        access(store, prompt, 0, -math.inf)  # a fresh store has no last access
    access(store, prompt, 0, 5.0)
    for now in (4.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            access(store, prompt, 0, now)
    assert access(store, prompt, 0, 5.0) == (0, 0)


def test_commit_charges_only_the_extension():
    policy = make_policy(min_tokens=1024, granularity=1)
    store = CacheStore(policy)
    long_prompt = synth_tokens(3000, 10)
    assert access(store, long_prompt[:2000], 2000, 0.0) == (0, 2000)
    assert access(store, long_prompt, 3000, 1.0) == (2000, 1000)
    assert access(store, long_prompt, 0, 2.0) == (3000, 0)
    assert len(store) == 1  # the shorter entry was subsumed


def test_cumulative_writes_never_double_count():
    policy = make_policy(min_tokens=1024, granularity=128)
    store = CacheStore(policy)
    prompt = synth_tokens(4096, 11)
    total = sum(access(store, prompt, 4096, float(i))[1] for i in range(10))
    assert total == 4096


def test_purge_expired():
    """Every access first drops the entries that are no longer live."""
    policy = make_policy(min_tokens=1024, granularity=1, ttl=300.0)
    store = CacheStore(policy)
    other = synth_tokens(10, 17)
    access(store, synth_tokens(1500, 12), 1500, 0.0)
    access(store, other, 0, 100.0)
    assert len(store) == 1
    access(store, other, 0, 300.0)
    assert len(store) == 1  # live through t = created + ttl
    access(store, other, 0, 301.0)
    assert len(store) == 0


def test_read_your_write():
    policy = make_policy(min_tokens=1024, granularity=128)
    store = CacheStore(policy)
    prompt = synth_tokens(2500, 13)
    _, written = access(store, prompt, 2500, 0.0)
    assert written >= policy.min_cache_tokens
    assert access(store, prompt, 0, 0.5)[0] >= written


def _with_token(seq: np.ndarray, pos: int, token: int) -> np.ndarray:
    ids = seq.copy()
    ids[pos] = token
    ids.setflags(write=False)
    return ids


def test_dropped_entries_are_freed_without_gc():
    """Expired and subsumed entries die by reference counting alone, also
    when they spelled an edge shared with entries that stay."""
    policy = make_policy(min_tokens=1024, granularity=1, ttl=300.0)
    base = synth_tokens(2000, 18)
    branches = [_with_token(base, 1500, tok) for tok in (71, 72, 73)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # expiry: the first of three branches goes, then the second
        store = CacheStore(policy)
        for t, branch in enumerate(branches):
            access(store, branch, 2000, 100.0 * t)
        first, second, third = (weakref.ref(e) for e in store.snapshot())
        access(store, base, 0, 350.0)
        assert first() is None and second() is not None
        access(store, base, 0, 450.0)
        assert second() is None and third() is not None
        assert access(store, branches[2], 0, 450.0) == (2000, 0)

        # subsumption: the entry extended by a longer prompt goes
        store = CacheStore(policy)
        access(store, branches[0][:1800], 1800, 0.0)
        access(store, branches[1], 2000, 1.0)
        shorter = weakref.ref(store.snapshot()[0])
        assert access(store, branches[0], 2000, 2.0) == (1800, 200)
        assert shorter() is None
        assert access(store, branches[1], 0, 3.0) == (2000, 0)
    finally:
        if was_enabled:
            gc.enable()


def test_a_subsumed_template_is_freed():
    """The store pins an array only through the entries that view it: a
    2,000-token template whose only entry a longer prompt from another
    array subsumes is collected while that array stays the last one
    given."""
    policy = make_policy(min_tokens=1024, granularity=1)
    store = CacheStore(policy)
    template = synth_tokens(2000, 25)
    longer = np.concatenate([template, synth_tokens(500, 26)])
    longer.setflags(write=False)
    assert access(store, template, 2000, 0.0) == (0, 2000)
    assert access(store, longer, 2500, 1.0) == (2000, 500)
    dropped = weakref.ref(template)
    del template
    gc.collect()
    assert dropped() is None
    assert [entry.tokens.base is longer for entry in store.snapshot()] == [True]
    assert access(store, longer, 0, 2.0) == (2500, 0)


def test_every_write_is_a_read_only_view_of_its_array():
    """Every write, up to the end of the prompt, up to a breakpoint or cut
    short at a breaker, stores a read-only view of the first ids of the
    array passed to ``access``."""
    policy = make_policy(min_tokens=1024, granularity=128)
    store = CacheStore(policy)
    whole, partial, sealed = (synth_tokens(2100, seed) for seed in (19, 20, 24))
    assert access(store, whole, 2100, 0.0) == (0, 2048)
    assert access(store, partial, 1500, 1.0) == (0, 1408)
    assert access(store, sealed, 2050, 2.0, 1800, length=2050) == (0, 2048)
    got = store.snapshot()
    assert [(e.tokens.size, e.sealed) for e in got] == [(2048, False), (1408, False),
                                                        (1800, True)]
    for entry, array in zip(got, (whole, partial, sealed)):
        assert entry.tokens.base is array
        assert not entry.tokens.flags.writeable


@given(n=st.integers(1, 80), m=st.integers(0, 80), data=st.data())
@settings(max_examples=100)
def test_prefix_monotonicity(n, m, data):
    """If A is a prefix of B, B's lookup can only match more."""
    gran = data.draw(st.sampled_from([1, 4]))
    policy = make_policy(min_tokens=gran, granularity=gran)
    store = CacheStore(policy)
    base = synth_tokens(200, data.draw(st.integers(0, 5)))
    for _ in range(data.draw(st.integers(0, 4))):
        length = data.draw(st.integers(1, 200))
        access(store, base[:length], length, 0.0)
    b = base[:n + m]
    a = base[:n]
    assert access(store, a, 0, 1.0)[0] <= access(store, b, 0, 1.0)[0]


@given(seed=st.integers(0, 100), entries=st.integers(1, 5))
@settings(max_examples=60)
def test_zero_hit_when_first_token_differs_everywhere(seed, entries):
    policy = make_policy(min_tokens=1, granularity=1)
    store = CacheStore(policy)
    for i in range(entries):
        access(store, synth_tokens(30, seed + i), 30, 0.0)
    probe_ids = synth_tokens(30, seed).copy()
    probe_ids[0] = 70  # outside every stored first token with overwhelming odds
    first_tokens = {int(e.tokens[0]) for e in store.snapshot()}
    if 70 not in first_tokens:
        assert access(store, probe_ids, 0, 0.0) == (0, 0)


_POLICY_GRID = [(1, 1), (1024, 1), (1024, 128), (4096, 1), (4096, 128)]


def _state(store: CacheStore) -> list[tuple[int, float]]:
    """Each engine entry's length and the expiry reference its purge uses."""
    return [(e.tokens.size, e.last_used_at) for e in store.snapshot()]


_LIMITS = {"commit": lambda n: n, "partial": lambda n: n // 2, "lookup": lambda n: 0}


@st.composite
def _interleavings(draw):
    min_tokens, gran = draw(st.sampled_from(_POLICY_GRID))
    policy = make_policy(min_tokens=min_tokens, granularity=gran,
                         ttl=draw(st.sampled_from([1.0, 300.0])),
                         refresh=draw(st.booleans()))
    scale = max(2, min_tokens + 200)
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        steps.append((
            draw(st.sampled_from(sorted(_LIMITS))),
            draw(st.integers(0, 3)),            # base stream
            draw(st.integers(1, scale)),        # prefix length
            draw(st.integers(0, 2)),            # mutation: 0 none, else position seed
            draw(st.floats(0.0, 400.0)),        # time increment
        ))
    return policy, steps


@given(case=_interleavings())
@settings(max_examples=80, deadline=None)
def test_lookup_matches_oracle_on_random_interleavings(case):
    """Read, write and the store after every step agree with the oracle."""
    policy, steps = case
    store = CacheStore(policy)
    expected_entries = []
    now = 0.0
    bases = {i: synth_tokens(policy.min_cache_tokens + 220, 1000 + i) for i in range(4)}
    for op, base, length, mutate, dt in steps:
        now += dt
        prompt = bases[base][:length]
        if mutate:
            prompt = _with_token(prompt, (mutate * 7919) % len(prompt), 77)
        limit = _LIMITS[op](len(prompt))
        read, write, expected_entries = oracle_access(expected_entries, prompt, limit,
                                                      now, policy)
        assert access(store, prompt, limit, now) == (read, write)
        assert _state(store) == [(e.tokens.size, e.expires_from(policy))
                                 for e in expected_entries]


def test_oracle_never_mutates():
    policy = make_policy(min_tokens=1024, granularity=1, refresh=True)
    store = CacheStore(policy)
    prompt = synth_tokens(1500, 15)
    access(store, prompt, 1500, 0.0)
    entries = oracle_access([], prompt, 1500, 0.0, policy)[2]
    before = [(e.created_at, e.last_used_at) for e in entries]
    assert oracle_access(entries, np.concatenate([prompt, synth_tokens(10, 16)]),
                         1510, 10.0, policy)[:2] == (1500, 10)
    assert [(e.created_at, e.last_used_at) for e in entries] == before
    # the engine does refresh
    access(store, prompt, 0, 10.0)
    assert store.snapshot()[0].last_used_at == 10.0


def test_store_keeps_one_expiry_rule():
    """A store expires entries by the policy it was built for, and rejects
    any stop outside the prompt."""
    store = CacheStore(make_policy(ttl=10.0))
    prompt = synth_tokens(1500, 4)
    access(store, prompt, 1500, 0.0)
    for stop in (-1, 1501):
        with pytest.raises(ValueError, match="stop"):
            access(store, prompt, 0, 1.0, stop)
    assert access(store, prompt, 0, 1.0) == (1500, 0)
    assert access(store, prompt, 0, 11.0) == (0, 0)


def test_opportunistic_store_reads_repeated_segments():
    """An opportunistic-segments store adds each segment it has seen before
    and that starts past the prefix read to the read, rounded down to the
    granularity; the write is charged beyond the prefix read alone. Only a
    run that a breaker closes is a segment: the run that reaches the
    prompt's end reads nothing, even when its content was seen as a
    segment. A plain store ignores segments, and a prompt without a
    breaker has none."""
    system, chunk = synth_tokens(1200, 1), synth_tokens(300, 2)
    breaker = np.zeros(2, dtype=np.uint64)
    prompt = np.concatenate([system, breaker, chunk, breaker, chunk, breaker, chunk])
    prompt.setflags(write=False)
    segments = tuple((a, prompt[a:b].tobytes())
                     for a, b in ((0, 1200), (1202, 1502), (1504, 1804), (1806, 2106)))
    plain = builtin_policy("gpt-4o")
    stores = {False: CacheStore(plain),
              True: CacheStore(replace(plain, opportunistic_segments=True))}
    for store in stores.values():
        # Nothing seen yet: the repeated chunk does not match itself.
        assert access(store, prompt, 2106, 0.0, 1200, segments) == (0, 2048)
    assert access(stores[False], prompt, 2106, 1.0, 1200, segments) == (1152, 896)
    assert access(stores[True], prompt, 2106, 1.0, 1200, segments) == (1152 + 2 * 256, 896)
    assert access(stores[True], chunk, 0, 2.0, None, ((0, chunk.tobytes()),)) == (0, 0)


_FRESH = 10**12  # breaker ids from here up; content ids are below it


def _sealed_interleaving(rng: random.Random):
    """A policy and up to 40 steps of (content, breaker slots, limit, time step)
    over a 2-5 token alphabet, so entries share long prefixes and sealed ones
    end at interior nodes and inside edges."""
    alphabet = range(64, 64 + rng.randint(2, 5))
    gran = rng.choice([1, 2, 3])
    policy = make_policy(min_tokens=gran * rng.randint(1, 3), granularity=gran,
                         ttl=rng.choice([1.0, 4.0, 300.0]), refresh=rng.random() < 0.5)
    bases = [[rng.choice(alphabet) for _ in range(30)] for _ in range(3)]
    steps = []
    for _ in range(rng.randint(1, 40)):
        tokens = rng.choice(bases)[:rng.randint(1, 30)]
        if rng.random() < 0.5:
            tokens[rng.randrange(len(tokens))] = rng.choice(alphabet)
        slots = sorted(rng.sample(range(len(tokens)), min(len(tokens), rng.randint(0, 3))))
        limit = rng.choice([len(tokens), 0, rng.randint(0, len(tokens))])
        steps.append((tokens, slots, limit, rng.choice([0.0, 0.5, 1.0, 3.0])))
    return policy, steps


@given(seed=st.integers(0, 2**64 - 1))
@settings(max_examples=1200, deadline=None)
def test_sealed_entries_match_the_oracle_with_fresh_breakers(seed):
    """The oracle sees each prompt with real, never-repeated breaker ids; the
    engine sees a placeholder 0 in every breaker slot and stops at the first.
    Reads, writes and the store agree after every step, and each entry holds
    the oracle entry's tokens up to its first breaker, sealed if it had one."""
    policy, steps = _sealed_interleaving(random.Random(seed))
    store = CacheStore(policy)
    expected_entries = []
    now = 0.0
    fresh = _FRESH
    for tokens, slots, limit, dt in steps:
        now += dt
        real, placeholder = list(tokens), list(tokens)
        for slot in slots:
            real[slot] = fresh
            placeholder[slot] = 0
            fresh += 1
        stop = slots[0] if slots else len(tokens)
        read, write, expected_entries = oracle_access(
            expected_entries, np.array(real, dtype=np.uint64), limit, now, policy)
        assert access(store, np.array(placeholder, dtype=np.uint64), limit, now,
                      stop) == (read, write)
        got = store.snapshot()
        assert [e.last_used_at for e in got] == [
            e.expires_from(policy) for e in expected_entries]
        for entry, expected in zip(got, expected_entries):
            ids = expected.tokens.tolist()
            cut = next((i for i, t in enumerate(ids) if t >= _FRESH), len(ids))
            assert entry.tokens.size == cut
            assert entry.sealed == (cut < len(ids))
            assert entry.tokens.tolist() == ids[:cut]


def test_an_offset_view_of_an_entrys_origin_is_compared():
    """A prompt that views the same array as a stored entry, but from
    another first token, shares no memory identity with the entry's array
    that would let it skip the comparison: it reads only what it shares."""
    policy = make_policy(min_tokens=1, granularity=1)
    template = np.concatenate([np.full(5, 70, dtype=np.uint64), synth_tokens(2000, 21)])
    template.setflags(write=False)
    store = CacheStore(policy)
    entries = oracle_access([], template, 2005, 0.0, policy)[2]
    assert access(store, template, 2005, 0.0) == (0, 2005)
    for now, prompt in enumerate((template[1:], template[:], template[1:], template), 1):
        read, write, entries = oracle_access(entries, prompt, 0, float(now), policy)
        assert access(store, prompt, 0, float(now)) == (read, write)
    assert access(store, template[1:], 0, 9.0) == (4, 0)
    assert access(store, template, 0, 10.0, length=1500) == (1500, 0)


def test_length_sends_a_prefix_of_the_array():
    """``length`` sends the array's first tokens: it reads and writes as
    the sliced prompt would, bounds ``stop`` and the limit, and must lie
    inside the array."""
    policy = make_policy(min_tokens=1024, granularity=1)
    template = synth_tokens(3000, 22)
    sliced, whole = CacheStore(policy), CacheStore(policy)
    for now, n in enumerate((1200, 2000, 3000)):
        assert (access(whole, template, n, float(now), length=n)
                == access(sliced, template[:n], n, float(now)))
    assert [e.tokens.size for e in whole.snapshot()] == [3000]
    for length, limit, stop in ((-1, 0, None), (3001, 0, None), (10, 11, None), (10, 0, 11)):
        with pytest.raises(ValueError):
            access(whole, template, limit, 5.0, stop, length=length)


class _Logged(np.ndarray):
    """A session template whose slices log each elementwise ``!=`` made
    with them as ``(own template, other operand's template, first
    position, tokens compared)``, so a test counts the engine's token
    comparisons without a counter in the engine."""

    def __array_finalize__(self, obj):
        self.template = getattr(obj, "template", None)
        self.log = getattr(obj, "log", None)

    def __ne__(self, other):
        first = (self.__array_interface__["data"][0]
                 - self.template.__array_interface__["data"][0]) // self.itemsize
        self.log.append((self.template, getattr(other, "template", None), first, self.size))
        return np.asarray(self) != np.asarray(other)


def _logged(ids: np.ndarray, log: list) -> _Logged:
    template = ids.view(_Logged)
    template.setflags(write=False)
    template.template, template.log = template, log
    return template


@pytest.mark.parametrize("ttl", [300.0, 12.0])
def test_a_session_compares_each_position_once(ttl):
    """Four sessions of eight growing requests over a shared 5,000-token
    system prompt, each pair also sharing a 300-token task, under a
    granularity that leaves some calls unwritten. A session never compares
    its template with itself, compares each position of it with stored
    tokens at most once, and the system prompt exactly once: tokens
    compared are bounded by the sessions' template lengths, not by their
    calls. At a 12 s TTL, session 0's entries expire during session 2's
    calls, so the entry that the system prompt's edge is read through
    changes mid-session."""
    policy = make_policy(min_tokens=1024, granularity=128, ttl=ttl)
    system = synth_tokens(5000, 31)
    tasks = [synth_tokens(300, 32 + t) for t in range(2)]
    store = CacheStore(policy)
    log: list = []
    bound = 0
    now = 0.0
    for s in range(4):
        template = _logged(np.concatenate([system, tasks[s // 2], synth_tokens(480, 40 + s)]),
                           log)
        start = len(log)
        for r in range(1, 9):
            n = 5300 + 60 * r
            access(store, template, n, now, length=n)
            now += 1.0
        compared = np.zeros(template.size, dtype=np.int64)
        for own, other, first, size in log[start:]:
            assert own is template and other is not template
            compared[first:first + size] += 1
        assert compared.max(initial=0) <= 1
        assert s == 0 or (compared[:5000] == 1).all()
        if s:
            bound += template.size
    assert sum(size for *_, size in log) <= bound


def _session_interleaving(rng: random.Random):
    """A policy, up to four session templates and up to 30 steps of
    (session, length, limit, time step). Templates share a prefix of random
    length, two may be equal arrays that are different objects, and some
    hold a breaker slot (a placeholder 0); each session mostly grows its
    prompt, as replay does."""
    gran = rng.choice([1, 4, 16])
    policy = make_policy(min_tokens=gran * rng.randint(1, 8), granularity=gran,
                         ttl=rng.choice([2.0, 6.0, 300.0]), refresh=rng.random() < 0.5)
    alphabet = range(64, 64 + rng.randint(2, 4))
    shared = [rng.choice(alphabet) for _ in range(rng.randint(100, 700))]
    templates, slots = [], []
    for _ in range(rng.randint(1, 4)):
        if templates and rng.random() < 0.25:
            i = rng.randrange(len(templates))
            template, slot = templates[i].copy(), slots[i]
        else:
            ids = shared[:rng.randint(0, len(shared))]
            ids += [rng.choice(alphabet) for _ in range(rng.randint(1, 700))]
            slot = rng.randrange(len(ids)) if rng.random() < 0.4 else None
            if slot is not None:
                ids[slot] = 0
            template = np.array(ids, dtype=np.uint64)
        template.setflags(write=False)
        templates.append(template)
        slots.append(slot)
    lengths = [0] * len(templates)
    steps = []
    for _ in range(rng.randint(1, 30)):
        s = rng.randrange(len(templates))
        size = templates[s].size
        if rng.random() < 0.8:
            lengths[s] = min(size, lengths[s] + rng.randint(1, 200))
        else:
            lengths[s] = rng.randint(1, size)
        n = lengths[s]
        limit = rng.choice([n, n, 0, rng.randint(0, n)])
        steps.append((s, n, limit, rng.choice([0.0, 0.5, 1.0, 3.0])))
    return policy, templates, slots, steps


@pytest.mark.parametrize("seed", range(40))
def test_session_templates_match_the_oracle(seed):
    """Sessions sent as growing lengths of shared read-only templates,
    interleaved, with expiry, refresh-on-read and breakpoint writes: the
    engine, which compares each stored edge with a template once, agrees
    with the oracle's plain scan on every read, every write and the store
    after every step. The oracle sees each prompt as its own array, with
    a fresh breaker id in the template's breaker slot."""
    policy, templates, slots, steps = _session_interleaving(random.Random(seed))
    store = CacheStore(policy)
    expected_entries = []
    now = 0.0
    fresh = _FRESH
    for s, n, limit, dt in steps:
        now += dt
        real = templates[s][:n].copy()
        slot = slots[s]
        stop = n if slot is None or slot >= n else slot
        if stop < n:
            real[slot] = fresh
            fresh += 1
        read, write, expected_entries = oracle_access(expected_entries, real, limit, now,
                                                      policy)
        assert access(store, templates[s], limit, now, stop, length=n) == (read, write)
        got = store.snapshot()
        assert [e.last_used_at for e in got] == [
            e.expires_from(policy) for e in expected_entries]
        for entry, expected in zip(got, expected_entries):
            ids = expected.tokens.tolist()
            cut = next((i for i, t in enumerate(ids) if t >= _FRESH), len(ids))
            assert entry.tokens.tolist() == ids[:cut]
            assert entry.sealed == (cut < len(ids))

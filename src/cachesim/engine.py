"""Simulated provider-side prefix cache.

A store is built for one provider policy and is the only place that
applies its cache rules: the minimum, the block granularity, the TTL,
refresh-on-read and, for an opportunistic-segments policy, segment reuse.
It holds previously cached token prefixes, each with one expiry
reference in simulated seconds, its last use: its creation, moved to each
read that hits it under a refresh-on-read policy. An entry is live at
time ``t`` while ``t - last_used_at <= ttl``.

Dynamic content is a *breaker*: a fresh token that no earlier prompt
holds, so no entry can match at or past it. A prompt may therefore carry
a placeholder in its breaker slots and name its first slot ``stop``: the
cache never reads a token from ``stop`` on, and an entry never stores
one. An entry cut short at its first breaker is *sealed*: the breaker
that followed its last token made it distinct from every other prompt,
so it is never a prefix of a later entry.

Each API call is one :func:`access`, which works in four steps:

1. **Purge.** Entries no longer live are dropped. This changes no result:
   the clock never goes back and a refresh only touches live entries, so
   a dead entry can never serve a read again.
2. **Read.** The cached length is the longest common prefix between the
   prompt's first ``stop`` tokens and any stored entry, rounded down to
   the policy's block granularity; it counts only if it clears the
   policy's minimum. On a hit under a refresh-on-read policy, one entry
   has its last use moved to now: the earliest-inserted entry among
   those sharing the longest common prefix.
3. **Write.** The prompt prefix up to the cacheable limit, rounded down
   to the granularity (``w``), is cached if it reaches the minimum and is
   longer than the read. Only the ``w - read`` tokens beyond the read are
   charged, so re-caching an unchanged prompt is free. The entry stores
   the first ``min(w, stop)`` tokens and is sealed when ``w > stop``.
   Unsealed entries that are prefixes of the new one are dropped
   (subsumed): the new entry matches at least as much and expires no
   sooner. Every entry is a read-only view of the first ``min(w, stop)``
   ids of the array given to :func:`access`: it copies no token and pins
   that whole array, which for a prompt served from a session layout is
   the session's template that all of the session's entries share.
4. **Segments.** Under an opportunistic-segments policy, a provider that
   reuses repeated interior content is modeled as matching any segment
   it has seen verbatim before, in any earlier call to the store. A
   segment is a non-empty breaker-free run that a breaker closes inside
   the prompt; the run that reaches the prompt's end is not one. Each
   seen segment that starts at or past the prefix read adds its length,
   rounded down to the granularity, to the read; the write charge of
   step 3 stays as it was. Segments are remembered by their full
   content, never expire and are compared exactly, so two segments never
   collide. The caller passes each segment's content already serialized,
   and a session layout serializes each of its segments once for all its
   requests, so a segment costs one set lookup and no copy.

The entries are indexed by a token-level radix tree. A node's children
are keyed by the first token of their edge; the entries that end at a
node are ``held`` there, in insertion order. A node stores only where
its edge ends; the edge starts where its parent's ends, so it is the
range ``rep.tokens[parent.end:end]`` over the node's ``rep``, the
earliest-inserted entry among its first held entry and its children's
reps. The tree copies no tokens and holds no back-pointers. A read walks
the prompt's path, matching each edge's tokens exactly, so membership
is decided by token equality, never by a hash. The walk stops where the
prompt leaves the tree or reaches ``stop``; every entry below that point
shares the longest common prefix and the node's ``rep`` is the one the
tie-break refreshes. An unsealed entry ends alone at a leaf, because a
new entry never stops at or inside a live unsealed one and the ones it
extends are dropped. Sealed entries may end at any node, several at one
node, and a sealed entry that ends inside an edge splits it.

A prompt is the first ``length`` tokens of an array: replay passes a
session layout's template, so all of a session's requests share one.
**Arrays given to a store are read-only and never written afterwards**
(the store already relies on this to keep views of them as entries), so
an array that agrees with stored tokens on a prefix agrees on it for
good. The store remembers the last array it was given, by identity, and
counts an *epoch* that each other array starts. Each node remembers, for
the epoch it last saw, how many leading tokens of its path that array is
known to share and whether their first difference has been found. That
is a fact about the edge, not about its ``rep``: every entry below the
node spells the same path, so expiry, subsumption and a new ``rep``
leave it true, and so does merging a node into its only child, which the
walk reaches only after the merged edge matched in full. A node is
compared only past what is known, and at most as far as the walk needs,
the edge's end or ``stop``, in one pass; the pass has no early exit, as
the walk enters an edge only through a matching first token and the two
then mostly agree to its end. A write cuts its entry from the current
array, so each node it creates or extends is known to agree to its end.
A session sent as growing lengths of one template thus compares each
edge once, not once per call. An array given again after another one
starts a new epoch and compares its own edges again: interleaving
arrays costs comparisons, never a different result, and replay sends
each session's calls to a store one after another.

The store keeps its entries in order of their last use: a write appends
its entry and a refresh moves the hit to the end, and the clock never
goes back. The purge pops from the front until it meets a live entry, so
it costs O(expired).

The tests referee the engine with ``oracle_access`` in
``tests/reference.py``, which restates the contract as a plain scan over
a list of entries, with token-by-token comparison, no numpy, no index and
no ``stop``: it is given prompts with real, fresh breaker ids. Both must
agree on every read, every write and the resulting store, which
randomized interleaving tests enforce.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .policies import ProviderPolicy


@dataclass(eq=False)
class CacheEntry:
    """One stored prefix. ``tokens`` is a read-only uint64 view of the
    first ``tokens.size`` ids of the array its prompt was given to
    :func:`access` as; ``last_used_at`` is its expiry reference;
    ``sealed`` marks an entry cut short at its prompt's first breaker.

    Entries compare and hash by identity.
    """

    tokens: np.ndarray
    last_used_at: float
    sealed: bool = False


class _Node:
    """Radix-tree node; the edge into it starts at its parent's ``end`` and
    spells ``rep.tokens[parent.end:end]``; ``held`` lists the entries that
    end at it. In store epoch ``epoch``, the array then given shares at
    least ``agreed`` leading tokens with the node's path, exactly that
    many if ``found``. A new node is cut from the current array, so it
    agrees to its end."""

    __slots__ = ("rep", "end", "children", "held", "epoch", "agreed", "found")

    def __init__(self, rep: CacheEntry | None, end: int, epoch: int,
                 children: dict[int, _Node] | None = None,
                 held: list[CacheEntry] | None = None) -> None:
        self.rep = rep
        self.end = end
        self.children = {} if children is None else children
        self.held = [] if held is None else held
        self.epoch = epoch
        self.agreed = end
        self.found = False


class CacheStore:
    """Cached prefixes of one run under ``policy``'s cache rules."""

    def __init__(self, policy: ProviderPolicy) -> None:
        self.policy = policy
        # Each entry's insertion rank, which the read tie-break needs, kept
        # in order of the expiry reference, which the purge needs.
        self._entries: OrderedDict[CacheEntry, int] = OrderedDict()
        self._inserted = 0
        self._root = _Node(None, 0, 0)
        self._now = -math.inf
        # The last array given, and the epoch it started.
        self._prompt: np.ndarray | None = None
        self._epoch = 0
        # The content of every segment seen, under opportunistic segments.
        self._seen: set[bytes] | None = set() if policy.opportunistic_segments else None

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> tuple[CacheEntry, ...]:
        """Point-in-time view of the entries, in insertion order."""
        return tuple(sorted(self._entries, key=self._entries.__getitem__))

    def _repoint(self, path: list[_Node], gone: CacheEntry) -> None:
        """Give the nodes of ``path`` (root first) that pointed at ``gone``
        the earliest entry of their subtree again, deepest node first."""
        rank = self._entries.__getitem__
        for node in reversed(path):
            if node.rep is not gone:
                break  # an ancestor's rep is never later than its child's
            reps = [child.rep for child in node.children.values()]
            if node.held:
                reps.append(node.held[0])
            node.rep = min(reps, key=rank)

    def _remove(self, entry: CacheEntry) -> None:
        del self._entries[entry]
        tokens = entry.tokens
        path = []
        node = self._root
        while node.end < tokens.size:
            path.append(node)
            node = node.children[int(tokens[node.end])]
        node.held.remove(entry)
        if node is not self._root and not node.held:
            if not node.children:
                node = path.pop()
                del node.children[int(tokens[node.end])]
            if node is not self._root and not node.held and len(node.children) == 1:
                # A one-child node that holds no entry is merged into its child.
                (only,) = node.children.values()
                path[-1].children[int(tokens[path[-1].end])] = only
                node = path.pop()
        path.append(node)
        self._repoint(path, entry)

    def _purge(self, now: float) -> None:
        entries = self._entries
        ttl = self.policy.ttl_seconds
        while entries:
            oldest = next(iter(entries))
            if now - oldest.last_used_at <= ttl:
                break
            self._remove(oldest)

    def _agreement(self, node: _Node, depth: int, end: int) -> int:
        """How many leading tokens the current array, known to agree with
        ``node``'s path below ``depth``, shares with it: the exact count if
        it is below ``end``, else at least ``end``."""
        if node.epoch != self._epoch:
            node.epoch = self._epoch
            node.agreed = 0
            node.found = False
        elif node.found or node.agreed >= end:
            return node.agreed
        agreed = max(node.agreed, depth)
        differs = self._prompt[agreed:end] != node.rep.tokens[agreed:end]
        k = int(differs.argmax())
        if differs[k]:
            agreed += k
            node.found = True
        else:
            agreed = end
        node.agreed = agreed
        return agreed


def access(store: CacheStore, prompt: np.ndarray, cacheable_limit: int,
           now: float, stop: int | None = None,
           segments: Sequence[tuple[int, bytes]] = (), *,
           length: int | None = None) -> tuple[int, int]:
    """One API call against the cache: returns ``(read, write)`` tokens.

    The call sends ``prompt[:length]`` (the whole array when ``length`` is
    omitted). ``prompt`` is a read-only ``uint64`` token array that must
    never be written afterwards: a written entry is a view of its first
    ids, and the store's tree remembers how far it agrees with each
    stored edge (see the module docstring), so a caller that sends a
    session's requests as growing lengths of one template compares each
    stored token once per session, not once per call. Positions below
    are in the prompt sent.

    Purges expired entries, reads the longest usable cached prefix of
    the prompt (refreshing the matched entry under a refresh-on-read
    policy), then caches the prefix up to ``cacheable_limit`` and charges
    only the tokens beyond the read. A limit of 0 makes it a pure read.
    ``stop`` is the position of the prompt's first breaker (the whole
    prompt when omitted): no token from it on is read or stored.
    ``segments`` are the prompt's breaker-free runs in ascending order,
    each as ``(start, content)`` with ``content`` the run's tokens as
    bytes (``prompt[start:end].tobytes()``); only the runs that end before
    the prompt's end, where a breaker closes them, are segments, and the
    first run that reaches it ends the list, so a session layout's
    ``segment_contents`` can be passed for any of its requests. Only an
    opportunistic-segments store reads them. ``now`` must be finite and no
    earlier than the store's last access.
    """
    n = int(prompt.size)
    if length is not None:
        if length < 0 or length > n:
            raise ValueError(f"length {length} outside array of {n} tokens")
        n = length
    if stop is None:
        stop = n
    if cacheable_limit < 0 or cacheable_limit > n:
        raise ValueError(
            f"cacheable_limit {cacheable_limit} outside prompt of {n} tokens")
    if stop < 0 or stop > n:
        raise ValueError(f"stop {stop} outside prompt of {n} tokens")
    if not (math.isfinite(now) and store._now <= now):
        raise ValueError(
            f"access at {now} s: the store was last accessed at {store._now} s "
            "and time must stay finite and never go back")
    store._now = now
    if prompt is not store._prompt:
        store._prompt = prompt
        store._epoch += 1
    if store._entries:
        store._purge(now)

    # Walk the prompt's path: ``node`` is the last node fully matched and
    # ``path`` the nodes above it; ``cut`` is the child whose edge the
    # prompt leaves (or stops in) part-way, at ``depth``.
    path: list[_Node] = []
    node = store._root
    cut: _Node | None = None
    depth = 0
    while depth < stop:
        child = node.children.get(int(prompt[depth]))
        if child is None:
            break
        end = min(child.end, stop)
        agreed = store._agreement(child, depth, end)
        if agreed < end:
            depth = agreed
            cut = child
            break
        depth = end
        if end < child.end:
            cut = child
            break
        path.append(node)
        node = child

    policy = store.policy
    g = policy.granularity_tokens
    read = depth // g * g
    if read < policy.min_cache_tokens:
        read = 0
    elif policy.refresh_on_read:
        hit = (cut or node).rep
        hit.last_used_at = now
        store._entries.move_to_end(hit)

    w = cacheable_limit // g * g
    write = 0
    if w >= policy.min_cache_tokens and w > read:
        write = w - read
        # Here w > depth, and the stored part ends at or past where the prompt
        # left the tree.
        size = min(w, stop)
        stored = prompt[:size]
        stored.setflags(write=False)
        entry = CacheEntry(tokens=stored, last_used_at=now, sealed=w > stop)
        store._entries[entry] = store._inserted
        store._inserted += 1
        if cut is None and node.held and not node.held[0].sealed:
            # ``node`` is the leaf of an unsealed entry the new one extends: subsume it.
            # The walk matched it in full, so its path now agrees to its new end.
            gone = node.held[0]
            node.rep = entry
            node.end = node.agreed = size
            node.held = [entry]
            del store._entries[gone]
            store._repoint(path, gone)
        else:
            if cut is not None:
                # Split the edge the prompt left: ``mid`` keeps the shared part.
                mid = _Node(cut.rep, depth, store._epoch, {int(cut.rep.tokens[depth]): cut})
                node.children[int(prompt[node.end])] = mid
                node = mid
            if size == depth:
                node.held.append(entry)
            else:
                node.children[int(prompt[depth])] = _Node(entry, size, store._epoch, held=[entry])

    seen = store._seen
    if seen is not None:
        extra = 0
        contents = []
        itemsize = prompt.itemsize
        for start, data in segments:
            if start + len(data) // itemsize >= n:
                break  # no breaker closes this run inside the prompt
            if start >= read and data in seen:
                extra += len(data) // itemsize // g * g
            contents.append(data)
        seen.update(contents)
        read += extra
    return read, write

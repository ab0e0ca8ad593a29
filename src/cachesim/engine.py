"""Simulated provider-side prefix cache.

The store holds previously cached token prefixes with creation and
last-use timestamps under a virtual clock. An entry is live at time
``t`` while ``t - reference <= ttl``, where the reference is the last
use for refresh-on-read policies and the creation time otherwise.

Each API call is one :func:`access`, which works in three steps:

1. **Purge.** Entries no longer live are dropped. This changes no result:
   the clock never goes back and a refresh only touches live entries, so
   a dead entry can never serve a read again.
2. **Read.** The cached length is the longest common prefix between the
   prompt and any stored entry, rounded down to the policy's block
   granularity; it counts only if it clears the policy's minimum. On a
   hit under a refresh-on-read policy, one entry has its last use moved
   to now: the earliest-inserted entry among those sharing the longest
   common prefix.
3. **Write.** The prompt prefix up to the cacheable limit, rounded down
   to the granularity, is stored if it reaches the minimum and is longer
   than the read. Only the tokens beyond the read are charged, so
   re-caching an unchanged prompt is free. Entries that are prefixes of
   the new one are dropped (subsumed): the new entry matches at least as
   much and expires no sooner. When the limit is the whole prompt, the
   entry is a read-only view of the prompt's ids, which pins at most
   ``granularity - 1`` tokens beyond it (and, for a prompt that is
   itself a view, the array it views); a write up to an earlier
   breakpoint stores a copy, so the entry does not keep the rest of the
   prompt alive.

The entries are indexed by a token-level radix tree. A node's children
are keyed by the first token of their edge, and each edge is a range
``rep.tokens[start:end]`` over the earliest-inserted entry ``rep`` in the
node's subtree, so the tree copies no tokens and holds no back-pointers.
A read walks the prompt's path, comparing each edge's tokens exactly, so
membership is decided by token equality, never by a hash. The walk
stops where the prompt leaves the tree; every entry below that point
shares the longest common prefix and the node's ``rep`` is the one the
tie-break refreshes. Because a new entry is never a prefix of a live one
and the entries it extends are dropped, every entry ends at a leaf.

``oracle_access`` restates the contract as a plain scan over a list of
entries, with token-by-token comparison, no numpy and no index. It exists
to referee the engine: both must agree on every read, every write and
the resulting store, which randomized interleaving tests enforce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .policies import ProviderPolicy
from .tokens import TokenSeq


@dataclass(eq=False)
class CacheEntry:
    """One stored prefix. ``tokens`` is a read-only uint64 array.

    Entries compare and hash by identity.
    """

    tokens: np.ndarray
    created_at: float
    last_used_at: float

    @property
    def length(self) -> int:
        return int(self.tokens.size)


class _Node:
    """Radix-tree node; the edge into it spells ``rep.tokens[start:end]``."""

    __slots__ = ("rep", "start", "end", "children")

    def __init__(self, rep: CacheEntry | None, start: int, end: int,
                 children: dict[int, _Node] | None = None) -> None:
        self.rep = rep
        self.start = start
        self.end = end
        self.children = {} if children is None else children


class CacheStore:
    """Container for cached prefixes belonging to one (policy, run)."""

    def __init__(self) -> None:
        # Insertion order of the entries, which the read tie-break needs.
        self._entries: dict[CacheEntry, int] = {}
        self._inserted = 0
        self._root = _Node(None, 0, 0)
        self._now = -math.inf

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> tuple[CacheEntry, ...]:
        """Point-in-time view of the entries, in insertion order."""
        return tuple(self._entries)

    def _repoint(self, path: list[_Node], gone: CacheEntry) -> None:
        """Give the nodes of ``path`` (root first) that pointed at ``gone``
        the earliest entry of their subtree again, deepest node first."""
        order = self._entries.__getitem__
        for node in reversed(path):
            if node.rep is not gone:
                break  # an ancestor's rep is never later than its child's
            node.rep = min((child.rep for child in node.children.values()), key=order)

    def _remove(self, entry: CacheEntry) -> None:
        del self._entries[entry]
        tokens = entry.tokens
        path = []
        node = self._root
        while node.children:
            path.append(node)
            node = node.children[int(tokens[node.end])]
        parent = path[-1]
        del parent.children[int(tokens[parent.end])]
        if parent is not self._root and len(parent.children) == 1:
            # A one-child node is merged into its child.
            path.pop()
            (only,) = parent.children.values()
            only.start = parent.start
            path[-1].children[int(tokens[parent.start])] = only
        self._repoint(path, entry)

    def _purge(self, now: float, policy: ProviderPolicy) -> None:
        ttl = policy.ttl_seconds
        if policy.refresh_on_read:
            dead = [e for e in self._entries if now - e.last_used_at > ttl]
        else:
            dead = [e for e in self._entries if now - e.created_at > ttl]
        for entry in dead:
            self._remove(entry)


def access(store: CacheStore, prompt: TokenSeq, cacheable_limit: int,
           now: float, policy: ProviderPolicy) -> tuple[int, int]:
    """One API call against the cache: returns ``(read, write)`` tokens.

    Purges expired entries, reads the longest usable cached prefix of
    ``prompt`` (refreshing the matched entry under a refresh-on-read
    policy), then caches the prefix up to ``cacheable_limit`` and charges
    only the tokens beyond the read. A limit of 0 makes it a pure read.
    """
    ids = prompt.ids
    n = int(ids.size)
    if cacheable_limit < 0 or cacheable_limit > n:
        raise ValueError(
            f"cacheable_limit {cacheable_limit} outside prompt of {n} tokens")
    if not store._now <= now < math.inf:
        raise ValueError(
            f"access at {now} s: the store was last accessed at {store._now} s "
            "and time must stay finite and never go back")
    store._now = now
    if store._entries:
        store._purge(now, policy)

    # Walk the prompt's path: ``node`` is the last node fully matched and
    # ``path`` the nodes above it; ``cut`` is the child whose edge the
    # prompt leaves (or ends in) part-way, at ``depth``.
    path: list[_Node] = []
    node = store._root
    cut: _Node | None = None
    depth = 0
    while depth < n:
        child = node.children.get(int(ids[depth]))
        if child is None:
            break
        end = min(child.end, n)
        differs = ids[depth:end] != child.rep.tokens[depth:end]
        k = int(differs.argmax())
        if differs[k]:
            depth += k
            cut = child
            break
        depth = end
        if end < child.end:
            cut = child
            break
        path.append(node)
        node = child

    g = policy.granularity_tokens
    read = depth // g * g
    if read < policy.min_cache_tokens:
        read = 0
    elif policy.refresh_on_read:
        (cut or node).rep.last_used_at = now

    w = cacheable_limit // g * g
    if w < policy.min_cache_tokens or w <= read:
        return read, 0
    # Here w > depth: the new entry extends past where the prompt left the tree.
    # View or copy: see the write step in the module docstring.
    stored = ids[:w] if cacheable_limit == n else ids[:w].copy()
    stored.setflags(write=False)
    entry = CacheEntry(tokens=stored, created_at=now, last_used_at=now)
    store._entries[entry] = store._inserted
    store._inserted += 1
    if cut is not None:
        # Split the edge the prompt left: ``mid`` keeps the shared part.
        mid = _Node(cut.rep, cut.start, depth, {int(cut.rep.tokens[depth]): cut,
                                                int(ids[depth]): _Node(entry, depth, w)})
        node.children[int(ids[cut.start])] = mid
        cut.start = depth
    elif node.children or node is store._root:
        node.children[int(ids[depth])] = _Node(entry, depth, w)
    else:
        # ``node`` is the leaf of an entry the new one extends: subsume it.
        gone = node.rep
        node.rep = entry
        node.end = w
        del store._entries[gone]
        store._repoint(path, gone)
    return read, w - read


def oracle_access(entries: Iterable[CacheEntry], prompt: TokenSeq,
                  cacheable_limit: int, now: float,
                  policy: ProviderPolicy) -> tuple[int, int, list[CacheEntry]]:
    """Reference for :func:`access` over a plain list of entries.

    Returns ``(read, write, entries_after)``. The given entries are left
    untouched: ``entries_after`` holds copies, in insertion order, with
    the refresh applied and the new entry, if any, appended.
    """
    if cacheable_limit < 0 or cacheable_limit > len(prompt):
        raise ValueError(
            f"cacheable_limit {cacheable_limit} outside prompt of {len(prompt)} tokens")
    live = []
    for entry in entries:
        reference = entry.last_used_at if policy.refresh_on_read else entry.created_at
        if now - reference <= policy.ttl_seconds:
            live.append(replace(entry))
    # Read: the first live entry with the longest common prefix, compared
    # token by token, is the one a refresh touches.
    tokens = prompt.to_list()
    best = 0
    hit: CacheEntry | None = None
    for entry in live:
        n = 0
        for a, b in zip(tokens, entry.tokens.tolist()):
            if a != b:
                break
            n += 1
        if n > best:
            best, hit = n, entry
    g = policy.granularity_tokens
    read = best // g * g
    if read < policy.min_cache_tokens:
        read = 0
    elif policy.refresh_on_read:
        hit.last_used_at = now
    w = cacheable_limit // g * g
    if w < policy.min_cache_tokens or w <= read:
        return read, 0, live
    head = tokens[:w]
    kept = [entry for entry in live
            if not (entry.length <= w and entry.tokens.tolist() == head[:entry.length])]
    kept.append(CacheEntry(tokens=prompt.ids[:w], created_at=now, last_used_at=now))
    return read, w - read, kept

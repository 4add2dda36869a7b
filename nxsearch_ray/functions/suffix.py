"""Exact longest-common-substring over token-hash sequences.

The scalar statement of the suffix/containment pass of the north rule:
long-span exact overlap that Jaccard misses (a short page fully
contained in a long one barely moves Jaccard).  The reference would
have surfaced this via posting-list overlap of its inverted index
(terms/dtmap, reference src/index/dtmap.c, src/core/nxs.c:48-55); here
a suffix automaton is built over one document's token-id sequence and
the other document runs through it — O(|a| + |b|) per pair, equivalent
in power to a suffix-array LCS but with a simpler online construction
(Blumer et al. 1985 suffix automaton; standard competitive-programming
formulation).

It is pure Python per pair, so the pipeline does not run it: the
adjudication stage (stages/suffix.py) decides LCS ≥ L for a whole
batch with a strided window-hash probe.  ``lcs_tokens`` stays as the
independent oracle that stage is tested against, and ``oracle.py``
runs it.
"""

from __future__ import annotations

from typing import Sequence


class SuffixAutomaton:
    """Suffix automaton over an arbitrary hashable symbol sequence."""

    __slots__ = ("next", "link", "length", "last")

    def __init__(self, seq: Sequence[int]):
        self.next: list[dict[int, int]] = [{}]
        self.link: list[int] = [-1]
        self.length: list[int] = [0]
        self.last = 0
        for sym in seq:
            self._extend(sym)

    def _extend(self, c: int) -> None:
        nxt, link, length = self.next, self.link, self.length
        cur = len(nxt)
        nxt.append({})
        length.append(length[self.last] + 1)
        link.append(-1)
        p = self.last
        while p != -1 and c not in nxt[p]:
            nxt[p][c] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = nxt[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(nxt)
                nxt.append(dict(nxt[q]))
                length.append(length[p] + 1)
                link.append(link[q])
                while p != -1 and nxt[p].get(c) == q:
                    nxt[p][c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        self.last = cur

    def longest_common_substring(self, other: Sequence[int]) -> int:
        """Length (in symbols) of the longest contiguous run of `other`
        that occurs anywhere in the automaton's sequence."""
        v, length, best = 0, 0, 0
        nxt, link, lens = self.next, self.link, self.length
        for sym in other:
            while v and sym not in nxt[v]:
                v = link[v]
                length = lens[v]
            if sym in nxt[v]:
                v = nxt[v][sym]
                length += 1
                if length > best:
                    best = length
            else:
                v, length = 0, 0
        return best


def lcs_tokens(a: Sequence[int], b: Sequence[int]) -> int:
    """LCS length building the automaton over the shorter sequence."""
    if len(a) == 0 or len(b) == 0:
        return 0
    if len(a) > len(b):
        a, b = b, a
    return SuffixAutomaton(a).longest_common_substring(b)


def containment_ratio(a: Sequence[int], b: Sequence[int]) -> float:
    """LCS length / min(len) — 1.0 means the shorter doc's longest run
    covers it entirely (exact substring containment)."""
    m = min(len(a), len(b))
    if m == 0:
        return 0.0
    return lcs_tokens(a, b) / m

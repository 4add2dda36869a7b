"""Word tokenizer + tokenset, reproducing the reference semantics.

The reference tokenizes with ICU ``UBRK_WORD`` segmentation (UAX #29),
skipping ``UBRK_WORD_NONE`` runs (punctuation/space), and pushes every word
through the filter pipeline before adding it to an order-preserving,
counting token set (reference: src/core/tokenizer.c:234-302 `tokenize`,
src/core/tokenizer.c:94-117 `tokenset_add`).

PyICU is unavailable here, so word segmentation is expressed as a Unicode
regex implementing the UAX #29 word-boundary subset the corpus exercises:

  * words are runs of letters / digits / marks / connector punctuation
    (ExtendNumLet, e.g. ``_`` — keeps ``hello_i_m_arbitrary_concatenated``
    whole, t_tokenize.c test_case_3);
  * MidLetter / MidNumLet / Single_Quote single occurrences (``'``,
    ``’``, ``.``, ``:``, ``·``) join word chars (``i.b.m``,
    ``doesn't`` — t_tokenize.c test_case_2/5; UAX#29 WB6/WB7);
  * MidNum / MidNumLet / Single_Quote (``,``, ``.``, ``;``, ``'``,
    ``’``) joins digits (``3,500.12``, ``1'000`` stay one token;
    UAX#29 WB11/WB12);
  * everything else breaks (``one;two;three`` → three tokens,
    t_tokenize.c test_case_5).

CJK (second pass — UAX#29 defaults, reference tokenizer.c uses ICU whose
CJ *dictionary* merging stays a pinned divergence, tests/test_icu_parity.py):

  * Han and Hiragana have no UAX#29 word-break class, so every ideograph
    / hiragana syllable is its OWN token (WB999 break-everywhere; this is
    also Lucene StandardTokenizer's CJK unigram behavior);
  * Katakana runs join (WB13 Katakana × Katakana), including the
    prolonged-sound mark U+30FC and half-width forms;
  * combining marks glue to the preceding CJK char (WB4 Extend);
  * script boundaries break (``日本語とEnglish混在`` splits at と/English).

The second pass is applied only to coarse first-pass tokens that contain
CJK, is the identity on tokens that don't, and uses only RE2-expressible
constructs so the DuckDB oracle twin (__ray_entry__._sql_tokens) can run
the exact same two regexes via flatten(list_transform(...)).

All-ASCII text (most web text) takes a stdlib ``re`` twin of the coarse
pass with ASCII classes and no CJK scan; it returns the same tokens
(tests/test_tokenizer.py checks this on seeded ASCII strings).

Behavior is pinned by fixtures from reference src/tests/t_tokenize.c:22-80
(including matching *shipped* behavior, not the documented-aspirational
``test_case_not_passing`` at t_tokenize.c:66-69).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import regex

# One word-character class: letters, digits, combining marks, connector
# punctuation (underscore et al. = UAX#29 ExtendNumLet).
_W = r"[\p{L}\p{N}\p{M}\p{Pc}]"
_TOKEN_RE = regex.compile(
    rf"{_W}+(?:(?:['’.:·](?=\p{{L}})|[.,;'’](?=\p{{N}})){_W}+)*",
    regex.V1,
)
# ``_TOKEN_RE`` restricted to ASCII, in the stdlib engine (about twice
# as fast on word-heavy text): the ASCII letters are \p{L}, the digits
# \p{N}, ``_`` \p{Pc}, and ASCII has no \p{M}; the non-ASCII joiners
# drop out.
_ASCII_TOKEN_RE = re.compile(
    r"[A-Za-z0-9_]+(?:(?:['.:](?=[A-Za-z])|[.,;'](?=[0-9]))[A-Za-z0-9_]+)*")

# --- CJK second pass -------------------------------------------------
# Character ranges shared verbatim with the DuckDB oracle (RE2 has no
# class subtraction, so CJK handling is a re-split of coarse tokens
# instead of a subtracted word class).  HANH = Han ideographs (+ CJK
# iteration/number marks U+3005/3007/3021-3029/3038-303B, compat
# ideographs, extensions A + SIP/TIP) and Hiragana (letters + iteration
# marks).  KATA = Katakana letters, prolonged-sound/iteration marks
# U+30FC-30FF, phonetic extensions, and the half-width forms incl. the
# half-width voicing marks U+FF9E/FF9F (Lm, Word_Break=Extend-alike).
HANH_RANGES = (
    "\u2E80-\u2FDF\u3005\u3007\u3021-\u3029\u3038-\u303B"
    "\u3041-\u3096\u309D-\u309F\u3400-\u4DBF\u4E00-\u9FFF"
    "\uF900-\uFAFF\U00020000-\U0003134F"
)
KATA_RANGES = "\u30A1-\u30FA\u30FC-\u30FF\u31F0-\u31FF\uFF66-\uFF9F"
# Mid-word joiners the coarse pass can embed (MidLetter/MidNum/
# MidNumLet/Single_Quote); pass 2 re-joins across them only between
# non-CJK word chars, so a joiner orphaned by a CJK split is dropped
# (``日本,5`` → 日 本 5, same as ICU).
_JOINERS = "'’.:·,;"
_NW = f"[^{HANH_RANGES}{KATA_RANGES}{_JOINERS}]"
# Ordered alternation; the three alternatives have disjoint start sets,
# so leftmost-first (regex module) and RE2 agree.
PASS2_PATTERN = (
    rf"[{HANH_RANGES}]\pM*"
    rf"|(?:[{KATA_RANGES}]\pM*)+"
    rf"|{_NW}+(?:[{_JOINERS}]{_NW}+)*"
)
_PASS2_RE = regex.compile(PASS2_PATTERN, regex.V0)
_CJK_DETECT = regex.compile(f"[{HANH_RANGES}{KATA_RANGES}]")


def segment_words(text: str) -> list[str]:
    """ICU UBRK_WORD-equivalent segmentation: the word runs only
    (UBRK_WORD_NONE runs are skipped, reference src/core/tokenizer.c:280-282).
    Coarse UAX#29 pass, then a CJK re-split (see module docstring) on the
    coarse tokens that contain Han/Hiragana/Katakana.  ASCII text (no
    CJK) takes the same coarse pass in its ASCII twin."""
    if text.isascii():
        return _ASCII_TOKEN_RE.findall(text)
    toks = _TOKEN_RE.findall(text)
    if _CJK_DETECT.search(text) is None:
        return toks
    out: list[str] = []
    for tok in toks:
        if _CJK_DETECT.search(tok) is None:
            out.append(tok)
        else:
            out.extend(_PASS2_RE.findall(tok))
    return out


@dataclass
class TokenSet:
    """Order-preserving unique-token set with counts — the reference's
    ``tokenset_t`` (src/core/tokenizer.h:36-55, src/core/tokenizer.c:94-117).

    ``seen`` counts every added token including repeats (→ ``doc_len`` in
    the dtmap, reference src/index/storage.h:86-88); ``counts`` preserves
    first-seen insertion order like the TAILQ + hashmap combo.
    """

    counts: dict[str, int] = field(default_factory=dict)
    seen: int = 0
    data_len: int = 0

    def add(self, value: str) -> None:
        self.seen += 1
        if value in self.counts:
            self.counts[value] += 1
        else:
            self.counts[value] = 1
            self.data_len += len(value.encode("utf-8"))

    @property
    def count(self) -> int:
        return len(self.counts)

    def tokens(self) -> list[str]:
        return list(self.counts)


def tokenize(text: str, pipeline) -> tuple[TokenSet, list[str]]:
    """Segment ``text`` and run every word through ``pipeline``
    (a ``FilterPipeline``), like the reference ``tokenize`` →
    ``tokenize_value`` loop (src/core/tokenizer.c:204-229, 234-302).

    Returns ``(tokenset, sequence)`` where ``sequence`` is the canonical
    token stream in document order *including repeats* — the reference only
    needs the bag (tokenset), but shingling needs the ordered sequence.
    Discarded tokens (stopwords, emptied buffers) are omitted from both,
    exactly like FILT_DISCARD (src/core/tokenizer.c:215-223).
    """
    tset = TokenSet()
    seq: list[str] = []
    for word in segment_words(text):
        out = pipeline.run(word)
        if out is None:  # DISCARD (or ERROR → token dropped)
            continue
        tset.add(out)
        seq.append(out)
    return tset, seq

"""Snowball French / German / Spanish stemmers — pure-Python, from the
public specifications at snowballstem.org.

The reference stems via libstemmer with the language taken from params
(``sb_stemmer_new(lang, NULL)``, reference src/core/filters_builtin.c:206-245),
so every Snowball language is available there.  This module widens the
repo's coverage beyond English (functions/stemmer.py, Porter2) with the
three highest-traffic web languages after English.  Each algorithm is
implemented directly from its published prose specification; no code is
derived from libstemmer.

Versioning note: the French algorithm is the *classic* published version
(libstemmer <= 2.x): the 2019+ revision's ``ë -> He`` / ``ï -> Hi``
marking (and the matching step-4 ``s`` exemption) is NOT implemented —
words containing ë/ï (rare in canonicalized web text, where the default
normalizer strips diacritics before the stemmer runs anyway) may diverge
from the newest libstemmer.  This mirrors the tokenizer's pinned-
divergence discipline (tests/test_icu_parity.py).

Implementation notes shared by all three algorithms:
  * R1/R2/RV are *positions* fixed after the prelude; suffix removal only
    shortens the word from the right, so the positions never shift
    (Snowball's cursor-limit semantics).
  * "Search for the longest among the following suffixes" is a single
    longest-match decision across ALL groups of a step: the longest
    suffix that matches is the only candidate — if its side condition
    fails, no shorter suffix is tried (Snowball ``among`` semantics).
  * Marked letters (U/I/Y in French, U/Y in German) are uppercase and
    therefore non-vowels for every vowel test, which is their purpose.
"""

from __future__ import annotations

import re

# ---------------------------------------------------------------------------
# shared helpers


def _longest_match(word: str, suffixes) -> str | None:
    """The longest suffix in `suffixes` that `word` ends with, or None.
    `suffixes` must be pre-sorted longest-first."""
    for suf in suffixes:
        if word.endswith(suf):
            return suf
    return None


def _sorted_sfx(*groups) -> tuple[str, ...]:
    out: list[str] = []
    for g in groups:
        out.extend(g)
    return tuple(sorted(out, key=len, reverse=True))


def _region_re(vowels: frozenset):
    """The search behind ``_r1_r2``: a vowel of ``vowels``, then a
    non-vowel."""
    v = "".join(sorted(vowels))
    return re.compile(f"[{v}][^{v}]")


def _r1_r2(word: str, region_re) -> tuple[int, int]:
    """R1 starts after the first vowel + non-vowel pair, R2 after the
    first such pair inside R1 (``region_re`` from ``_region_re``)."""
    m = region_re.search(word)
    if m is None:
        return len(word), len(word)
    m2 = region_re.search(word, m.end())
    return m.end(), len(word) if m2 is None else m2.end()


# ===========================================================================
# French (classic spec, snowballstem.org/algorithms/french/stemmer.html)

_FR_VOWELS = frozenset("aeiouyâàëéêèïîôûù")
_FR_REGIONS = _region_re(_FR_VOWELS)

_FR_STEP1 = _sorted_sfx(
    ("ance", "iqUe", "isme", "able", "iste", "eux",
     "ances", "iqUes", "ismes", "ables", "istes"),
    ("atrice", "ateur", "ation", "atrices", "ateurs", "ations"),
    ("logie", "logies"),
    ("usion", "ution", "usions", "utions"),
    ("ence", "ences"),
    ("ement", "ements"),
    ("ité", "ités"),
    ("if", "ive", "ifs", "ives"),
    ("eaux",), ("aux",),
    ("euse", "euses"),
    ("issement", "issements"),
    ("amment",), ("emment",),
    ("ment", "ments"),
)
_FR_G1 = frozenset(("ance", "iqUe", "isme", "able", "iste", "eux",
                    "ances", "iqUes", "ismes", "ables", "istes"))
_FR_G2 = frozenset(("atrice", "ateur", "ation", "atrices", "ateurs",
                    "ations"))

_FR_STEP2A = tuple(sorted(
    ("îmes", "ît", "îtes", "i", "ie", "ies", "ir", "ira", "irai",
     "iraIent", "irais", "irait", "iras", "irent", "irez", "iriez",
     "irions", "irons", "iront", "is", "issaIent", "issais", "issait",
     "issant", "issante", "issantes", "issants", "isse", "issent",
     "isses", "issez", "issiez", "issions", "issons", "it"),
    key=len, reverse=True))

_FR_STEP2B = _sorted_sfx(
    ("ions",),
    ("é", "ée", "ées", "és", "èrent", "er", "era", "erai", "eraIent",
     "erais", "erait", "eras", "erez", "eriez", "erions", "erons",
     "eront", "ez", "iez"),
    ("âmes", "ât", "âtes", "a", "ai", "aIent", "ais", "ait", "ant",
     "ante", "antes", "ants", "as", "asse", "assent", "asses",
     "assiez", "assions"),
)
_FR_2B_E = frozenset(("é", "ée", "ées", "és", "èrent", "er", "era",
                      "erai", "eraIent", "erais", "erait", "eras",
                      "erez", "eriez", "erions", "erons", "eront",
                      "ez", "iez"))

_FR_STEP4 = _sorted_sfx(
    ("ion",), ("ier", "ière", "Ier", "Ière"), ("e",), ("ë",))


def _fr_prelude(word: str) -> str:
    """u/i between vowels -> U/I; y next to a vowel -> Y; u after q -> U.

    The scan is sequential left-to-right on the *current* state (Snowball's
    ``repeat goto``): a just-marked U/I/Y is uppercase and therefore no
    longer a vowel for the next character's left-neighbor test ("oui" ->
    "oUi", the i stays unmarked).  Right neighbors are always still
    lowercase when tested, so reading them from the original is exact.
    """
    chars = list(word)
    n = len(chars)
    for i, c in enumerate(chars):
        if c in ("u", "i"):
            if (0 < i < n - 1 and chars[i - 1] in _FR_VOWELS
                    and word[i + 1] in _FR_VOWELS):
                chars[i] = "U" if c == "u" else "I"
            elif c == "u" and i > 0 and chars[i - 1] == "q":
                chars[i] = "U"
        elif c == "y":
            if ((i > 0 and chars[i - 1] in _FR_VOWELS)
                    or (i < n - 1 and word[i + 1] in _FR_VOWELS)):
                chars[i] = "Y"
    return "".join(chars)


def _fr_rv(word: str) -> int:
    n = len(word)
    if n >= 3 and ((word[0] in _FR_VOWELS and word[1] in _FR_VOWELS)
                   or word[:3] in ("par", "col", "tap")):
        return 3
    # first vowel not beginning the word; RV starts after it
    for i in range(1, n):
        if word[i] in _FR_VOWELS:
            return i + 1
    return n


def stem_french(word: str) -> str:
    word = _fr_prelude(word)
    rv = _fr_rv(word)
    r1, r2 = _r1_r2(word, _FR_REGIONS)

    def in_r(rpos: int, suflen: int) -> bool:
        return len(word) - suflen >= rpos

    # ---- step 1: standard suffix removal
    altered = False
    found_ment = False
    suf = _longest_match(word, _FR_STEP1)
    if suf is not None:
        L = len(suf)
        if suf in _FR_G1:
            if in_r(r2, L):
                word = word[:-L]
                altered = True
        elif suf in _FR_G2:
            if in_r(r2, L):
                word = word[:-L]
                altered = True
                if word.endswith("ic"):
                    if in_r(r2, 2):
                        word = word[:-2]
                    else:
                        word = word[:-2] + "iqU"
        elif suf in ("logie", "logies"):
            if in_r(r2, L):
                word = word[:-L] + "log"
                altered = True
        elif suf in ("usion", "ution", "usions", "utions"):
            if in_r(r2, L):
                word = word[:-L] + "u"
                altered = True
        elif suf in ("ence", "ences"):
            if in_r(r2, L):
                word = word[:-L] + "ent"
                altered = True
        elif suf in ("ement", "ements"):
            if in_r(rv, L):
                word = word[:-L]
                altered = True
                if word.endswith("iv") and in_r(r2, 2):
                    word = word[:-2]
                    if word.endswith("at") and in_r(r2, 2):
                        word = word[:-2]
                elif word.endswith("eus"):
                    if in_r(r2, 3):
                        word = word[:-3]
                    elif in_r(r1, 3):
                        word = word[:-3] + "eux"
                elif word.endswith(("abl", "iqU")):
                    if in_r(r2, 3):
                        word = word[:-3]
                elif word.endswith(("ièr", "Ièr")):
                    if in_r(rv, 3):
                        word = word[:-3] + "i"
        elif suf in ("ité", "ités"):
            if in_r(r2, L):
                word = word[:-L]
                altered = True
                if word.endswith("abil"):
                    if in_r(r2, 4):
                        word = word[:-4]
                    else:
                        word = word[:-4] + "abl"
                elif word.endswith("ic"):
                    if in_r(r2, 2):
                        word = word[:-2]
                    else:
                        word = word[:-2] + "iqU"
                elif word.endswith("iv") and in_r(r2, 2):
                    word = word[:-2]
        elif suf in ("if", "ive", "ifs", "ives"):
            if in_r(r2, L):
                word = word[:-L]
                altered = True
                if word.endswith("at") and in_r(r2, 2):
                    word = word[:-2]
                    if word.endswith("ic"):
                        if in_r(r2, 2):
                            word = word[:-2]
                        else:
                            word = word[:-2] + "iqU"
        elif suf == "eaux":
            word = word[:-4] + "eau"
            altered = True
        elif suf == "aux":
            if in_r(r1, 3):
                word = word[:-3] + "al"
                altered = True
        elif suf in ("euse", "euses"):
            if in_r(r2, L):
                word = word[:-L]
                altered = True
            elif in_r(r1, L):
                word = word[:-L] + "eux"
                altered = True
        elif suf in ("issement", "issements"):
            if in_r(r1, L) and len(word) > L and \
                    word[-L - 1] not in _FR_VOWELS:
                word = word[:-L]
                altered = True
        elif suf == "amment":
            found_ment = True
            if in_r(rv, 6):
                word = word[:-6] + "ant"
                altered = True
        elif suf == "emment":
            found_ment = True
            if in_r(rv, 6):
                word = word[:-6] + "ent"
                altered = True
        elif suf in ("ment", "ments"):
            found_ment = True
            # delete if preceded by a vowel in RV
            if len(word) > len(suf) and \
                    word[-len(suf) - 1] in _FR_VOWELS and \
                    len(word) - len(suf) - 1 >= rv:
                word = word[:-len(suf)]
                altered = True

    # ---- steps 2a / 2b (verb suffixes), confined to RV
    did2 = False
    altered2 = False
    if not altered or found_ment:
        did2 = True
        suf = _longest_match(word, _FR_STEP2A)
        removed2a = False
        if suf is not None and in_r(rv, len(suf)):
            pre = len(word) - len(suf) - 1
            if pre >= rv and word[pre] not in _FR_VOWELS:
                word = word[:-len(suf)]
                removed2a = True
                altered2 = True
        if not removed2a:
            suf = _longest_match(word, _FR_STEP2B)
            if suf is not None and in_r(rv, len(suf)):
                if suf == "ions":
                    if in_r(r2, 4):
                        word = word[:-4]
                        altered2 = True
                elif suf in _FR_2B_E:
                    word = word[:-len(suf)]
                    altered2 = True
                else:
                    word = word[:-len(suf)]
                    altered2 = True
                    if word.endswith("e") and len(word) - 1 >= rv:
                        word = word[:-1]

    last_altered = altered2 if did2 else altered

    if last_altered:
        # ---- step 3
        if word.endswith("Y"):
            word = word[:-1] + "i"
        elif word.endswith("ç"):
            word = word[:-1] + "c"
    else:
        # ---- step 4
        if word.endswith("s") and (
                len(word) < 2 or word[-2] not in "aiouès"):
            word = word[:-1]
        suf = _longest_match(word, _FR_STEP4)
        if suf is not None and in_r(rv, len(suf)):
            if suf == "ion":
                pre = len(word) - 4
                if in_r(r2, 3) and pre >= rv and word[pre] in "st":
                    word = word[:-3]
            elif suf in ("ier", "ière", "Ier", "Ière"):
                word = word[:-len(suf)] + "i"
            elif suf == "e":
                word = word[:-1]
            elif suf == "ë":
                if word.endswith("guë"):
                    word = word[:-1]

    # ---- step 5: undouble
    if word.endswith(("enn", "onn", "ett", "ell", "eill")):
        word = word[:-1]

    # ---- step 6: un-accent (é/è followed by >=1 non-vowel at the end)
    i = len(word) - 1
    seen_nonvowel = False
    while i >= 0 and word[i] not in _FR_VOWELS:
        seen_nonvowel = True
        i -= 1
    if seen_nonvowel and i >= 0 and word[i] in "éè":
        word = word[:i] + "e" + word[i + 1:]

    return (word.replace("I", "i").replace("U", "u").replace("Y", "y"))


# ===========================================================================
# German (snowballstem.org/algorithms/german/stemmer.html)

_DE_VOWELS = frozenset("aeiouyäöü")
_DE_REGIONS = _region_re(_DE_VOWELS)
_DE_S_ENDING = frozenset("bdfghklmnrt")
_DE_ST_ENDING = frozenset("bdfghklmnt")

_DE_STEP1 = _sorted_sfx(("em", "ern", "er"), ("e", "en", "es"), ("s",))
_DE_STEP1_B = frozenset(("e", "en", "es"))
_DE_STEP2 = _sorted_sfx(("en", "er", "est"), ("st",))
_DE_STEP3 = _sorted_sfx(
    ("end", "ung"), ("ig", "ik", "isch"), ("lich", "heit"), ("keit",))


def _de_prelude(word: str) -> str:
    word = word.replace("ß", "ss")
    chars = list(word)
    n = len(chars)
    # sequential scan: a just-marked U/Y is non-vowel for the next test
    for i in range(1, n - 1):
        if chars[i] in ("u", "y") and chars[i - 1] in _DE_VOWELS \
                and word[i + 1] in _DE_VOWELS:
            chars[i] = chars[i].upper()
    return "".join(chars)


def stem_german(word: str) -> str:
    word = _de_prelude(word)
    r1, r2 = _r1_r2(word, _DE_REGIONS)
    r1 = min(len(word), max(r1, 3))  # region before R1 >= 3 letters

    def in_r(rpos: int, suflen: int) -> bool:
        return len(word) - suflen >= rpos

    # ---- step 1
    suf = _longest_match(word, _DE_STEP1)
    if suf is not None and in_r(r1, len(suf)):
        if suf == "s":
            if len(word) > 1 and word[-2] in _DE_S_ENDING:
                word = word[:-1]
        else:
            was_b = suf in _DE_STEP1_B
            word = word[:-len(suf)]
            if was_b and word.endswith("niss"):
                word = word[:-1]

    # ---- step 2
    suf = _longest_match(word, _DE_STEP2)
    if suf is not None and in_r(r1, len(suf)):
        if suf == "st":
            if len(word) >= 6 and word[-3] in _DE_ST_ENDING:
                word = word[:-2]
        else:
            word = word[:-len(suf)]

    # ---- step 3: d-suffixes
    suf = _longest_match(word, _DE_STEP3)
    if suf is not None:
        L = len(suf)
        if suf in ("end", "ung"):
            if in_r(r2, L):
                word = word[:-L]
                if word.endswith("ig") and in_r(r2, 2) and \
                        (len(word) < 3 or word[-3] != "e"):
                    word = word[:-2]
        elif suf in ("ig", "ik", "isch"):
            if in_r(r2, L) and (len(word) < L + 1 or word[-L - 1] != "e"):
                word = word[:-L]
        elif suf in ("lich", "heit"):
            if in_r(r2, L):
                word = word[:-L]
                if word.endswith(("er", "en")) and in_r(r1, 2):
                    word = word[:-2]
        elif suf == "keit":
            if in_r(r2, 4):
                word = word[:-4]
                if word.endswith("lich") and in_r(r2, 4):
                    word = word[:-4]
                elif word.endswith("ig") and in_r(r2, 2):
                    word = word[:-2]

    word = word.replace("U", "u").replace("Y", "y")
    return (word.replace("ä", "a").replace("ö", "o").replace("ü", "u"))


# ===========================================================================
# Spanish (snowballstem.org/algorithms/spanish/stemmer.html)

_ES_VOWELS = frozenset("aeiouáéíóúü")
_ES_REGIONS = _region_re(_ES_VOWELS)

_ES_PRONOUNS = tuple(sorted(
    ("me", "se", "sela", "selo", "selas", "selos", "la", "le", "lo",
     "las", "les", "los", "nos"), key=len, reverse=True))
_ES_PRE_A = tuple(sorted(("iéndo", "ándo", "ár", "ér", "ír"),
                         key=len, reverse=True))
_ES_PRE_B = tuple(sorted(("ando", "iendo", "ar", "er", "ir"),
                         key=len, reverse=True))
_ES_UNACCENT = {"iéndo": "iendo", "ándo": "ando", "ár": "ar",
                "ér": "er", "ír": "ir"}

_ES_STEP1 = _sorted_sfx(
    ("anza", "anzas", "ico", "ica", "icos", "icas", "ismo", "ismos",
     "able", "ables", "ible", "ibles", "ista", "istas", "oso", "osa",
     "osos", "osas", "amiento", "amientos", "imiento", "imientos"),
    ("adora", "ador", "ación", "adoras", "adores", "aciones",
     "ante", "antes", "ancia", "ancias"),
    ("logía", "logías"),
    ("ución", "uciones"),
    ("encia", "encias"),
    ("amente",), ("mente",),
    ("idad", "idades"),
    ("iva", "ivo", "ivas", "ivos"),
)
_ES_G1 = frozenset(("anza", "anzas", "ico", "ica", "icos", "icas",
                    "ismo", "ismos", "able", "ables", "ible", "ibles",
                    "ista", "istas", "oso", "osa", "osos", "osas",
                    "amiento", "amientos", "imiento", "imientos"))
_ES_G2 = frozenset(("adora", "ador", "ación", "adoras", "adores",
                    "aciones", "ante", "antes", "ancia", "ancias"))

_ES_STEP2A = tuple(sorted(
    ("ya", "ye", "yan", "yen", "yeron", "yendo", "yo", "yó", "yas",
     "yes", "yais", "yamos"), key=len, reverse=True))

_ES_2B_GU = ("en", "es", "éis", "emos")
_ES_STEP2B = _sorted_sfx(
    _ES_2B_GU,
    ("arían", "arías", "arán", "arás", "aríais", "aría", "aréis",
     "aríamos", "aremos", "ará", "aré", "erían", "erías", "erán",
     "erás", "eríais", "ería", "eréis", "eríamos", "eremos", "erá",
     "eré", "irían", "irías", "irán", "irás", "iríais", "iría",
     "iréis", "iríamos", "iremos", "irá", "iré", "aba", "ada", "ida",
     "ía", "ara", "iera", "ad", "ed", "id", "ase", "iese", "aste",
     "iste", "an", "aban", "ían", "aran", "ieran", "asen", "iesen",
     "aron", "ieron", "ado", "ido", "ando", "iendo", "ió", "ar", "er",
     "ir", "as", "abas", "adas", "idas", "ías", "aras", "ieras",
     "ases", "ieses", "ís", "áis", "abais", "íais", "arais",
     "ierais", "aseis", "ieseis", "asteis", "isteis", "ados", "idos",
     "amos", "ábamos", "íamos", "imos", "áramos", "iéramos",
     "iésemos", "ásemos"),
)

_ES_STEP3_DEL = tuple(sorted(("os", "a", "o", "á", "í", "ó"),
                             key=len, reverse=True))
_ES_ACCENT = str.maketrans("áéíóú", "aeiou")


def _es_rv(word: str) -> int:
    n = len(word)
    if n < 3:
        return n
    if word[1] not in _ES_VOWELS:
        # second letter is a consonant: after the next following vowel
        for i in range(2, n):
            if word[i] in _ES_VOWELS:
                return i + 1
        return n
    if word[0] in _ES_VOWELS:
        # first two letters are vowels: after the next consonant
        for i in range(2, n):
            if word[i] not in _ES_VOWELS:
                return i + 1
        return n
    # consonant-vowel: after the third letter
    return 3


def stem_spanish(word: str) -> str:
    rv = _es_rv(word)
    r1, r2 = _r1_r2(word, _ES_REGIONS)

    def in_r(w: str, rpos: int, suflen: int) -> bool:
        return len(w) - suflen >= rpos

    # ---- step 0: attached pronoun
    pron = _longest_match(word, _ES_PRONOUNS)
    if pron is not None and in_r(word, rv, len(pron)):
        base = word[:-len(pron)]
        pre = _longest_match(base, _ES_PRE_A)
        if pre is not None and in_r(base, rv, len(pre)):
            word = base[:-len(pre)] + _ES_UNACCENT[pre]
        else:
            pre = _longest_match(base, _ES_PRE_B)
            if pre is not None and in_r(base, rv, len(pre)):
                word = base
            elif base.endswith("yendo") and in_r(base, rv, 5) and \
                    len(base) > 5 and base[-6] == "u":
                word = base

    # ---- step 1: standard suffix removal
    removed1 = False
    suf = _longest_match(word, _ES_STEP1)
    if suf is not None:
        L = len(suf)
        if suf in _ES_G1:
            if in_r(word, r2, L):
                word = word[:-L]
                removed1 = True
        elif suf in _ES_G2:
            if in_r(word, r2, L):
                word = word[:-L]
                removed1 = True
                if word.endswith("ic") and in_r(word, r2, 2):
                    word = word[:-2]
        elif suf in ("logía", "logías"):
            if in_r(word, r2, L):
                word = word[:-L] + "log"
                removed1 = True
        elif suf in ("ución", "uciones"):
            if in_r(word, r2, L):
                word = word[:-L] + "u"
                removed1 = True
        elif suf in ("encia", "encias"):
            if in_r(word, r2, L):
                word = word[:-L] + "ente"
                removed1 = True
        elif suf == "amente":
            if in_r(word, r1, 6):
                word = word[:-6]
                removed1 = True
                if word.endswith("iv") and in_r(word, r2, 2):
                    word = word[:-2]
                    if word.endswith("at") and in_r(word, r2, 2):
                        word = word[:-2]
                elif word.endswith(("os", "ic", "ad")) and \
                        in_r(word, r2, 2):
                    word = word[:-2]
        elif suf == "mente":
            if in_r(word, r2, 5):
                word = word[:-5]
                removed1 = True
                if word.endswith(("ante", "able", "ible")) and \
                        in_r(word, r2, 4):
                    word = word[:-4]
        elif suf in ("idad", "idades"):
            if in_r(word, r2, L):
                word = word[:-L]
                removed1 = True
                if word.endswith("abil") and in_r(word, r2, 4):
                    word = word[:-4]
                elif word.endswith(("ic", "iv")) and in_r(word, r2, 2):
                    word = word[:-2]
        elif suf in ("iva", "ivo", "ivas", "ivos"):
            if in_r(word, r2, L):
                word = word[:-L]
                removed1 = True
                if word.endswith("at") and in_r(word, r2, 2):
                    word = word[:-2]

    # ---- steps 2a / 2b: verb suffixes (only when step 1 did nothing)
    if not removed1:
        removed2a = False
        suf = _longest_match(word, _ES_STEP2A)
        if suf is not None and in_r(word, rv, len(suf)) and \
                len(word) > len(suf) and word[-len(suf) - 1] == "u":
            word = word[:-len(suf)]
            removed2a = True
        if not removed2a:
            suf = _longest_match(word, _ES_STEP2B)
            if suf is not None and in_r(word, rv, len(suf)):
                word = word[:-len(suf)]
                if suf in _ES_2B_GU and word.endswith("gu"):
                    word = word[:-1]

    # ---- step 3: residual suffix
    suf = _longest_match(word, _ES_STEP3_DEL)
    if suf is not None and in_r(word, rv, len(suf)):
        word = word[:-len(suf)]
    elif (word.endswith(("e", "é"))) and in_r(word, rv, 1):
        word = word[:-1]
        if word.endswith("gu") and len(word) - 1 >= rv:
            word = word[:-1]

    return word.translate(_ES_ACCENT)


# ===========================================================================

class SnowballStemmer:
    """Per-worker stemmer instance (lifecycle parity with stemmer_create,
    reference src/core/filters_builtin.c:206-211)."""

    def __init__(self, fn):
        self._fn = fn

    def stem(self, word: str) -> str:
        return self._fn(word)


_BY_LANG = {
    "fr": stem_french, "french": stem_french,
    "de": stem_german, "german": stem_german,
    "es": stem_spanish, "spanish": stem_spanish,
}


def get_snowball(lang: str):
    fn = _BY_LANG.get(lang)
    return SnowballStemmer(fn) if fn is not None else None

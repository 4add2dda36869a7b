"""Unicode fixtures transcribed from reference src/tests/t_utf8.c (FIXTURES.md §3)."""

from nxsearch_ray.functions.unicode import (
    nfkc_casefold,
    normalize_token,
    strip_diacritics,
    utf8_tolower,
    utf8_toupper,
)


def test_nfkc_casefold_henry():
    assert nfkc_casefold("Henry Ⅷ") == "henry viii"


def test_nfkc_casefold_circled():
    assert nfkc_casefold("AirForce ①") == "airforce 1"


def test_tolower():
    assert utf8_tolower("TEST") == "test"
    assert utf8_tolower("ĄČĘĖĮŠŲŪŽ") == "ąčęėįšųūž"


def test_toupper():
    assert utf8_toupper("straße") == "STRASSE"
    assert utf8_toupper("Дніпр") == "ДНІПР"


def test_diacritics_latin():
    assert strip_diacritics("àéîõü") == "aeiou"
    assert strip_diacritics("ąčęėįšųūž") == "aceeisuuz"
    assert strip_diacritics("Ĳ") == "IJ"  # NFKD compat decomposition


def test_normalize_token_chain():
    # normalizer filter = NFKC_Casefold then diacritics
    # (reference src/core/filters_builtin.c:53-76)
    assert normalize_token("Café") == "cafe"
    assert normalize_token("STRASSE") == "strasse"
    assert normalize_token("naïve") == "naive"


def test_default_ignorable_removed():
    # NFKC_Casefold removes Default_Ignorable code points (soft hyphen, ZWSP)
    assert nfkc_casefold("soft­hyphen") == "softhyphen"
    assert nfkc_casefold("zero​width") == "zerowidth"


def test_latin_ascii_extended_table():
    """CLDR Latin-ASCII rules for non-decomposable characters
    (adversarial cases beyond t_utf8.c — VERDICT r01 #8)."""
    from nxsearch_ray.functions.unicode import strip_diacritics

    cases = {
        "straße": "strasse",
        "Łódź": "Lodz",
        "þorn": "thorn",
        "Ðavid": "Davoid".replace("o", ""),   # ÐD -> D
        "ŋam": "ngam",
        "ħello": "hello",
        "ŧap": "tap",
        "ʉp": "up",
        "ƶebra": "zebra",
        "ǥoat": "goat",
        "ıstanbul": "istanbul",
        "co—op": "co-op",
        "«quote»": "<<quote>>",
        "‹q›": "<q>",
        "it’s": "it's",
        # NFKD decomposes ″ to ′′ BEFORE Latin-ASCII, so the rule
        # chain yields two apostrophes, not a double quote
        "5′10″": "5'10''",
        "3×4": "3x4",
        "a…b": "a...b",
    }
    for src, want in cases.items():
        assert strip_diacritics(src) == want, (src, strip_diacritics(src))


def test_nfkc_casefold_adversarial():
    """NFKC_CF iteration cases: full-width forms, ligatures, ignorables,
    and casefold->NFKC fixpoint chains."""
    from nxsearch_ray.functions.unicode import nfkc_casefold

    assert nfkc_casefold("ＨＥＬＬＯ") == "hello"      # full-width
    assert nfkc_casefold("ﬁle") == "file"              # fi ligature
    assert nfkc_casefold("ẛ") == "ṡ"                  # needs iteration
    assert nfkc_casefold("a­b") == "ab"           # soft hyphen
    assert nfkc_casefold("x‍y") == "xy"           # ZWJ ignorable
    assert nfkc_casefold("Ⅻ") == "xii"                # roman numeral
    assert nfkc_casefold("㎞") == "km"                 # squared unit
    assert nfkc_casefold("İ") == "i̇"                  # dotted capital I


def test_normalize_token_ascii_is_the_chain():
    """The ASCII shortcut of ``normalize_token`` equals the full chain
    on every ASCII code point and on 20k seeded printable strings."""
    import string

    import numpy as np

    def chain(s):
        return strip_diacritics(nfkc_casefold(s))

    for c in map(chr, range(128)):
        assert normalize_token(c) == chain(c), repr(c)
    rng = np.random.default_rng(11)
    printable = np.array(list(string.printable))
    for n in rng.integers(0, 16, 20_000):
        s = "".join(rng.choice(printable, int(n)))
        assert normalize_token(s) == chain(s), repr(s)

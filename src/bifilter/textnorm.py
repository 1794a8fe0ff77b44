"""Text normalization: tokenization, stopword removal, suffix stemming,
and synonym-lexicon variant expansion.

Tokens are plain tuples of case-folded strings. The functions are pure
and a StopList is immutable; a SynonymLexicon grows through add() while
it is being built.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ._records import read_rows
from .errors import ConfigError

__all__ = [
    "StopList",
    "SynonymLexicon",
    "tokenize",
    "remove_stopwords",
    "expand_variants",
    "stem",
    "is_punct_token",
    "default_stoplist",
    "stoplist_langs",
]


def _is_punct_char(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def is_punct_token(token: str) -> bool:
    """True if the token consists only of punctuation characters."""
    # No alphanumeric character is punctuation, so a word token is settled
    # by its first character.
    if not token or token[0].isalnum():
        return False
    return all(_is_punct_char(c) for c in token)


def tokenize(sentence: str) -> tuple[str, ...]:
    """Split a sentence into lowercased tokens.

    Splits on Unicode whitespace, then peels leading and trailing punctuation
    characters off each token into separate single-character tokens.
    """
    # No alphanumeric character is punctuation, so a chunk that starts and
    # ends with one has nothing to peel.
    out: list[str] = []
    for chunk in sentence.split():
        if chunk[0].isalnum() and chunk[-1].isalnum():
            out.append(chunk)
            continue
        lead: list[str] = []
        while chunk and _is_punct_char(chunk[0]):
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and _is_punct_char(chunk[-1]):
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        out.extend(lead)
        if chunk:
            out.append(chunk)
        out.extend(reversed(trail))
    return tuple([t.lower() for t in out])


@dataclass(frozen=True)
class StopList:
    """Case-insensitive stopword set; words are folded at load time."""

    words: frozenset[str]

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.words

    @classmethod
    def from_words(cls, words) -> "StopList":
        return cls(words=frozenset(w.lower() for w in words))

    @classmethod
    def load(cls, path: str | Path) -> "StopList":
        """Load a stoplist file: one word per line, '#' starts a comment."""
        return cls.from_words(read_rows(path, "stoplist"))


def _packaged_stoplists():
    return resources.files("bifilter").joinpath("data")


def stoplist_langs() -> tuple[str, ...]:
    """Language tags of the stoplists shipped with the package, sorted."""
    return tuple(sorted(
        f.name[len("stopwords_"):-len(".txt")]
        for f in _packaged_stoplists().iterdir()
        if f.name.startswith("stopwords_") and f.name.endswith(".txt")
    ))


def default_stoplist(lang: str) -> StopList:
    """Return the stoplist shipped with the package for a tag of
    stoplist_langs(), in any case; ConfigError naming the tag and the
    packaged tags for any other."""
    candidate = _packaged_stoplists().joinpath(f"stopwords_{lang.lower()}.txt")
    if not candidate.is_file():
        raise ConfigError(
            f"no packaged stoplist for language {lang!r} "
            f"(packaged: {', '.join(stoplist_langs())})"
        )
    with resources.as_file(candidate) as path:
        return StopList.load(path)


def remove_stopwords(tokens: tuple[str, ...], stoplist: StopList) -> tuple[str, ...]:
    """Drop stopwords and punctuation tokens, preserving order.

    Idempotent: the surviving tokens are never stopwords or punctuation.
    """
    return tuple([
        t for t in tokens
        if t not in stoplist and not is_punct_token(t)
    ])


class SynonymLexicon:
    """Word -> synonyms mapping loaded from a plain-text lexicon.

    Synonym order is preserved from the file so variant generation is
    deterministic. A word never maps to itself; lookups of absent words give
    an empty tuple.
    """

    def __init__(self, entries: dict[str, tuple[str, ...]] | None = None):
        self._entries: dict[str, tuple[str, ...]] = {}
        if entries:
            for word, syns in entries.items():
                self.add(word, syns)

    def add(self, word: str, synonyms) -> None:
        word = word.lower()
        existing = list(self._entries.get(word, ()))
        for syn in synonyms:
            syn = syn.lower()
            if syn != word and syn not in existing:
                existing.append(syn)
        self._entries[word] = tuple(existing)

    def synonyms(self, word: str) -> tuple[str, ...]:
        return self._entries.get(word.lower(), ())

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def load(cls, path: str | Path) -> "SynonymLexicon":
        """Load a lexicon file: ``word<TAB>syn1,syn2,...`` per line.

        Duplicate head-words merge their synonym lists; '#' starts a comment.
        """
        lex = cls()
        for word, rest in read_rows(path, "synonym lexicon", "word<TAB>syn1,syn2,..."):
            lex.add(word, [s.strip() for s in rest.split(",") if s.strip()])
        return lex


def expand_variants(
    tokens: tuple[str, ...], lexicon: SynonymLexicon, cap: int = 64
) -> list[tuple[str, ...]]:
    """Generate single-substitution synonym variants of a token tuple.

    The original tuple always comes first. Each variant replaces exactly
    one token with one of its synonyms; variants are ordered by token
    position, then by the lexicon's synonym order. At most ``cap`` tuples
    are returned (original included).
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    out = [tokens]
    for pos, token in enumerate(tokens):
        for syn in lexicon.synonyms(token):
            if len(out) >= cap:
                return out
            out.append(tokens[:pos] + (syn,) + tokens[pos + 1:])
    return out


# Longest first; stripping repeats while at least _MIN_STEM characters
# remain, which makes stem idempotent.
_SUFFIXES = ("ing", "es", "ed", "s")
_MIN_STEM = 3


def stem(token: str) -> str:
    """Strip English plural and verb endings from a case-folded token."""
    while True:
        for suffix in _SUFFIXES:
            if token.endswith(suffix) and len(token) - len(suffix) >= _MIN_STEM:
                token = token[: -len(suffix)]
                break
        else:
            return token

"""Text normalization: tokenization, stopword removal, suffix stemming,
and synonym-lexicon variant expansion.

Everything here is pure and immutable after construction, so values can be
shared freely between workers.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ._records import read_records
from .errors import DataError

__all__ = [
    "TokenSeq",
    "StopList",
    "SynonymLexicon",
    "Stemmer",
    "tokenize",
    "remove_stopwords",
    "expand_variants",
    "stem",
    "is_punct_token",
    "default_stoplist",
]


def _is_punct_char(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def is_punct_token(token: str) -> bool:
    """True if the token consists only of punctuation characters."""
    return bool(token) and all(_is_punct_char(c) for c in token)


@dataclass(frozen=True)
class TokenSeq:
    """An ordered token sequence paired with the raw sentence it came from."""

    tokens: tuple[str, ...]
    original: str

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def tokenize(sentence: str, fold: bool = True) -> TokenSeq:
    """Split a sentence into tokens.

    Splits on Unicode whitespace, then peels leading and trailing punctuation
    characters off each token into separate single-character tokens. With
    ``fold`` (the default, used for similarity scoring) tokens are lowercased;
    pass ``fold=False`` to keep the original casing for output purposes.
    """
    out: list[str] = []
    for chunk in sentence.split():
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
    if fold:
        out = [t.lower() for t in out]
    return TokenSeq(tokens=tuple(out), original=sentence)


@dataclass(frozen=True)
class StopList:
    """Case-insensitive stopword set; words are folded at load time."""

    words: frozenset[str]
    lang: str = ""

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.words

    def __len__(self) -> int:
        return len(self.words)

    @classmethod
    def from_words(cls, words, lang: str = "") -> "StopList":
        return cls(words=frozenset(w.lower() for w in words), lang=lang)

    @classmethod
    def load(cls, path: str | Path, lang: str = "") -> "StopList":
        """Load a stoplist file: one word per line, '#' starts a comment."""
        words = [line for _, line in read_records(path, "stoplist")]
        return cls.from_words(words, lang=lang)


def default_stoplist(lang: str) -> StopList:
    """Return the stoplist shipped with the package for 'en' or 'pl'.

    Unknown language tags get an empty stoplist rather than an error, so the
    pipeline degrades to no stopword removal for unsupported languages.
    """
    name = f"stopwords_{lang.lower()}.txt"
    pkg_files = resources.files("bifilter").joinpath("data")
    candidate = pkg_files.joinpath(name)
    if not candidate.is_file():
        return StopList(words=frozenset(), lang=lang)
    with resources.as_file(candidate) as path:
        return StopList.load(path, lang=lang)


def remove_stopwords(seq: TokenSeq, stoplist: StopList) -> TokenSeq:
    """Drop stopwords and punctuation tokens, preserving order.

    Idempotent: the surviving tokens are never stopwords or punctuation.
    """
    kept = tuple(
        t for t in seq.tokens if t not in stoplist and not is_punct_token(t)
    )
    return TokenSeq(tokens=kept, original=seq.original)


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

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._entries

    @classmethod
    def load(cls, path: str | Path) -> "SynonymLexicon":
        """Load a lexicon file: ``word<TAB>syn1,syn2,...`` per line.

        Duplicate head-words merge their synonym lists; '#' starts a comment.
        """
        lex = cls()
        for lineno, line in read_records(path, "synonym lexicon"):
            if "\t" not in line:
                raise DataError(
                    f"{path}:{lineno}: expected 'word<TAB>syn1,syn2,...'"
                )
            word, _, rest = line.partition("\t")
            syns = [s.strip() for s in rest.split(",") if s.strip()]
            lex.add(word.strip(), syns)
        return lex


def expand_variants(
    sentence: TokenSeq, lexicon: SynonymLexicon, cap: int = 64
) -> list[TokenSeq]:
    """Generate single-substitution synonym variants of a sentence.

    The original sequence always comes first. Each variant replaces exactly
    one token with one of its synonyms; variants are ordered by token
    position, then by the lexicon's synonym order. At most ``cap`` sequences
    are returned (original included).
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    out = [sentence]
    for pos, token in enumerate(sentence.tokens):
        for syn in lexicon.synonyms(token):
            if len(out) >= cap:
                return out
            variant = list(sentence.tokens)
            variant[pos] = syn
            out.append(TokenSeq(tokens=tuple(variant), original=" ".join(variant)))
    return out


_DEFAULT_SUFFIXES = ("ing", "es", "ed", "s")


@dataclass(frozen=True)
class Stemmer:
    """Deterministic suffix-stripping stemmer.

    Strips suffixes repeatedly (longest first) while the remaining stem keeps
    at least ``min_stem`` characters, which makes stemming idempotent. The
    suffix table is configurable per language; the default covers English
    plural and verb endings.
    """

    suffixes: tuple[str, ...] = _DEFAULT_SUFFIXES
    min_stem: int = 3

    def __post_init__(self):
        ordered = tuple(sorted(self.suffixes, key=len, reverse=True))
        object.__setattr__(self, "suffixes", ordered)

    def stem(self, token: str) -> str:
        while True:
            for suffix in self.suffixes:
                if token.endswith(suffix) and len(token) - len(suffix) >= self.min_stem:
                    token = token[: -len(suffix)]
                    break
            else:
                return token


_DEFAULT_STEMMER = Stemmer()


def stem(token: str) -> str:
    """Stem a case-folded token with the default English suffix table."""
    return _DEFAULT_STEMMER.stem(token)

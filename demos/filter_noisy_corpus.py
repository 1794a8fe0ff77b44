"""Walk a small noisy bitext through the filter.

The source side is Polish, the target side English, and the trans layer is
a rough machine translation of the source. Three kinds of damage are mixed
in: a junk line, a shuffled pairing, and a wrong-language line. The filter
keeps diagonal pairs whose translation actually resembles the target.
"""

from bifilter.bisentence_filter import FilterConfig, align_filter
from bifilter.corpus_io import Bitext, Corpus, vocab_stats
from bifilter.similarity import ChainContext, DEFAULT_CHAIN
from bifilter.textnorm import default_stoplist

SOURCE = [
    "Kot siedzi na macie.",
    "Lubie czytac ksiazki wieczorem.",
    "ISBN 1-55164-250-6.",
    "Pogoda jest dzisiaj bardzo ladna.",
    "Ten wiersz nie pasuje do niczego.",
    "Jutro pojedziemy do miasta.",
]

# what an MT engine might produce for SOURCE, line by line
TRANS = [
    "The cat sits on the mat.",
    "I like to read books in the evening.",
    "ISBN 1-55164-250-6.",
    "The weather is very nice today.",
    "This line does not match anything.",
    "Tomorrow we will go to the city.",
]

TARGET = [
    "The cat is sitting on the mat.",
    "I like reading books in the evening.",
    "Chapter titles follow the original numbering.",
    "The weather today is very nice.",
    "Completely unrelated sentence about trains.",
    "Tomorrow we are going to the city.",
]


def main() -> None:
    bitext = Bitext(
        source=Corpus(tuple(SOURCE)),
        target=Corpus(tuple(TARGET)),
        trans=Corpus(tuple(TRANS)),
    )

    before = vocab_stats(bitext)
    print(f"before: {before.sentence_pairs} pairs, "
          f"{before.source_vocab}/{before.target_vocab} vocab")

    cfg = FilterConfig(
        chain=DEFAULT_CHAIN,
        context=ChainContext(stoplist=default_stoplist("en")),
    )
    result = align_filter(bitext, cfg)

    print("\naccepted:")
    for i, j, score, tier in result.accepted:
        print(f"  src[{i}] ~ tgt[{j}]  score={score:.3f} tier={tier}")
        print(f"    {SOURCE[i]!r} -> {TARGET[j]!r}")

    print("\ndropped source lines:", [i for i, _ in result.dropped_src])
    print("dropped target lines:", list(result.dropped_tgt))

    kept = Bitext(
        source=Corpus(tuple(SOURCE[i] for i, *_ in result.accepted)),
        target=Corpus(tuple(TARGET[j] for _, j, *_ in result.accepted)),
    )
    after = vocab_stats(kept)
    print(f"\nafter: {after.sentence_pairs} pairs, "
          f"{after.source_vocab}/{after.target_vocab} vocab")


if __name__ == "__main__":
    main()

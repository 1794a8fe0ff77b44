"""Align two comparable documents and compare the dp and astar engines."""

from bifilter.seq_align import (
    AlignConfig,
    align_documents,
    chain_scorer,
    threshold_filter,
)
from bifilter.similarity import ChainContext, DEFAULT_CHAIN
from bifilter.textnorm import default_stoplist

# doc_b covers the same ground as doc_a but inserts one extra sentence
# and rewords another.
DOC_A = [
    "The committee met on Tuesday.",
    "Seven proposals were reviewed.",
    "Two proposals were approved for funding.",
    "The next meeting is scheduled for March.",
]
DOC_B = [
    "The committee met on Tuesday.",
    "A quorum was confirmed at the start.",
    "Seven proposals were reviewed.",
    "Two of the proposals were approved for funding.",
    "The next meeting is scheduled for March.",
]


def main() -> None:
    ctx = ChainContext(stoplist=default_stoplist("en"))
    scorer = chain_scorer(DEFAULT_CHAIN, ctx)

    for engine in ("dp", "astar"):
        cfg = AlignConfig(gap_penalty=0.2, engine=engine)
        stats = {}
        alignment = align_documents(DOC_A, DOC_B, scorer, cfg, stats=stats)
        print(f"{engine}: objective={alignment.objective(0.2):.3f} "
              f"scorer calls={stats['scorer_calls']} "
              f"(grid is {len(DOC_A) * len(DOC_B)})")
        for i, j, likelihood in alignment.pairs:
            print(f"  a[{i}] ~ b[{j}]  {likelihood:.3f}")
        print(f"  gaps: a={alignment.gaps_a} b={alignment.gaps_b}")

        strong = threshold_filter(alignment, 0.9)
        print(f"  pairs above 0.9: {[(i, j) for i, j, _ in strong]}\n")


if __name__ == "__main__":
    main()

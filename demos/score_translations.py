"""Score a toy system output against references with all four metrics."""

import json

from bifilter.mt_metrics import metric_report
from bifilter.textnorm import tokenize

CANDIDATES = [
    "the cat sat on the mat",
    "there is a small house near the river",
    "he quickly finished his homework",
]

# two references per segment; the second set rewords each sentence
REFERENCES = [
    ["the cat sat on the mat", "a cat was sitting on the mat"],
    ["a small house stands near the river", "there is a little house by the river"],
    ["he finished his homework quickly", "his homework was finished in a hurry"],
]


def main() -> None:
    cands = [tokenize(c) for c in CANDIDATES]
    refs = [[tokenize(r) for r in group] for group in REFERENCES]

    report = metric_report(cands, refs)
    for name in ("bleu", "nist", "ter", "meteor"):
        block = report[name]
        extras = {k: v for k, v in block.items() if k not in ("score", "percent")}
        print(f"{name:7s} score={block['score']:.4f}  {extras}")

    print("\nfull report:")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()

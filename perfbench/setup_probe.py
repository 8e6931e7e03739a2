"""Set-up probe, run in a fresh interpreter: import ``cip.cli``, then load one
workload's inputs the way ``cip decode`` does.  The caller times the whole
process.

Usage: python3 perfbench/setup_probe.py SRC CONLLU SCORES CONSTRAINTS
"""

import sys


def main(argv: list[str]) -> int:
    src, conllu, scores, constraints = argv
    sys.path.insert(0, src)
    import cip.cli  # noqa: F401  (the import is what is timed)
    from cip import constraints as cns
    from cip import core

    with open(conllu, encoding="utf-8") as handle:
        sentences = core.read_conllu(handle)
    with open(scores, encoding="utf-8") as handle:
        matrices = core.read_scores(handle)
    core.pair_corpus(sentences, matrices)
    with open(constraints, encoding="utf-8") as handle:
        cns.load_constraints(handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

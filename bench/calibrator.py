"""Gauges how fast the CPU it runs on is going, while the pipeline runs.

On a shared host the same work runs up to twice as slow for spells of a
second to minutes (another tenant's load on the same physical core), and
wall or CPU time moves with it. The harness pins this process and the
measured child to one CPU. At a lower priority the scheduler interleaves
the two every few milliseconds, so this process sees the same spells as
the child, and its work done per CPU second is the CPU's speed for that
child's lifetime. The work is made of the operations the pipeline spends
its time on (tokenising passages, building postings in dicts, scoring
queries from them), so a spell slows it about as much as it slows the
pipeline.

Run: python3 bench/calibrator.py
It prints `ready` once its text is generated. Each line it reads on stdin
is answered with `<units> <cpu_seconds>`, both counted since `ready`; it
exits at end of input.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import select
import sys
import time

NICE = 5  # about a quarter of the CPU while the measured child is runnable
VOCAB_SIZE = 30_000
PASSAGES = 3000
PASSAGE_WORDS = 60
QUERIES = 200
QUERY_WORDS = 6
UNITS_PER_POLL = 20  # about 1.5 ms of work


def make_text() -> tuple[list[str], list[list[str]]]:
    rng = random.Random(20221011)
    letters = "abcdefghijklmnopqrstuvwxyz"
    vocab = ["".join(rng.choices(letters, k=rng.randint(3, 10))) for _ in range(VOCAB_SIZE)]
    cum = list(itertools.accumulate(1.0 / rank for rank in range(1, VOCAB_SIZE + 1)))
    passages = [" ".join(rng.choices(vocab, cum_weights=cum, k=PASSAGE_WORDS)) + "." for _ in range(PASSAGES)]
    queries = [rng.choices(vocab, cum_weights=cum, k=QUERY_WORDS) for _ in range(QUERIES)]
    return passages, queries


def unit(i: int, passages: list[str], queries: list[list[str]], postings: dict, df: dict) -> float:
    """Index passage i and score query i against it, BM25-style."""
    tf: dict[str, int] = {}
    for token in passages[i % PASSAGES].lower().replace(".", " ").split():
        tf[token] = tf.get(token, 0) + 1
    for token, count in tf.items():
        df[token] = df.get(token, 0) + 1
        postings.setdefault(token, []).append((i, count))
    score = 0.0
    for token in queries[i % QUERIES]:
        count = tf.get(token)
        if count:
            score += math.log(1 + PASSAGES / df[token]) * count * 2.2 / (count + 1.2)
    return score


def main() -> int:
    os.nice(NICE)
    passages, queries = make_text()
    print("ready", flush=True)
    units = 0
    postings: dict = {}
    df: dict = {}
    start = time.process_time()
    while True:
        for _ in range(UNITS_PER_POLL):
            unit(units, passages, queries, postings, df)
            units += 1
        if units % PASSAGES == 0:  # a fresh index, so memory churns as it does in the pipeline
            postings, df = {}, {}
        if select.select([sys.stdin], [], [], 0)[0]:
            if not sys.stdin.readline():
                return 0
            print(units, time.process_time() - start, flush=True)


if __name__ == "__main__":
    sys.exit(main())

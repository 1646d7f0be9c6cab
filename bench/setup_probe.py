"""Time an experiment's set-up: the public functions the pipeline's load
and index stages call (plus `parse_run` on the supplied initial or dense
run), repeated in one process.

Usage (with augrank importable, e.g. PYTHONPATH=src):

    python3 bench/setup_probe.py --config CFG

Repeats the set-up at least twice and until MIN_SECONDS of CPU time have
passed, and prints the CPU seconds of every repetition as a JSON list.
"""

from __future__ import annotations

import argparse
import json
import time

from augrank import (
    build_index,
    estimate_corpus_lm,
    load_corpus,
    load_queries,
    load_snippet_cache,
    parse_qrels,
    parse_run,
)

MIN_SECONDS = 0.5


def set_up(cfg: dict) -> None:
    with open(cfg["corpus"], encoding="utf-8") as handle:
        passages = load_corpus(handle)
    with open(cfg["queries"], encoding="utf-8") as handle:
        load_queries(handle)
    with open(cfg["qrels"], encoding="utf-8") as handle:
        parse_qrels(handle)
    if "snippet_cache" in cfg:
        with open(cfg["snippet_cache"], encoding="utf-8") as handle:
            load_snippet_cache(handle)
    for key in ("initial_run", "dense_run"):
        if key in cfg:
            with open(cfg[key], encoding="utf-8") as handle:
                parse_run(handle)
    topical = cfg.get("mode") == "terms"
    if "initial_run" not in cfg or topical:
        index = build_index(passages)
        if topical:
            estimate_corpus_lm(index)


def main() -> None:
    parser = argparse.ArgumentParser(description="Time the pipeline's load and index set-up.")
    parser.add_argument("--config", required=True)
    args = parser.parse_args()
    with open(args.config, encoding="utf-8") as handle:
        cfg = json.load(handle)
    times: list[float] = []
    while len(times) < 2 or sum(times) < MIN_SECONDS:
        start = time.process_time()
        set_up(cfg)
        times.append(time.process_time() - start)
    print(json.dumps(times))


if __name__ == "__main__":
    main()

"""Check that every given Python interpreter writes the same artifacts.

    python3 tools/interpreters.py PYTHON [PYTHON ...]

The contract is byte-identical artifacts for a fixed config and a fixed
`unicodedata.unidata_version`. This script writes one small experiment
(seeded, in a temporary directory) whose metrics are not saturated, so
that the means, nDCG and the paired t-test add many distinct floats. Then,
under each interpreter (3.10 or later, run with PYTHONPATH=src, which
needs no pytest there), it runs `tests/pinned_sums.py`, which pins the
bits of a mean, an nDCG and a t-test, and `pipeline run` in the three
modes (none, nl, terms), each with a baseline run for `compare.tsv`.
Finally it compares the six artifacts of each mode byte for byte with
those of the first interpreter. The text is Latin script, whose tokens
are the same in the Unicode databases of Python 3.10 to 3.13; an
interpreter with another `unidata_version` is still compared, and its
version is printed next to its results.

Exit status: 0 when every pinned sum and every artifact matches; 1 when
one differs; 2 when an interpreter is older than 3.10 or one of its runs
fails.

It imports only the standard library and is not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = ("none", "nl", "terms")
ARTIFACTS = ("expansions.jsonl", "inputs.jsonl", "reranked.run", "metrics.tsv",
             "per_query.tsv", "compare.tsv")
TIMEOUT_S = 300
SEED = 16

# Accented and dotted Latin words take the tokenizer's non-ASCII path;
# their tokens do not change between Unicode 13.0 and 15.1.
VOCAB = [
    "apple", "river", "stone", "cloud", "engine", "garden", "market", "signal",
    "violet", "copper", "harbor", "lantern", "meadow", "orbit", "pepper", "quartz",
    "saddle", "timber", "velvet", "willow", "anchor", "bridge", "candle", "dune",
    "Crème", "brûlée", "İstanbul", "Straße", "naïve", "façade", "smörgåsbord", "ångström",
]


def _write_experiment(root: Path, rng: random.Random) -> dict[str, str]:
    """Inputs of 120 passages and 40 queries, and their paths. Each query
    has one to four judged passages of grades 0-3 that hold some of its
    words; initial, dense and baseline runs rank a random sample with the
    judged passages mixed in, so MRR, nDCG and MAP take many values."""
    def words(n: int) -> str:
        return " ".join(rng.choice(VOCAB) for _ in range(n))

    passages = {f"p{i:03d}": words(rng.randint(6, 14)) for i in range(120)}
    pids = list(passages)
    queries, qrels, snippets, runs = [], [], [], {"initial": [], "dense": [], "baseline": []}
    for i in range(40):
        qid = f"q{i:02d}"
        text = words(rng.randint(2, 4))
        queries.append({"id": qid, "text": text})
        judged = rng.sample(pids, rng.randint(1, 4))
        for pid in judged:
            passages[pid] += " " + " ".join(rng.sample(text.split(), 1))
            qrels.append(f"{qid} 0 {pid} {rng.randint(0, 3)}\n")
        if i % 9:  # every ninth query has no snippets: its expansion falls back
            for rank in range(1, rng.randint(2, 6)):
                kind = "direct_answer" if rank == 1 and i % 3 == 0 else "organic"
                snippets.append({"query_id": qid, "rank": rank, "kind": kind,
                                 "text": words(rng.randint(5, 20)) + ".", "source": "web_serp"})
        for name, depth in (("initial", 25), ("dense", 15), ("baseline", 20)):
            ranked = rng.sample(pids, depth)
            for pid in judged:
                if pid not in ranked and rng.random() < 0.7:
                    ranked[rng.randrange(depth)] = pid
            runs[name] += [f"{qid} Q0 {pid} {rank} {depth - rank + rng.random():.6f} {name}\n"
                           for rank, pid in enumerate(ranked, start=1)]

    def write(name: str, lines) -> str:
        path = root / name
        path.write_text("".join(lines), encoding="utf-8")
        return str(path)

    return {
        "corpus": write("corpus.jsonl", (json.dumps({"id": pid, "text": text}) + "\n"
                                         for pid, text in passages.items())),
        "queries": write("queries.jsonl", (json.dumps(q) + "\n" for q in queries)),
        "qrels": write("qrels.txt", qrels),
        "snippet_cache": write("snippets.jsonl", (json.dumps(s) + "\n" for s in snippets)),
        **{f"{name}_run": write(f"{name}.run", lines) for name, lines in runs.items()},
    }


def _run(python: str, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([python, *args], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def _check(python: str, inputs: dict[str, str], out: Path) -> int:
    """Run the pinned sums and the three pipelines under `python`, writing
    each mode's artifacts under `out`: 0 when all pass, 1 when a pinned sum
    differs, 2 when the interpreter is not supported or a run fails."""
    done = _run(python, ["-c", "import sys, unicodedata; "
                         "print(sys.version_info >= (3, 10), sys.version.split()[0], "
                         "unicodedata.unidata_version)"])
    if done.returncode != 0:
        print(f"{python} does not start: {done.stderr.strip()}")
        return 2
    supported, version, unidata = done.stdout.split()
    print(f"{python}: Python {version}, Unicode {unidata}")
    if supported != "True":
        print(f"{python} is older than Python 3.10")
        return 2
    done = _run(python, ["tests/pinned_sums.py"])
    print("  " + done.stdout.strip().replace("\n", "\n  "))
    if done.returncode not in (0, 1):
        print(f"tests/pinned_sums.py exited {done.returncode}: {done.stderr.strip()}")
        return 2
    status = done.returncode
    for mode in MODES:
        config = out / f"{mode}.json"
        config.write_text(json.dumps(dict(
            inputs, mode=mode, output_dir=str(out / mode), rerank_depth=20, max_words=24,
            max_terms=8,
        )))
        done = _run(python, ["-m", "augrank.cli", "pipeline", "run", "--config", str(config)])
        if done.returncode != 0:
            print(f"pipeline run in mode {mode} exited {done.returncode}: {done.stderr.strip()}")
            return 2
    return status


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    with tempfile.TemporaryDirectory(prefix="augrank-interpreters-") as scratch:
        root = Path(scratch)
        inputs = _write_experiment(root, random.Random(SEED))
        outs = [root / f"out{i}" for i in range(len(argv))]
        status = 0
        for python, out in zip(argv, outs):
            out.mkdir()
            status = max(status, _check(python, inputs, out))
            if status == 2:
                return status
        for mode in MODES:
            for name in ARTIFACTS:
                first, *rest = (_read(out / mode / name) for out in outs)
                differ = [python for python, got in zip(argv[1:], rest) if got != first]
                if differ:
                    print(f"DIFFERS   {mode}/{name}: {', '.join(differ)} against {argv[0]}")
                    status = 1
                elif first is not None:
                    print(f"identical {mode}/{name} ({len(first)} bytes)")
    return status


def _read(path: Path) -> bytes | None:
    """The file's bytes, or None when the run did not write it (mode none
    writes no expansions.jsonl)."""
    return path.read_bytes() if path.exists() else None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

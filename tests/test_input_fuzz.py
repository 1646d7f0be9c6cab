"""A seeded, bounded mutation fuzzer over `pipeline run`'s six input files.

Each trial makes one to three byte, line, JSON-type or column edits to one
input of a small valid experiment and runs the pipeline in process. Bad
input of any kind must exit 2 with a message, never 1 or a traceback.
"""

import json
import random

from augrank.cli import main

TRIALS = 300

CORPUS = [
    {"id": f"d{i}", "title": "t" if i % 2 else None,
     "text": f"shared topic{i % 3} word{i} é context"}
    for i in range(8)
]
QUERIES = [{"id": f"q{i}", "text": f"shared topic{i}"} for i in range(3)]
SNIPPETS = [
    {"query_id": f"q{i}", "rank": r, "kind": "direct_answer" if r == 3 else "organic",
     "text": f"topic{i} context word{r}", "source": "web_serp"}
    for i in range(2) for r in (1, 2, 3)
]
INPUTS = {
    "corpus": ("corpus.jsonl", "".join(json.dumps(r) + "\n" for r in CORPUS)),
    "queries": ("queries.jsonl", "".join(json.dumps(r) + "\n" for r in QUERIES)),
    "snippet_cache": ("snippets.jsonl", "".join(json.dumps(r) + "\n" for r in SNIPPETS)),
    "qrels": ("qrels.txt", "q0 0 d0 1\nq1 0 d1 2\nq2 0 d5 1\nq2 0 d2 0\n"),
    "initial_run": ("initial.run", "".join(
        f"q{q} Q0 d{(q + r) % 8} {r + 1} {4 - r}.5 init\n" for q in range(3) for r in range(4)
    )),
    "dense_run": ("dense.run", "q0 Q0 d3 1 0.9 dense\nq0 Q0 d0 2 0.1 dense\nq2 Q0 d7 1 0.5 dense\n"),
}

# Replacement values: each JSON type, a lone surrogate, ids a run cannot hold.
JSON_VALUES = [None, True, 0, -1, 2.5, 1e999, "", "x y", "\ud800", [], {}, ["a"]]
# Column values: bad numbers, unknown ids and tokens of the wrong kind; the
# 400-digit integer overflows a float.
COLUMNS = ["", "x", "nan", "inf", "-inf", "1e999", "0", "-1", "2.5", "Q0", "d99", "q99", "d\x85",
           "9" * 400]
# A line nested past the interpreter's recursion limit.
DEEP_LINE = b"[" * 100_000 + b"\n"
BYTES = [b"\x00", b"\xff", b'"', b"\\", b"{", b"}", b" ", b"\n", b"\r", b"\t", b"9", b"-",
         "\u2028".encode()]


def edit_bytes(rng, data):
    """Delete, replace or insert at one offset."""
    at = rng.randrange(len(data) + 1)
    choice = rng.randrange(3)
    if choice == 0 and data:
        return data[:at] + data[at + 1:]
    return data[:at] + rng.choice(BYTES) + data[at + (choice == 1):]


def edit_lines(rng, data):
    lines = data.splitlines(keepends=True) or [b""]
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    choice = rng.randrange(5)
    if choice == 0:
        del lines[i]
    elif choice == 1:
        lines.insert(j, lines[i])
    elif choice == 4:
        lines.insert(j, DEEP_LINE)
    elif choice == 2:
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    return b"".join(lines)


def edit_json(rng, data):
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines)) if lines else 0
    try:
        record = json.loads(lines[i])
    except (IndexError, ValueError):  # no line, or one an earlier edit broke
        record = None
    if not isinstance(record, dict) or not record:
        return edit_bytes(rng, data)
    key = rng.choice(sorted(record))
    choice = rng.randrange(4)
    if choice == 0:
        del record[key]
    elif choice == 1:
        record["extra"] = rng.choice(JSON_VALUES)
    else:
        record[key] = rng.choice(JSON_VALUES)
    lines[i] = json.dumps(record).encode() + b"\n"
    return b"".join(lines)


def edit_columns(rng, data, unknown_passage):
    lines = data.splitlines(keepends=True)
    if not lines:
        return edit_bytes(rng, data)
    i = rng.randrange(len(lines))
    cells = lines[i].decode("utf-8", "replace").split()
    if unknown_passage and len(cells) > 2:
        cells[2] = f"zz{i}"  # a passage the corpus lacks
    elif cells and rng.random() < 0.3:
        del cells[rng.randrange(len(cells))]
    elif cells and rng.random() < 0.6:
        cells[rng.randrange(len(cells))] = rng.choice(COLUMNS)
    else:
        cells.insert(rng.randrange(len(cells) + 1), rng.choice(COLUMNS))
    lines[i] = " ".join(cells).encode() + b"\n"
    return b"".join(lines)


def mutate(rng, key, data):
    """`data` after one to three edits, and the edits' names."""
    names = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("byte", "line", "structure", "structure"))
        if kind == "byte":
            data = edit_bytes(rng, data)
        elif kind == "line":
            data = edit_lines(rng, data)
        elif key.endswith("_run") or key == "qrels":
            kind = "unknown passage" if key.endswith("_run") and rng.random() < 0.3 else "column"
            data = edit_columns(rng, data, kind == "unknown passage")
        else:
            kind = "json type"
            data = edit_json(rng, data)
        names.append(kind)
    return data, names


def test_mutated_inputs_exit_0_or_2_without_a_traceback(tmp_path, capsys):
    paths = {}
    for key, (name, text) in INPUTS.items():
        paths[key] = tmp_path / name
        paths[key].write_text(text, encoding="utf-8")
    rng = random.Random(0)
    codes, unknown_passages = [], 0
    for trial in range(TRIALS):
        key = rng.choice(sorted(INPUTS))
        data, edits = mutate(rng, key, INPUTS[key][1].encode("utf-8"))
        mutated = tmp_path / f"mutated_{INPUTS[key][0]}"
        mutated.write_bytes(data)
        config = {k: str(path) for k, path in paths.items()}
        config.update({key: str(mutated), "output_dir": str(tmp_path / "out"),
                       "mode": rng.choice(("none", "nl", "terms")),
                       "rerank_depth": rng.choice((1, 3, 100))})
        if key != "initial_run" and rng.random() < 0.5:
            del config["initial_run"]  # search BM25 instead
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        context = f"trial {trial}: {edits} on {key}: {data!r}"
        try:
            code = main(["pipeline", "run", "--config", str(config_path)])
        except Exception as exc:  # main lets only a fault in augrank escape
            raise AssertionError(context) from exc
        err = capsys.readouterr().err
        assert code in (0, 2), context + "\n" + err
        assert "Traceback" not in err, context
        codes.append(code)
        unknown_passages += "is not in the corpus" in err
    # The edits reach both outcomes and the load-time check of run passages.
    assert codes.count(0) > TRIALS // 10 and codes.count(2) > TRIALS // 10
    assert unknown_passages > 0

"""Golden artifact hashes for `pipeline run` on a small inline workload.

The determinism test in test_cli only compares two runs of the same code;
these hashes were recorded from an earlier version of the package, so any
change to the bytes of an artifact shows up here. A change that is meant to
alter an artifact must re-record the hash and say why.

The fixture text never contains a template label literal ("Query:",
"Description:", "Document:", "Relevant:"), so the hashes do not depend on
how such text is handled.
"""

import hashlib
import json

import pytest

from augrank.cli import main

VOCAB = [
    "apple", "river", "stone", "cloud", "engine", "garden", "market", "signal",
    "violet", "copper", "harbor", "lantern", "meadow", "orbit", "pepper", "quartz",
    "saddle", "timber", "velvet", "willow", "anchor", "bridge", "candle", "dune",
]

ARTIFACTS = ("reranked.run", "expansions.jsonl", "inputs.jsonl", "metrics.tsv",
             "per_query.tsv", "compare.tsv")

GOLDEN = {
    "none": {
        "reranked.run": "b8c540d1fc893a88d3d7c0638b1263d5592e8c789e692371baf8ecbf859fb612",
        "inputs.jsonl": "48bf1a179cf3ec589bdff1c06f463621b75a10a777dd144f922f360272c87050",
        "metrics.tsv": "4658797637cf4691b0ad9a46c60842c9d00bc76d04197225ad3192784e0363ce",
        "per_query.tsv": "8cd93030805a8a7e4e7d38d0a6bfe29c92efac44c5b563d14501c416969979c0",
        "compare.tsv": "3cb15989fdff989a563edad519d26b58dc7c09cbb38edc57ae5487b8a49ead00",
    },
    "nl": {
        "reranked.run": "4b4399d30b245ff6de8a28537501625959bbde57a09691da90006d7e01514a80",
        "expansions.jsonl": "e423ef1143410202aef4981cd63d288ff6e80e30e2acb1dc03ff0b40fd7fa832",
        "inputs.jsonl": "152c2f7dc75e2da39257f69abbaa1dc7d70df17e85423bfb35e8a9f547a6d2c7",
        "metrics.tsv": "45d66460a25c5e21611c398bc0bdf9181ec28783e58c4e91c65db5f25f7b8836",
        "per_query.tsv": "fcf5e2e0ae8beac08f911e378011a3a1350005a58b5141d6b7c02a06cf9afd96",
        "compare.tsv": "084d90306e805456f73cd6a77987b8e66b96c355ab2c031f75588c6ede2eb4be",
    },
    "terms": {
        "reranked.run": "29eb7317aad3f8799eb4833a1306c39ec6f7ac0999c4ea44d8528b283221deb5",
        "expansions.jsonl": "e19bcd6f96deb89d97b0aa9d1c2756ebe4889113e35f31c378be868a77ee7d7d",
        "inputs.jsonl": "5efcb787087c023177e15adefa6c43383017620d965e598c6df7d47ac2329baa",
        "metrics.tsv": "55ab11ccdc854d868903341de0460df947e6a2455e8e0e63fb0032e6f044a118",
        "per_query.tsv": "897416fb107cefc10949747b87f2c7d68c245140f64cf2438e36790256eb16f4",
        "compare.tsv": "b97f2b70bc73226817be1aabe883a6f92fa7e45cd875850d0c0a0823acc5cce8",
    },
}


def _words(seed: int, count: int) -> str:
    return " ".join(VOCAB[(seed * 7 + i * 11 + i * i) % len(VOCAB)] for i in range(count))


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.fixture(scope="module")
def golden_workspace(tmp_path_factory):
    """24 passages, 6 queries (q5 has no snippets, so it falls back), a
    dense run for fusion and a baseline run for the comparison."""
    root = tmp_path_factory.mktemp("golden")
    _write_jsonl(
        root / "corpus.jsonl",
        [{"id": f"p{i:02d}", "text": _words(i, 9 + i % 5) + ", end."} for i in range(24)],
    )
    _write_jsonl(
        root / "queries.jsonl",
        [{"id": f"q{i}", "text": _words(100 + i, 3)} for i in range(6)],
    )
    (root / "qrels.txt").write_text(
        "".join(f"q{i} 0 p{(i * 5) % 24:02d} {1 + i % 2}\n" for i in range(6))
        + "q0 0 p03 1\nq2 0 p07 0\n"
    )
    _write_jsonl(
        root / "snippets.jsonl",
        [
            {"query_id": f"q{i}", "rank": r, "kind": "direct_answer" if r == 1 else "organic",
             "text": _words(200 + 3 * i + r, 12) + "!", "source": "web_serp"}
            for i in range(5)
            for r in range(1, 5)
        ],
    )
    (root / "dense.run").write_text(
        "".join(
            f"q{i} Q0 p{(i * 5 + j) % 24:02d} {j + 1} {10 - j}.5 dense\n"
            for i in range(6)
            for j in range(4)
        )
    )
    (root / "baseline.run").write_text(
        "".join(
            f"q{i} Q0 p{(i * 3 + j) % 24:02d} {j + 1} {8 - j}.0 base\n"
            for i in range(6)
            for j in range(8)
        )
    )
    return root


def _golden_config(root, mode, out, **extra):
    config = root / f"{out.name}.json"
    config.write_text(json.dumps({
        "corpus": str(root / "corpus.jsonl"),
        "queries": str(root / "queries.jsonl"),
        "qrels": str(root / "qrels.txt"),
        "snippet_cache": str(root / "snippets.jsonl"),
        "dense_run": str(root / "dense.run"),
        "baseline_run": str(root / "baseline.run"),
        "output_dir": str(out),
        "mode": mode,
        "max_words": 20,
        "max_terms": 6,
        "rerank_depth": 10,
        **extra,
    }))
    return config


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_pipeline_artifacts_match_golden_hashes(golden_workspace, mode):
    root = golden_workspace
    out = root / f"out_{mode}"
    config = _golden_config(root, mode, out)
    assert main(["pipeline", "run", "--config", str(config)]) == 0
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
        if (out / name).exists()
    }
    assert got == GOLDEN[mode]


def test_terms_expansions_from_an_initial_run_match_golden_hash(golden_workspace):
    """With an initial run no index is built, and the corpus language model
    counted from the passages' tokens gives the same expansions."""
    root = golden_workspace
    out = root / "out_terms_initial"
    config = _golden_config(root, "terms", out, initial_run=str(root / "baseline.run"))
    assert main(["pipeline", "run", "--config", str(config)]) == 0
    expansions = hashlib.sha256((out / "expansions.jsonl").read_bytes()).hexdigest()
    assert expansions == GOLDEN["terms"]["expansions.jsonl"]


# Capitals, underscores, tabs, digits, dotted capital I (lowercases to two
# code points), "Straße" and "STRASSE" (two tokens: no casefolding), an
# accented word and a punctuation-only passage: text that takes the
# tokenizer's non-ASCII path and its ASCII path with every kind of boundary.
MIXED_VOCAB = [
    "Apple", "RIVER", "stone_cloud", "Engine42", "İstanbul", "Straße", "STRASSE",
    "x_1", "T5-xl", "re-ranker", "Crème", "brûlée", "Harbor\tlight", "2022", "velvet",
    "Orbit;", "(meadow)", "it's", "__init__", "snake_case",
]

# Recorded with a tokenizer that matched every text with the regex, so they
# pin that its ASCII path changes no byte.
MIXED_GOLDEN = {
    "none": {
        "reranked.run": "924d28d4564ea074e1eb5df3a7b4cc79809cb4bc0d59f6f6b25671bea93a1513",
        "inputs.jsonl": "578e848c34990edf7bfd09b0a194938e1ee298f68adeaff1fc00a92ab3a4d0fa",
        "metrics.tsv": "6eab3d455cef36e8bc70fd7ec581c4ae440685e78caea94dc2d033e23b11226f",
        "per_query.tsv": "9532805ad70215f1d6773478d7860ef6a178e50e1f2440527120cd094033db61",
        "compare.tsv": "4ab78ba25bc0b4a6f4770c9d7a0eb432fc70fd606f9112650f6de82499548d37",
    },
    "terms": {
        "reranked.run": "9617ad9dd0c996e7fab1a4ffb1e990949667aae9deeb6a77119453372cd7abab",
        "expansions.jsonl": "39d7b747b7907dce114180a8fb44f599d7e9502c319afdac021e01a77bc54084",
        "inputs.jsonl": "75ae437de2d81c9c536f068f46082faf069e0e0300e53f20fd08444cc1e0fb6e",
        "metrics.tsv": "27928bf4bed463b333c16cb95a740c2dc5a53d5d2090be2b0d1bdea516e73bf4",
        "per_query.tsv": "d2d5e9ad30378c7543daa0afa9ce91402ad41ab276748f5c04ab155bce4d2848",
        "compare.tsv": "63e86957a47e4efeb8d798384c896d18f781051bf1c86b47bf083769a9bd40bf",
    },
}


def _mixed_words(seed: int, count: int) -> str:
    return " ".join(
        MIXED_VOCAB[(seed * 3 + i * 7 + i * i) % len(MIXED_VOCAB)] for i in range(count)
    )


@pytest.fixture(scope="module")
def mixed_workspace(tmp_path_factory):
    """16 passages, p15 punctuation only; 5 queries, q4's snippets
    punctuation only (so its terms expansion falls back); a dense run that
    brings p15 into every candidate list."""
    root = tmp_path_factory.mktemp("mixed")
    passages = [{"id": f"p{i:02d}", "text": _mixed_words(i, 6 + i % 4)} for i in range(15)]
    passages.append({"id": "p15", "text": "... -- !? ;\t_"})
    _write_jsonl(root / "corpus.jsonl", passages)
    _write_jsonl(
        root / "queries.jsonl",
        [{"id": f"q{i}", "text": _mixed_words(50 + i, 2 + i % 2)} for i in range(5)],
    )
    (root / "qrels.txt").write_text(
        "".join(f"q{i} 0 p{(i * 3) % 15:02d} 1\n" for i in range(5)) + "q1 0 p15 1\n"
    )
    _write_jsonl(
        root / "snippets.jsonl",
        [
            {"query_id": f"q{i}", "rank": r, "kind": "organic",
             "text": "?! -- ..." if i == 4 else _mixed_words(80 + 2 * i + r, 8) + ".",
             "source": "web_serp"}
            for i in range(5)
            for r in range(1, 4)
        ],
    )
    (root / "dense.run").write_text(
        "".join(
            f"q{i} Q0 {pid} {j + 1} {5 - j}.25 dense\n"
            for i in range(5)
            for j, pid in enumerate(["p15", f"p{(i * 4) % 15:02d}", f"p{(i * 4 + 1) % 15:02d}"])
        )
    )
    (root / "baseline.run").write_text(
        "".join(
            f"q{i} Q0 p{(i * 2 + j) % 16:02d} {j + 1} {6 - j}.0 base\n"
            for i in range(5)
            for j in range(5)
        )
    )
    return root


@pytest.mark.parametrize("mode", sorted(MIXED_GOLDEN))
def test_mixed_text_pipeline_artifacts_match_golden_hashes(mixed_workspace, mode):
    root = mixed_workspace
    out = root / f"out_{mode}"
    config = _golden_config(root, mode, out)
    assert main(["pipeline", "run", "--config", str(config)]) == 0
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
        if (out / name).exists()
    }
    assert got == MIXED_GOLDEN[mode]

from __future__ import annotations

import gc
import json
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import talentgraph.scoring  # noqa: F401  imported before a test rebinds its ``tokenize``
from talentgraph import cli
from talentgraph.cli import main
from talentgraph.graph import KnowledgeGraph, ScoringConfig
from talentgraph.lexicon import load_sentiment_gazetteer, load_skill_lexicon
from talentgraph.parser import extract_skills
from talentgraph.query import Query, QueryTerm, execute, explain, parse_query
from talentgraph.tokenization import DEFAULT_KEEP_CHARS, tokenize

from conftest import (
    CORPUS_DIR, GAZETTEER_FILE, GOLD_FILE, LEXICON_FILE, parse_corpus, run_python,
    run_talentgraph,
)
from oracle import OracleGraph, naive_parse_query, naive_parse_resume
from test_evaluation import count_jobseeker_ids
from test_parser import RESUME_SKILLS, resume_text


def run_cli(*args):
    return main([str(a) for a in args])


def ingest(tmp_path, name="graph.json", extra=()):
    out = tmp_path / name
    code = run_cli(
        "ingest", CORPUS_DIR, "--lexicon", LEXICON_FILE,
        "--gazetteer", GAZETTEER_FILE, "--out", out, *extra,
    )
    assert code == 0
    return out


def test_ingest_builds_graph(tmp_path, capsys):
    out = ingest(tmp_path)
    graph = KnowledgeGraph.load(out)
    assert len(graph.jobseeker_ids()) == 6
    assert "ingested 6 resumes" in capsys.readouterr().out


def test_ingest_empty_dir_warns_exit_zero(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "graph.json"
    code = run_cli(
        "ingest", empty, "--lexicon", LEXICON_FILE,
        "--gazetteer", GAZETTEER_FILE, "--out", out,
    )
    assert code == 0
    assert "warning" in capsys.readouterr().err
    assert KnowledgeGraph.load(out).jobseeker_ids() == []


def copy_corpus_with_latin1_file(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for path in CORPUS_DIR.glob("*.txt"):
        (corpus / path.name).write_bytes(path.read_bytes())
    bad = corpus / "r00_latin1.txt"  # sorts first, so it holds seed 0
    bad.write_bytes("Zoé Martin\n\nSKILLS\njava\n".encode("latin-1"))
    return corpus, bad


def test_ingest_skips_file_that_is_not_utf8(tmp_path, capsys):
    corpus, bad = copy_corpus_with_latin1_file(tmp_path)
    out = tmp_path / "graph.json"
    code = run_cli(
        "ingest", corpus, "--lexicon", LEXICON_FILE,
        "--gazetteer", GAZETTEER_FILE, "--out", out,
    )
    assert code == 0
    assert f"warning: {bad} is not valid UTF-8, skipped" in capsys.readouterr().err
    ids = KnowledgeGraph.load(out).jobseeker_ids()
    assert len(ids) == 6
    assert "js0001-jane-doe" in ids


def test_stats_dir_skips_file_that_is_not_utf8(tmp_path, capsys):
    corpus, bad = copy_corpus_with_latin1_file(tmp_path)
    assert run_cli("stats", corpus, "--lexicon", LEXICON_FILE, "--json") == 0
    captured = capsys.readouterr()
    assert f"warning: {bad} is not valid UTF-8, skipped" in captured.err
    assert json.loads(captured.out)["stats"]["resume_count"] == 6


def test_leading_byte_order_mark_is_dropped(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    bom = "\ufeff".encode("utf-8")
    (corpus / "a.txt").write_bytes(bom + b"Jane Doe\n\nSKILLS\njava\n")
    (corpus / "b.txt").write_bytes(bom + b"Skills\njava, python\n")
    inter = tmp_path / "intermediate.json"
    assert run_cli("ingest", corpus, "--lexicon", LEXICON_FILE, "--gazetteer", GAZETTEER_FILE,
                   "--out", tmp_path / "graph.json", "--intermediate", inter) == 0
    assert json.loads(inter.read_text(encoding="utf-8"))["jobseekers"] == {
        "js0000-jane-doe": {"_declared_skills": ["java"], "_name": "Jane Doe"},
        "js0001-unknown": {"_declared_skills": ["java", "python"], "_name": "unknown"},
    }
    capsys.readouterr()
    assert run_cli("stats", corpus, "--lexicon", LEXICON_FILE, "--json") == 0
    assert json.loads(capsys.readouterr().out)["stats"]["distinct_skills"] == 2


def test_ingest_verbose_prints_one_line_per_diagnostic(tmp_path, capsys):
    ingest(tmp_path, extra=("-v",))
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    names = {path.name for path in CORPUS_DIR.glob("*.txt")}
    assert lines and all(line.split(": ", 1)[0] in names for line in lines)
    assert f"{len(lines)} diagnostics)" in captured.out


def test_ingest_missing_corpus_is_error(tmp_path, capsys):
    missing, out = tmp_path / "missing", tmp_path / "graph.json"
    assert run_cli("ingest", missing, "--lexicon", LEXICON_FILE,
                   "--gazetteer", GAZETTEER_FILE, "--out", out) == 1
    assert capsys.readouterr().err == f"error: corpus directory not found: {missing}\n"
    assert not out.exists()


def test_ingest_skips_empty_file_and_keeps_other_ids(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for path in CORPUS_DIR.glob("*.txt"):
        (corpus / path.name).write_bytes(path.read_bytes())
    empty = corpus / "r00_empty.txt"  # sorts first, so it holds seed 0
    empty.write_text(" \n\n", encoding="utf-8")
    out = tmp_path / "graph.json"
    assert run_cli("ingest", corpus, "--lexicon", LEXICON_FILE,
                   "--gazetteer", GAZETTEER_FILE, "--out", out) == 0
    assert f"warning: {empty} is empty, skipped" in capsys.readouterr().err
    ids = KnowledgeGraph.load(out).jobseeker_ids()
    assert len(ids) == 6 and "js0001-jane-doe" in ids and "js0006-omar-hassan" in ids


def test_ingest_phrase_conflict_writes_nothing(tmp_path, capsys):
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps({"schema_version": 1, "skills": [
        {"canonical": "c++", "category": "x"},
        {"canonical": "cpp-lang", "category": "x", "aliases": ["c++."]},
    ]}), encoding="utf-8")
    out = tmp_path / "graph.json"
    code = run_cli(
        "ingest", CORPUS_DIR, "--lexicon", lexicon,
        "--gazetteer", GAZETTEER_FILE, "--out", out,
    )
    assert code == 1
    assert "'c++' maps to both 'c++' and 'cpp-lang'" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_writes_intermediate(tmp_path):
    inter = tmp_path / "intermediate.json"
    ingest(tmp_path, extra=("--intermediate", inter))
    doc = json.loads(inter.read_text(encoding="utf-8"))
    assert "js0000-jane-doe" in doc["jobseekers"]


@pytest.mark.parametrize("extra_alias", [None, "node.js"], ids=["fixture", "keeps-dot"])
def test_ingest_tokenizes_each_description_once(tmp_path, monkeypatch, extra_alias):
    """Skill matching and scoring share one token list per description; a lexicon
    that keeps a symbol scoring does not (``.``) makes each scored one re-tokenize."""
    doc = json.loads(LEXICON_FILE.read_text(encoding="utf-8"))
    if extra_alias:
        doc["skills"].append({"canonical": extra_alias, "category": "x"})
    lexicon_file = tmp_path / "lexicon.json"
    lexicon_file.write_text(json.dumps(doc), encoding="utf-8")
    lexicon = load_skill_lexicon(lexicon_file)
    assert (lexicon.phrase_index[0] == DEFAULT_KEEP_CHARS) == (extra_alias is None)
    experiences = [e.details for r in parse_corpus(lexicon) for e in r.experiences]
    scored = sum(1 for details in experiences if extract_skills(details, lexicon))
    assert 0 < scored < len(experiences)

    calls = []

    def counting_tokenize(*args, **kwargs):
        calls.append(args)
        return tokenize(*args, **kwargs)

    for name, module in list(sys.modules.items()):  # every module that bound it
        if name.split(".")[0] == "talentgraph" and vars(module).get("tokenize") is tokenize:
            monkeypatch.setattr(module, "tokenize", counting_tokenize)
    assert run_cli("ingest", CORPUS_DIR, "--lexicon", lexicon_file,
                   "--gazetteer", GAZETTEER_FILE, "--out", tmp_path / "graph.json") == 0
    resumes = len(list(CORPUS_DIR.glob("*.txt")))
    assert len(calls) == resumes + len(experiences) + (scored if extra_alias else 0)


def test_query_json_matches_in_process(tmp_path, capsys, lexicon):
    out = ingest(tmp_path)
    capsys.readouterr()
    code = run_cli("query", out, "top java candidates", "--json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    graph = KnowledgeGraph.load(out)
    expected = execute(parse_query("top java candidates", lexicon), graph)
    assert payload["results"] == [r.to_dict() for r in expected]
    assert [r["jobseeker_id"] for r in payload["results"]] == [
        "js0000-jane-doe", "js0001-john-smith", "js0004-priya-patel",
    ]


def test_query_without_lexicon_uses_graph_skills(tmp_path, capsys):
    out = ingest(tmp_path)
    capsys.readouterr()
    assert run_cli("query", out, "top java candidates", "--json") == 0
    first = capsys.readouterr().out
    assert run_cli("query", out, "top java candidates", "--json",
                   "--lexicon", LEXICON_FILE) == 0
    assert capsys.readouterr().out == first


def test_query_alias_needs_lexicon(tmp_path, capsys):
    out = ingest(tmp_path)
    capsys.readouterr()
    # "CPP" resolves only through the alias-aware lexicon
    assert run_cli("query", out, "top CPP candidates") == 1
    assert "unknown skill" in capsys.readouterr().err
    assert run_cli("query", out, "top CPP candidates", "--lexicon", LEXICON_FILE) == 0


def test_fallback_lexicon_accepts_exactly_the_graph_skill_keys(tmp_path, capsys):
    """Without --lexicon, query, explain and eval resolve a skill by its key in
    the graph and nothing else: a key prints what the same command prints with
    --lexicon, and an alias or a skill no resume holds is an unknown skill."""
    out = ingest(tmp_path)
    keys = KnowledgeGraph.load(out).skill_keys()
    phrases = sorted({*keys, *load_skill_lexicon(LEXICON_FILE).alias_index})
    assert set(keys) < set(phrases)
    gold = tmp_path / "gold.json"
    capsys.readouterr()
    for phrase in phrases:
        gold.write_text(json.dumps({"queries": [{"query": phrase, "relevant": []}]}))
        for command in (["query", out, phrase, "--json"], ["query", out, phrase],
                        ["explain", out, "js0000-jane-doe", phrase],
                        ["eval", out, gold, "--json"]):
            assert run_cli(*command, "--lexicon", LEXICON_FILE) == 0, command
            expected = capsys.readouterr().out
            if phrase in keys:
                assert run_cli(*command) == 0, command
                assert capsys.readouterr().out == expected, command
            else:
                assert run_cli(*command) == 1, command
                assert "unknown skill" in capsys.readouterr().err, command


def test_query_multi_range_empty_result(tmp_path, capsys):
    out = ingest(tmp_path)
    capsys.readouterr()
    code = run_cli("query", out, "C++ 8-10, Java 6-8, Python 2-3", "--json")
    assert code == 0
    assert json.loads(capsys.readouterr().out)["results"] == []


def test_query_human_table(tmp_path, capsys):
    out = ingest(tmp_path)
    capsys.readouterr()
    assert run_cli("query", out, "top java candidates") == 0
    table = capsys.readouterr().out
    assert "js0000-jane-doe" in table
    assert "rank" in table


def test_query_out_writes_text_table(tmp_path, capsys):
    graph = ingest(tmp_path)
    capsys.readouterr()
    assert run_cli("query", graph, "top java candidates") == 0
    table = capsys.readouterr().out
    out = tmp_path / "query.txt"
    assert run_cli("query", graph, "top java candidates", "--out", out) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == table


def test_explain_json_sums(tmp_path, capsys):
    out = ingest(tmp_path)
    capsys.readouterr()
    code = run_cli("explain", out, "js0000-jane-doe", "java 6-8", "--json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)["explanation"]
    assert payload["qualifies"] is False
    term = payload["terms"][0]
    assert term["strength"] == pytest.approx(
        term["sentiment_mean"] + term["duration_bonus"]
    )


def test_explain_bound_too_large_for_a_float_is_error(tmp_path, capsys):
    out = ingest(tmp_path)
    capsys.readouterr()
    dsl = f"java 1-{'9' * 400}"
    assert run_cli("explain", out, "js0000-jane-doe", dsl, "--json") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bound in 'java 1-inf' is not finite\n"


def test_export_json_round_trips(tmp_path, capsys):
    out = ingest(tmp_path)
    exported = tmp_path / "exported.json"
    assert run_cli("export", out, "--format", "json", "--out", exported) == 0
    assert KnowledgeGraph.load(exported) == KnowledgeGraph.load(out)


def test_export_dot(tmp_path, capsys):
    out = ingest(tmp_path)
    capsys.readouterr()
    assert run_cli("export", out, "--format", "dot") == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")
    assert '"skill:java"' in dot


def test_stats_on_dir_and_graph(tmp_path, capsys):
    out = ingest(tmp_path)
    capsys.readouterr()
    assert run_cli("stats", CORPUS_DIR, "--lexicon", LEXICON_FILE, "--json") == 0
    from_dir = json.loads(capsys.readouterr().out)["stats"]
    assert run_cli("stats", out, "--json") == 0
    from_graph = json.loads(capsys.readouterr().out)["stats"]
    assert from_dir["resume_count"] == from_graph["resume_count"] == 6
    assert from_dir["distinct_skills"] == 9


def test_stats_dir_counts_declared_skills_and_graph_counts_mentioned_ones(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "r.txt").write_text(
        "Sam Hill\n\nSKILLS\njava\n\nEXPERIENCE\nAcme Ltd.\nSearch\n2 years\n"
        "Built a python indexer.\n", encoding="utf-8")
    graph = tmp_path / "graph.json"
    assert run_cli("ingest", corpus, "--lexicon", LEXICON_FILE,
                   "--gazetteer", GAZETTEER_FILE, "--out", graph) == 0
    capsys.readouterr()
    assert run_cli("stats", corpus, "--lexicon", LEXICON_FILE, "--json") == 0
    assert json.loads(capsys.readouterr().out)["stats"]["distinct_skills"] == 1
    assert run_cli("stats", graph, "--json") == 0
    assert json.loads(capsys.readouterr().out)["stats"]["distinct_skills"] == 2


def test_stats_dir_requires_lexicon(capsys):
    assert run_cli("stats", CORPUS_DIR) == 1
    assert "--lexicon" in capsys.readouterr().err


def test_eval_subcommand(tmp_path, capsys):
    out = ingest(tmp_path)
    capsys.readouterr()
    code = run_cli("eval", out, GOLD_FILE, "--lexicon", LEXICON_FILE, "--json")
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert metrics["extraction"]["precision"] == pytest.approx(15 / 16)
    assert metrics["topk"]["10"] == pytest.approx(0.75)


@pytest.mark.parametrize("query, relevant, message", [
    ("top cobol", ["js0000-jane-doe"], "queries[1]: unknown skill 'cobol'"),
    ("top java", ["js9999-ghost"],
     "queries[1]: gold references unknown jobseekers: ['js9999-ghost']"),
], ids=["unknown-skill", "unknown-relevant-id"])
def test_eval_locates_a_bad_gold_query(tmp_path, capsys, query, relevant, message):
    out = ingest(tmp_path)
    gold = tmp_path / "gold.json"
    gold.write_text(json.dumps({"queries": [
        {"query": "top python", "relevant": ["js0000-jane-doe"]},
        {"query": query, "relevant": relevant},
    ]}), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("eval", out, gold, "--lexicon", LEXICON_FILE) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_eval_table_output(tmp_path, capsys):
    out = ingest(tmp_path)
    capsys.readouterr()
    assert run_cli("eval", out, GOLD_FILE, "--lexicon", LEXICON_FILE) == 0
    assert "skill extraction" in capsys.readouterr().out


@pytest.mark.parametrize("mode, heading, values", [
    ("hit", "hit-rate", ["0.7500", "0.7500", "0.7500"]),
    ("precision", "precision", ["0.2500", "0.1500", "0.0750"]),
])
def test_eval_table_names_topk_mode(tmp_path, capsys, mode, heading, values):
    out = ingest(tmp_path)
    capsys.readouterr()
    assert run_cli("eval", out, GOLD_FILE, "--lexicon", LEXICON_FILE, "--topk-mode", mode) == 0
    assert capsys.readouterr().out.splitlines()[-4:] == [
        f"ranking ({heading}@k)",
        f"  top 3  relevant            {values[0]}",
        f"  top 5  relevant            {values[1]}",
        f"  top 10 relevant            {values[2]}",
    ]


def test_json_output_key_sets(tmp_path, capsys):
    """The exact keys at every level of explain, stats and eval --json."""
    out = ingest(tmp_path)
    capsys.readouterr()

    def payload(*args):
        assert run_cli(*args, "--json") == 0
        return json.loads(capsys.readouterr().out)

    doc = payload("explain", out, "js0000-jane-doe", "java 6-8, kafka", "--lexicon", LEXICON_FILE)
    assert set(doc) == {"schema_version", "explanation"}
    assert set(doc["explanation"]) == {"jobseeker_id", "total_score", "qualifies", "terms"}
    assert [term["skill"] for term in doc["explanation"]["terms"]] == ["java", "kafka"]
    for term in doc["explanation"]["terms"]:
        assert set(term) == {
            "skill", "strength", "sentiment_mean", "duration_bonus", "years",
            "support_count", "projects", "min_years", "max_years", "satisfied",
        }

    doc = payload("stats", out)
    assert set(doc) == {"schema_version", "stats"}
    assert set(doc["stats"]) == {
        "resume_count", "distinct_skills", "avg_skills_per_resume",
        "avg_projects_per_resume", "skills_by_category",
    }
    assert set(doc["stats"]["skills_by_category"]) == {
        "database technologies", "middleware technologies", "operating systems",
        "programming languages", "scripting languages", "web technologies",
    }

    for mode in ("hit", "precision"):
        doc = payload("eval", out, GOLD_FILE, "--lexicon", LEXICON_FILE, "--topk-mode", mode)
        assert set(doc) == {"schema_version", "metrics"}
        assert set(doc["metrics"]) == {"extraction", "sentiment", "topk"}
        assert set(doc["metrics"]["extraction"]) == {"precision", "recall", "f1"}
        assert set(doc["metrics"]["sentiment"]) == {"accuracy", "precision", "recall"}
        assert list(doc["metrics"]["topk"]) == ["10", "3", "5"]


def test_ingest_huge_gazetteer_weight_is_error(tmp_path, capsys):
    gazetteer = tmp_path / "gaz.json"
    gazetteer.write_text(
        f'{{"entries": [{{"keyword": "fast", "class": "x", "weight": 1{"0" * 400}}}]}}',
        encoding="utf-8",
    )
    out = tmp_path / "graph.json"
    code = run_cli("ingest", CORPUS_DIR, "--lexicon", LEXICON_FILE,
                   "--gazetteer", gazetteer, "--out", out)
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {gazetteer}: entries[0]: weight 1{'0' * 400} outside [0, 1]\n")
    assert not out.exists()


def test_duration_count_too_long_is_unknown_and_graph_queries(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "r.txt").write_text(
        f"Sam Hill\n\nEXPERIENCE\nAcme Ltd.\nA Project\n1{'0' * 400} years\nRobust java.\n",
        encoding="utf-8",
    )
    out = tmp_path / "graph.json"
    assert run_cli("ingest", corpus, "--lexicon", LEXICON_FILE,
                   "--gazetteer", GAZETTEER_FILE, "--out", out) == 0
    capsys.readouterr()
    assert run_cli("query", out, "top java") == 0
    table = capsys.readouterr().out
    assert "js0000-sam-hill" in table and "(0.0y)" in table


@pytest.mark.parametrize("flag, value, message", [
    ("--duration-bonus-factor", "-1", "duration_bonus_factor must be >= 0"),
    ("--duration-bonus-factor", "nan", "duration_bonus_factor must be finite"),
    ("--duration-cap-months", "0", "duration_cap_months must be positive"),
    ("--duration-bonus-factor", "1e308", "duration_bonus_factor must be <= 1e6"),
    pytest.param("--duration-cap-months", "9" * 401, "duration_cap_months must be <= 2**53",
                 id="cap-of-401-digits"),
])
def test_ingest_bad_scoring_config_is_error(tmp_path, flag, value, message):
    out = tmp_path / "graph.json"
    result = run_talentgraph(
        "ingest", str(CORPUS_DIR), "--lexicon", str(LEXICON_FILE),
        "--gazetteer", str(GAZETTEER_FILE), "--out", str(out), flag, value, check=False,
    )
    assert result.returncode == 1
    assert result.stderr.decode() == f"error: {message}\n"
    assert not out.exists()


def test_ingest_default_scoring_config_is_the_dataclass_default(tmp_path):
    assert KnowledgeGraph.load(ingest(tmp_path)).config == ScoringConfig()


def test_missing_graph_file_is_error(capsys):
    assert run_cli("query", "/nonexistent/graph.json", "top java") == 1
    assert "error:" in capsys.readouterr().err


def test_cli_byte_identical_across_subprocess_runs(tmp_path):
    # full end-to-end through the real interpreter, twice
    env_graph = tmp_path / "graph.json"
    ingest_args = [
        "ingest", str(CORPUS_DIR),
        "--lexicon", str(LEXICON_FILE), "--gazetteer", str(GAZETTEER_FILE),
        "--out", str(env_graph),
    ]
    outputs = []
    graph_bytes = []
    for _ in range(2):
        run_talentgraph(*ingest_args)
        graph_bytes.append(env_graph.read_bytes())
        result = run_talentgraph("query", str(env_graph), "top java candidates", "--json")
        outputs.append(result.stdout)
        env_graph.unlink()
    assert graph_bytes[0] == graph_bytes[1]
    assert outputs[0] == outputs[1]


def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path, monkeypatch):
    """Every command that writes bytes writes the same bytes in child
    interpreters under ``PYTHONHASHSEED`` 0 and 1: ingest's graph and
    intermediate files and its stdout, export in json and in dot, stats and
    stats --json of the graph and of the corpus, eval --json, and query --json
    and explain --json. A set iterated into an output would differ."""
    graph, intermediate = tmp_path / "graph.json", tmp_path / "intermediate.json"
    dsl, lexicon = "java 1+, python", ("--lexicon", LEXICON_FILE)
    commands = [
        ["ingest", CORPUS_DIR, *lexicon, "--gazetteer", GAZETTEER_FILE, "--out", graph,
         "--intermediate", intermediate],
        ["export", graph], ["export", graph, "--format", "dot"],
        ["stats", graph], ["stats", graph, "--json"],
        ["stats", CORPUS_DIR, *lexicon], ["stats", CORPUS_DIR, *lexicon, "--json"],
        ["eval", graph, GOLD_FILE, *lexicon, "--json"],
        ["query", graph, dsl, *lexicon, "--json"],
        ["explain", graph, "js0000-jane-doe", dsl, *lexicon, "--json"],
    ]
    written = []
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        outputs = [run_talentgraph(*map(str, argv)).stdout for argv in commands]
        written.append([*outputs, graph.read_bytes(), intermediate.read_bytes()])
    assert written[0] == written[1]


def test_real_interpreter_output_equals_in_process_output(tmp_path, capsys, monkeypatch):
    """Every command in a fresh interpreter, which imports only the modules
    the command imports itself; in this process every module is already
    imported, so a missing import shows only in the child."""
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped alike here and in the child
    graph, intermediate = tmp_path / "graph.json", tmp_path / "intermediate.json"
    dsl = "java 6-8, python"
    for argv in (
        ["ingest", CORPUS_DIR, "--lexicon", LEXICON_FILE, "--gazetteer", GAZETTEER_FILE,
         "--out", graph, "--intermediate", intermediate],
        ["query", graph, dsl],
        ["query", graph, dsl, "--lexicon", LEXICON_FILE],
        ["query", graph, dsl, "--json"],
        ["query", graph, dsl, "--json", "--lexicon", LEXICON_FILE],
        ["explain", graph, "js0000-jane-doe", dsl, "--json"],
        ["stats", graph, "--json"],
        ["stats", CORPUS_DIR, "--lexicon", LEXICON_FILE],
        ["eval", graph, GOLD_FILE, "--lexicon", LEXICON_FILE, "--json"],
        ["export", graph, "--format", "dot"],
        # Only the child's ``main`` reads its command from ``sys.argv``.
        ["--help"],
        ["query", "--help"],
        ["query", graph, dsl, "--bogus"],
    ):
        argv = [str(a) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
        assert code == (2 if "--bogus" in argv else 0)
        written = graph.read_bytes(), intermediate.read_bytes()
        child = run_talentgraph(*argv, check=False)
        out = capsys.readouterr()
        assert (child.returncode, child.stdout.decode("utf-8"), child.stderr.decode("utf-8")) == (
            code, out.out, out.err)
        # ingest rewrites both files in the child; no other command writes one.
        assert (graph.read_bytes(), intermediate.read_bytes()) == written


# argv that argparse answers itself, with help or a usage error.
ARGPARSE_CASES = {
    "help": ["--help"],
    **{f"{command}-help": [command, "-h"]
       for command in ("ingest", "query", "explain", "export", "stats", "eval")},
    "no-command": [],
    "unknown-command": ["bogus"],
    "miscased-command": ["Query"],
    "unknown-option-after-query": ["query", "g.json", "java", "--bogus"],
    "unknown-option-after-stats": ["stats", "g.json", "--bogus"],
    "query-missing-positionals": ["query"],
    "explain-missing-positionals": ["explain", "g.json"],
    "ingest-missing-options": ["ingest", "corpus"],
    "query-extra-positional": ["query", "g.json", "java", "extra"],
    "stats-extra-positional": ["stats", "g.json", "h.json"],
    "bad-format": ["export", "g.json", "--format", "png"],
    "bad-topk-mode": ["eval", "g.json", "gold.json", "--topk-mode", "recall"],
    "non-integer-cap": ["ingest", "corpus", "--lexicon", "l.json", "--gazetteer", "z.json",
                        "--out", "o.json", "--duration-cap-months", "ten"],
}


def argparse_outcome(parse, argv: list[str], capsys) -> tuple:
    with pytest.raises(SystemExit) as exit_:
        parse(list(argv))
    out = capsys.readouterr()
    return exit_.value.code, out.out, out.err


@pytest.mark.parametrize("columns", ["30", "80", "200"])
@pytest.mark.parametrize("argv", ARGPARSE_CASES.values(), ids=ARGPARSE_CASES.keys())
def test_main_prints_what_the_whole_parser_tree_prints(argv, columns, monkeypatch, capsys):
    """``main`` builds the subparser of the command it is given alone; its help
    and usage errors are the whole tree's at every terminal width."""
    monkeypatch.setenv("COLUMNS", columns)
    whole = argparse_outcome(cli.build_arg_parser().parse_args, argv, capsys)
    assert argparse_outcome(main, argv, capsys) == whole


def test_usage_errors_name_the_command_argument(capsys):
    _, _, err = argparse_outcome(main, ["bogus"], capsys)
    assert "error: argument command: invalid choice: 'bogus'" in err
    _, _, err = argparse_outcome(main, [], capsys)
    assert err.endswith("error: the following arguments are required: command\n")


def test_an_argument_that_starts_with_a_dash_follows_double_dash(tmp_path, capsys):
    """A skill key or jobseeker id that starts with ``-`` is an option to
    argparse unless it follows ``--``, after which ``query`` and ``explain``
    print what the library gives."""
    graph = KnowledgeGraph.from_dict({
        "schema_version": 4, "config": {"duration_bonus_factor": 0.5, "duration_cap_months": 120},
        "skills": [["-net", {}]],
        "jobseekers": [["-js", "Jo", [], [["t", "acme", 12, 0, ["-net"]]]]]})
    path = tmp_path / "graph.json"
    graph.save(path)
    query = Query((QueryTerm("-net"),))
    results = execute(query, graph)
    assert [r.jobseeker_id for r in results] == ["-js"]
    assert run_cli("query", path, "--", "-net") == 0
    assert capsys.readouterr() == (cli._format_results(results) + "\n", "")
    assert run_cli("query", path, "--json", "--", "-net") == 0
    assert json.loads(capsys.readouterr().out) == {"schema_version": 1, "query": "-net",
                                                   "top_k": 10,
                                                   "results": [r.to_dict() for r in results]}
    assert run_cli("explain", path, "--json", "--", "-js", "-net") == 0
    assert json.loads(capsys.readouterr().out) == {
        "schema_version": 1, "explanation": explain("-js", query, graph).to_dict()}
    for argv, missing in [(["query", path, "-net"], "dsl"),
                          (["explain", path, "-js", "-net"], "jobseeker, dsl")]:
        code, out, err = argparse_outcome(main, [str(a) for a in argv], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: the following arguments are required: {missing}\n")


IMPORT_GUARD = """
import json, sys
import talentgraph
seen = [sorted(m for m in sys.modules if m.startswith("talentgraph."))]
import talentgraph.cli

def loaded():
    return [m for m in ("evaluation", "intermediate", "parser", "query", "scoring", "stats")
            if "talentgraph." + m in sys.modules]

seen.append(loaded())
talentgraph.cli.main(["stats", sys.argv[1]])
seen.append(loaded())
talentgraph.cli.main(["export", sys.argv[1], "--format", "dot"])
seen.append(loaded())
talentgraph.cli.main(["query", sys.argv[1], "java, python"])
seen.append(loaded())
talentgraph.cli.main(["ingest", *sys.argv[2:]])
seen.append(loaded())
print(json.dumps(seen))
"""


def test_commands_import_only_the_modules_they_run(tmp_path):
    """A deterministic guard on start-up cost: ``import talentgraph`` loads no
    submodule; ``import talentgraph.cli``, and stats, export and query on a
    graph file, load neither parser nor scoring, so loading a graph rebuilds
    it without parsing or scoring; stats, export and ingest (without
    --intermediate) load neither query, evaluation nor intermediate."""
    graph = ingest(tmp_path)
    argv = [graph, CORPUS_DIR, "--lexicon", LEXICON_FILE, "--gazetteer", GAZETTEER_FILE,
            "--out", tmp_path / "child.json"]
    out = run_python("-c", IMPORT_GUARD, *map(str, argv))
    assert json.loads(out.stdout.splitlines()[-1]) == [
        [], [], ["stats"], ["stats"], ["query", "stats"], ["parser", "query", "scoring", "stats"]]


def test_only_query_and_eval_sort_the_jobseekers_each_once(tmp_path, monkeypatch):
    """A deterministic guard on ranking work: ``query`` and ``eval``, whatever
    its number of gold queries, each call ``jobseeker_ids`` once; the commands
    that rank nothing never call it."""
    graph = ingest(tmp_path)
    calls = count_jobseeker_ids(monkeypatch)
    for argv, want in [
        (["query", graph, "java, python"], 1),
        (["query", graph, "top 2 java", "--lexicon", LEXICON_FILE, "--json"], 1),
        (["eval", graph, GOLD_FILE], 1),
        (["eval", graph, GOLD_FILE, "--lexicon", LEXICON_FILE], 1),
        (["eval", graph, GOLD_FILE, "--lexicon", LEXICON_FILE, "--json"], 1),
        (["explain", graph, "js0000-jane-doe", "java, python"], 0),
        (["stats", graph], 0),
        (["export", graph], 0),
        (["export", graph, "--format", "dot"], 0),
    ]:
        calls.clear()
        assert (run_cli(*argv), len(calls)) == (0, want), argv


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("outcome", ["ok", "error", "raises"])
def test_main_pauses_collector_and_restores_its_state(
    tmp_path, capsys, monkeypatch, enabled, outcome
):
    graph = ingest(tmp_path) if outcome == "ok" else tmp_path / "missing.json"
    original = cli._cmd_stats
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        if outcome == "raises":
            raise RuntimeError("boom")
        return original(args)

    monkeypatch.setattr(cli, "_cmd_stats", command)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "raises":
            with pytest.raises(RuntimeError, match="boom"):
                run_cli("stats", graph)
        else:
            assert run_cli("stats", graph) == (0 if outcome == "ok" else 1)
        enabled_after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert (seen, enabled_after) == ([False], enabled)
    assert ("error:" in capsys.readouterr().err) == (outcome == "error")


def test_paused_collector_leaves_no_garbage_that_grows_with_the_corpus(tmp_path):
    def unreachable_after_ingest(copies):
        corpus = tmp_path / f"corpus{copies}"
        corpus.mkdir()
        for copy in range(copies):
            for path in CORPUS_DIR.glob("*.txt"):
                (corpus / f"c{copy}_{path.name}").write_bytes(path.read_bytes())
        gc.collect()
        code = run_cli("ingest", corpus, "--lexicon", LEXICON_FILE,
                       "--gazetteer", GAZETTEER_FILE, "--out", tmp_path / f"g{copies}.json")
        assert code == 0
        return gc.collect()

    unreachable_after_ingest(0)  # warm up whatever a first command leaves behind once
    assert unreachable_after_ingest(4) <= unreachable_after_ingest(1)


# -- text to answer against the oracle -----------------------------------------

KEYWORDS = [entry["keyword"] for entry in
            json.loads(GAZETTEER_FILE.read_text(encoding="utf-8"))["entries"]]


@st.composite
def corpus_and_queries(draw):
    """A lexicon and a gazetteer drawn from the fixture ones; resume texts,
    each a drawn resume plus projects that mention the lexicon's aliases and
    the gazetteer's words; and queries of the lexicon's skills, each term with
    an optional range."""
    skills = draw(st.lists(st.sampled_from(RESUME_SKILLS), min_size=1, max_size=5,
                           unique_by=lambda rec: rec["canonical"]))
    skills = [{**rec, "aliases": draw(st.lists(st.sampled_from(rec["aliases"]), unique=True))}
              for rec in skills]
    entries = [{"keyword": keyword, "class": "x", "weight": draw(st.floats(0, 1))}
               for keyword in draw(st.lists(st.sampled_from(KEYWORDS), unique=True))]
    words = [alias for rec in skills for alias in (rec["canonical"], *rec["aliases"])]
    words += KEYWORDS + ["built", ","]
    project = st.tuples(
        st.sampled_from(["Acme Ltd.", "Übersee GmbH", "Globex", "• Initech, Inc."]),
        st.sampled_from(["Jan 2020 - Jun 2021", "( 2019 - 2021 )", "18 months", "7 years"]),
        st.lists(st.sampled_from(words), min_size=1, max_size=8).map(" ".join),
    ).map(lambda p: f"EXPERIENCE\n{p[0]}\nLedger\n{p[1]}\n{p[2]}.\n")
    resume = st.tuples(resume_text(), st.lists(project, min_size=1, max_size=3)).map(
        lambda r: r[0] + "\n" + "".join(r[1]))
    texts = draw(st.lists(resume, min_size=2, max_size=5))
    term = st.tuples(st.sampled_from([rec["canonical"] for rec in skills]),
                     st.sampled_from(["", "", "", " 0+", " 1+", " 0.5-2", " 0-1"]))
    queries = [f"top {draw(st.sampled_from([1, 3, 10]))} "
               + ", ".join(skill + bounds for skill, bounds in terms)
               for terms in draw(st.lists(st.lists(term, min_size=1, max_size=2,
                                                   unique_by=lambda t: t[0]),
                                          min_size=1, max_size=3))]
    return texts, skills, entries, queries


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=corpus_and_queries())
def test_query_answers_equal_the_oracle_from_resume_text(tmp_path, case):
    """``ingest`` then ``query --json`` of drawn resume texts give, for each
    query, the ids in order and the totals bit for bit of the oracle's parse,
    graph and ranking by ``(-total, id)``."""
    texts, skills, entries, queries = case
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "corpus").mkdir()
    for i, text in enumerate(texts):
        (work / "corpus" / f"r{i}.txt").write_bytes(text.encode("utf-8"))
    lexicon_file, gazetteer_file = work / "lexicon.json", work / "gazetteer.json"
    lexicon_file.write_text(json.dumps({"schema_version": 1, "skills": skills}), encoding="utf-8")
    gazetteer_file.write_text(json.dumps({"schema_version": 1, "entries": entries}),
                              encoding="utf-8")
    graph = work / "graph.json"
    assert run_cli("ingest", work / "corpus", "--lexicon", lexicon_file,
                   "--gazetteer", gazetteer_file, "--out", graph) == 0

    lexicon, gazetteer = load_skill_lexicon(lexicon_file), load_sentiment_gazetteer(gazetteer_file)
    records = [naive_parse_resume(text, lexicon, seed)[0] for seed, text in enumerate(texts)]
    oracle = OracleGraph(records, lexicon, gazetteer, ScoringConfig())
    for dsl in queries:
        out = work / "answer.json"
        assert run_cli("query", graph, dsl, "--json", "--lexicon", lexicon_file, "--out", out) == 0
        got = [(row["jobseeker_id"], row["total_score"])
               for row in json.loads(out.read_text(encoding="utf-8"))["results"]]
        terms, top_k = naive_parse_query(dsl, lexicon.alias_index)
        query = types.SimpleNamespace(top_k=top_k, terms=[
            types.SimpleNamespace(skill=skill, min_years=low, max_years=high)
            for skill, low, high in terms])
        assert got == oracle.execute(query), dsl

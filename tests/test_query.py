from __future__ import annotations

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from talentgraph import cli
from talentgraph.errors import (
    EmptyQueryError,
    NodeNotFoundError,
    QueryError,
    QueryRangeError,
    UnknownSkillError,
)
from talentgraph.graph import EdgeKind, KnowledgeGraph
from talentgraph.lexicon import parse_sentiment_records
from talentgraph.query import (DEFAULT_TOP_K, Query, QueryTerm, _postings, _rank, execute, explain,
                               parse_query)

from conftest import GAZETTEER_FILE, LEXICON_FILE, build_graph
from oracle import OracleGraph, naive_parse_query
from test_graph import (GAZETTEER, LEXICON, SENTIMENT_WORDS, exp, record, record_sets,
                        shared_edge_records)


# -- parsing -------------------------------------------------------------------

def test_parse_multi_term_range_query(lexicon):
    query = parse_query("C++ 8-10, Java 6-8, Python 2-3", lexicon)
    assert query.terms == (
        QueryTerm("c++", 8.0, 10.0),
        QueryTerm("java", 6.0, 8.0),
        QueryTerm("python", 2.0, 3.0),
    )
    assert query.top_k == 10


def test_parse_prose_query(lexicon):
    query = parse_query("top C++ candidates", lexicon)
    assert query.terms == (QueryTerm("c++", None, None),)
    assert query.top_k == 10


def test_parse_top_n(lexicon):
    assert parse_query("top 5 java", lexicon).top_k == 5
    assert parse_query("top java", lexicon).top_k == 10


def test_parse_top_n_too_long_for_int_is_query_error(lexicon):
    with pytest.raises(QueryError, match=r"^top N has too many digits \(5000\)$"):
        parse_query(f"top {'1' * 5000} java", lexicon)


def test_parse_min_only_and_decimals(lexicon):
    query = parse_query("java 2.5-4, python 8+", lexicon)
    assert query.terms == (QueryTerm("java", 2.5, 4.0), QueryTerm("python", 8.0, None))


def test_parse_alias_resolution(lexicon):
    assert parse_query("CPP 1-2", lexicon).terms[0].skill == "c++"
    assert parse_query("apache spark 1+", lexicon).terms[0].skill == "spark"


def test_parse_reversed_range_rejected(lexicon):
    with pytest.raises(QueryRangeError):
        parse_query("C++ 10-8", lexicon)


def test_parse_negative_range_rejected(lexicon):
    with pytest.raises(QueryRangeError):
        parse_query("c++ -1-2", lexicon)


@pytest.mark.parametrize("dsl, term", [(f"c++ 1-{'9' * 400}", "c++ 1-inf"),
                                       (f"CPP {'9' * 400}+", "c++ inf+"),
                                       (f"c++ {'9' * 309}-{'9' * 310}", "c++ inf-inf")],
                         ids=["max", "min", "both"])
def test_parse_bound_too_large_for_a_float_rejected(lexicon, dsl, term):
    """The term is named by its canonical skill and bounds, not by the text."""
    with pytest.raises(QueryRangeError) as err:
        parse_query(dsl, lexicon)
    assert str(err.value) == f"bound in {term!r} is not finite"


def test_parse_unknown_skill_named(lexicon):
    with pytest.raises(UnknownSkillError) as err:
        parse_query("basket weaving 2-3", lexicon)
    assert "basket weaving" in str(err.value)


def test_parse_empty_query(lexicon):
    with pytest.raises(EmptyQueryError):
        parse_query("", lexicon)
    with pytest.raises(EmptyQueryError):
        parse_query("top 5", lexicon)


def test_parse_top_zero_rejected(lexicon):
    with pytest.raises(QueryError, match=r"^top N must be positive$"):
        parse_query("top 0 java", lexicon)


def test_parse_term_of_only_filler_words_rejected(lexicon):
    with pytest.raises(EmptyQueryError, match=r"^empty query term$"):
        parse_query("java, candidates", lexicon)


def test_parse_duplicate_skill_rejected(lexicon):
    with pytest.raises(QueryError):
        parse_query("java 1-2, java 3-4", lexicon)


def test_parse_reads_every_term_before_top_n_is_checked(lexicon):
    with pytest.raises(UnknownSkillError, match=r"^unknown skill 'cobol'$"):
        parse_query("top 0 cobol", lexicon)


UNFOLDED = "is not a lowercase, single-spaced, non-empty string"


@pytest.mark.parametrize("terms, top_k, error, message", [
    ((("java",),), 0, QueryError, "top N must be positive"),
    ((("java",),), -1, QueryError, "top N must be positive"),
    ((("java",),), 2.0, QueryError, "top N must be positive"),
    ((("java",),), True, QueryError, "top N must be positive"),
    ((("java",),), None, QueryError, "top N must be positive"),
    ((), 10, EmptyQueryError, "query contains no terms"),
    ((), 0, QueryError, "top N must be positive"),
    ((("java", 5, 2),), 10, QueryRangeError, "range 5-2 has min > max"),
    ((("java", -3),), 10, QueryRangeError, "negative bound in 'java -3+'"),
    ((("java", None, -1),), 10, QueryRangeError, "negative bound in 'java 0--1'"),
    ((("java", math.nan),), 10, QueryRangeError, "bound in 'java nan+' is not finite"),
    ((("c++", 1.0, math.inf),), 10, QueryRangeError, "bound in 'c++ 1-inf' is not finite"),
    ((("java", True),), 10, QueryRangeError, "bound True in 'java' is not a number"),
    ((("java", "2"),), 10, QueryRangeError, "bound '2' in 'java' is not a number"),
    ((("java",), ("python",), ("java", 1.0)), 10, QueryError, "duplicate skill 'java' in query"),
    ((("java",), ("java",)), 0, QueryError, "top N must be positive"),
    ((("Java",),), 10, QueryError, f"skill 'Java' {UNFOLDED}"),
    (((None,),), 10, QueryError, f"skill None {UNFOLDED}"),
    ((("",),), 10, QueryError, f"skill '' {UNFOLDED}"),
    (((" java",),), 10, QueryError, f"skill ' java' {UNFOLDED}"),
    ((("apache  spark",),), 10, QueryError, f"skill 'apache  spark' {UNFOLDED}"),
    ((("Java", -3),), 10, QueryError, f"skill 'Java' {UNFOLDED}"),  # the skill first
])
def test_query_refuses_what_parse_query_refuses(terms, top_k, error, message):
    """A ``QueryTerm`` or ``Query`` built directly raises, when it is built,
    what ``parse_query`` raises for the same term or query, and a skill that is
    no folded lexicon key, which ``parse_query`` never makes; the terms reach
    ``Query`` as an iterator, which it reads once."""
    with pytest.raises(error) as err:
        Query(iter([QueryTerm(*args) for args in terms]), top_k)
    assert type(err.value) is error and str(err.value) == message


ALIASES = sorted(LEXICON.alias_index)
BOUNDS = ["0", "0.25", "1", "1.5", "2", "3", "10", "-1", "9" * 400, "٣", "３", "1٣"]


@st.composite
def dsl_texts(draw):
    """Query DSL text: fixture aliases in any case, or an unknown skill, each
    with no range, ``A-B`` (also spaced or with ``–``) or ``A+``, and trailing
    filler words; an optional ``top`` or ``top N``; blank pieces and stray commas.
    Some bounds and ``N`` are written in non-ASCII digits, which are no numbers."""
    def case(word):
        return "".join(draw(st.sampled_from([ch.lower(), ch.upper()])) for ch in word)

    def term():
        text = case(draw(st.sampled_from(ALIASES + ["cobol", "basket weaving", "top"])))
        low, high = draw(st.sampled_from(BOUNDS)), draw(st.sampled_from(BOUNDS))
        if draw(st.integers(0, 2)):  # mostly in order
            low, high = sorted([low, high], key=float)
        text += draw(st.sampled_from(["", f" {low}-{high}", f" {low} - {high}",
                                      f" {low}–{high}", f" {low}+", f" {low} +"]))
        fillers = draw(st.lists(st.sampled_from(["candidates", "Resume", "jobseekers"]),
                                max_size=2))
        return " ".join([text, *fillers]) if draw(st.integers(0, 9)) else " ".join(fillers)

    top = draw(st.sampled_from(["", "", "top ", "TOP ", "Top 3 ", "top 12 ", "top 1 ",
                                "top 0 ", f"top {'1' * 5000} ", "top ٣ ", "top ３ "]))
    pieces = [term() if draw(st.integers(0, 4)) else draw(st.sampled_from(["", " "]))
              for _ in range(draw(st.integers(1, 4)))]
    return top + draw(st.sampled_from([",", ", ", " ,"])).join(pieces)


@settings(max_examples=300, deadline=None)
@given(text=dsl_texts())
@example(text="top ٣ java")
@example(text="java ２-３")
@example(text="cobol -1+")
@example(text="java, java, cobol")
def test_parse_query_follows_the_readme_grammar(text):
    """``parse_query`` reads drawn DSL text as the README's grammar does, or
    both refuse it with the same error class."""
    want = naive_parse_query(text, LEXICON.alias_index)
    try:
        query = parse_query(text, LEXICON)
    except QueryError as err:
        assert type(err).__name__ == want, text
    else:
        got = [(t.skill, t.min_years, t.max_years) for t in query.terms], query.top_k
        assert got == want, text


# -- execution -------------------------------------------------------------------

def test_execute_ranks_by_java_strength(corpus_graph, lexicon):
    results = execute(parse_query("top java candidates", lexicon), corpus_graph)
    once = Query(iter([QueryTerm("java")]))  # read once, into a tuple
    assert type(once.terms) is tuple and execute(once, corpus_graph) == results
    assert [r.jobseeker_id for r in results] == [
        "js0000-jane-doe",     # 0.725 + 18/120 * 0.5 = 0.8
        "js0001-john-smith",   # 0.7625 + 6/120 * 0.5 = 0.7875
        "js0004-priya-patel",  # declared only, 0.0
    ]
    assert results[0].total_score == pytest.approx(0.8)
    assert results[1].total_score == pytest.approx(0.7875)
    assert results[2].total_score == 0.0


def test_execute_range_filter(corpus_graph, lexicon):
    results = execute(parse_query("python 2-3", lexicon), corpus_graph)
    assert [r.jobseeker_id for r in results] == [
        "js0002-ana-lopes", "js0000-jane-doe",
    ]


def test_execute_conjunction(corpus_graph, lexicon):
    results = execute(parse_query("spark 1+, kafka 1+", lexicon), corpus_graph)
    assert [r.jobseeker_id for r in results] == ["js0003-wei-zhang"]


def test_execute_empty_when_range_excludes_everyone(corpus_graph, lexicon):
    assert execute(parse_query("java 20-30", lexicon), corpus_graph) == []


def test_execute_multi_range_query_on_fixture(corpus_graph, lexicon):
    query = parse_query("C++ 8-10, Java 6-8, Python 2-3", lexicon)
    assert execute(query, corpus_graph) == []


def test_execute_skill_absent_from_graph(lexicon, gazetteer):
    g = KnowledgeGraph().add_resume(record("js0", declared={"java"}), lexicon, gazetteer)
    assert execute(parse_query("top c++ candidates", lexicon), g) == []


def test_execute_bounded_term_still_requires_edge(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(record("js0", declared={"java"}), lexicon, gazetteer)
    g.add_resume(record("js1"), lexicon, gazetteer)
    results = execute(parse_query("java 0-5", lexicon), g)
    assert [r.jobseeker_id for r in results] == ["js0"]


def test_execute_tie_break_lexicographic(lexicon, gazetteer):
    g = KnowledgeGraph()
    for jobseeker_id in ("js2-zz", "js0-mm", "js1-aa"):
        g.add_resume(
            record(jobseeker_id, experiences=[exp("acme", "robust java", months=12)]),
            lexicon, gazetteer,
        )
    results = execute(parse_query("top java candidates", lexicon), g)
    scores = {r.total_score for r in results}
    assert len(scores) == 1
    assert [r.jobseeker_id for r in results] == ["js0-mm", "js1-aa", "js2-zz"]


def test_execute_top_k_is_prefix(corpus_graph, lexicon):
    full = execute(parse_query("top java candidates", lexicon), corpus_graph)
    query = parse_query("top 2 java candidates", lexicon)
    assert execute(query, corpus_graph) == full[:2]


def test_execute_total_is_sum_of_per_skill(corpus_graph, lexicon):
    for result in execute(parse_query("java 0+, python 0+", lexicon), corpus_graph):
        assert result.total_score == pytest.approx(
            sum(s for _, s, _ in result.per_skill)
        )


def test_execute_matches_oracle(corpus_graph, corpus_records, lexicon, gazetteer):
    oracle = OracleGraph(corpus_records, lexicon, gazetteer, corpus_graph.config)
    for dsl in (
        "top java candidates",
        "python 2-3",
        "spark 1+, kafka 1+",
        "C++ 8-10, Java 6-8, Python 2-3",
        "top 2 java, python 1+",
    ):
        query = parse_query(dsl, lexicon)
        got = [(r.jobseeker_id, r.total_score) for r in execute(query, corpus_graph)]
        want = oracle.execute(query)
        assert [g[0] for g in got] == [w[0] for w in want], dsl
        for (_, gs), (_, ws) in zip(got, want):
            assert gs == pytest.approx(ws, abs=1e-9)


def test_execute_monotone_in_months(lexicon, gazetteer):
    g = KnowledgeGraph()
    g.add_resume(
        record("js0", experiences=[exp("acme", "robust java", months=12)]),
        lexicon, gazetteer,
    )
    g.add_resume(
        record("js1", experiences=[exp("acme", "robust java", months=12)]),
        lexicon, gazetteer,
    )
    query = parse_query("top java candidates", lexicon)
    before = [r.jobseeker_id for r in execute(query, g)]
    assert before == ["js0", "js1"]  # tie broken by id
    g.get_edge(EdgeKind.JOBSEEKER_SKILL, "js1", "java").months_sum += 24
    after = [r.jobseeker_id for r in execute(query, g)]
    assert after == ["js1", "js0"]  # more months never lowers the rank


def test_rank_stability_under_weight_scaling(lexicon, corpus_records):
    # Jobseekers without duration bonuses keep their relative order when all
    # gazetteer weights are scaled by a common positive factor.
    doc = json.loads(GAZETTEER_FILE.read_text(encoding="utf-8"))
    scaled = [dict(entry, weight=entry["weight"] * 0.5) for entry in doc["entries"]]
    gaz_full = parse_sentiment_records(doc["entries"])
    gaz_scaled = parse_sentiment_records(scaled)

    zero_month_records = [
        record("js0", experiences=[exp("acme", "robust scalable java")]),
        record("js1", experiences=[exp("acme", "robust java")]),
        record("js2", experiences=[exp("acme", "debugging distributed java")]),
    ]
    g_full = build_graph(zero_month_records, lexicon, gaz_full)
    g_scaled = build_graph(zero_month_records, lexicon, gaz_scaled)
    query = parse_query("top java candidates", lexicon)
    assert [r.jobseeker_id for r in execute(query, g_full)] == [
        r.jobseeker_id for r in execute(query, g_scaled)
    ]


# -- explain ---------------------------------------------------------------------

def test_explain_decomposition_sums(corpus_graph, lexicon):
    query = parse_query("java 0+, python 0+", lexicon)
    explanation = explain("js0000-jane-doe", query, corpus_graph)
    assert explanation.total_score == pytest.approx(
        sum(t["strength"] for t in explanation.terms)
    )
    for term in explanation.terms:
        assert term["strength"] == pytest.approx(term["sentiment_mean"] + term["duration_bonus"])


def test_explain_marks_failing_term(corpus_graph, lexicon):
    query = parse_query("java 6-8", lexicon)
    explanation = explain("js0000-jane-doe", query, corpus_graph)
    assert not explanation.qualifies
    assert explanation.terms[0]["satisfied"] is False
    assert explanation.terms[0]["years"] == pytest.approx(1.5)


def test_explain_zero_evidence_skill(corpus_graph, lexicon):
    query = parse_query("top react candidates", lexicon)
    explanation = explain("js0000-jane-doe", query, corpus_graph)
    term = explanation.terms[0]
    assert term["strength"] == 0.0
    assert term["projects"] == []


def test_explain_supporting_projects(corpus_graph, lexicon):
    query = parse_query("top python candidates", lexicon)
    explanation = explain("js0000-jane-doe", query, corpus_graph)
    assert explanation.terms[0]["projects"] == ["js0000-jane-doe:p1"]


def test_explain_missing_jobseeker(corpus_graph, lexicon):
    with pytest.raises(NodeNotFoundError):
        explain("nobody", parse_query("top java", lexicon), corpus_graph)


def test_execute_and_explain_read_each_term_edge_once(corpus_graph, lexicon, monkeypatch):
    lookups = []
    get_edge = KnowledgeGraph.get_edge

    def counting_get_edge(graph, kind, source, target):
        lookups.append((kind, source, target))
        return get_edge(graph, kind, source, target)

    monkeypatch.setattr(KnowledgeGraph, "get_edge", counting_get_edge)
    explain("js0000-jane-doe", parse_query("java, python", lexicon), corpus_graph)
    assert len(lookups) == len(set(lookups)) == 2
    lookups.clear()
    execute(parse_query("top java candidates", lexicon), corpus_graph)
    assert len(lookups) == len(set(lookups)) == len(corpus_graph.jobseeker_ids())


def test_totals_add_term_strengths_left_to_right():
    """Strengths 1.0, 2**-53 and 2**-53 add to 1.0 left to right, as the oracle
    adds; a compensated sum, such as ``sum()`` of floats from Python 3.12,
    gives 1.0000000000000002."""
    projects = [["t", "acme", 0, units, [skill]]
                for units, skill in [(2**64, "a"), (2**11, "b"), (2**11, "c")]]
    graph = KnowledgeGraph.from_dict({
        "schema_version": 4, "config": {"duration_bonus_factor": 0.5, "duration_cap_months": 120},
        "skills": [["a", {}], ["b", {}], ["c", {}]], "jobseekers": [["js0", "Jo", [], projects]]})
    query = Query(tuple(QueryTerm(skill) for skill in "abc"))
    [result] = execute(query, graph)
    assert [strength for _, strength, _ in result.per_skill] == [1.0, 2.0**-53, 2.0**-53]
    assert result.total_score == explain("js0", query, graph).total_score == 1.0


@st.composite
def many_skill_records(draw):
    """Resumes of several projects, each mentioning its own mix of five skills,
    with its own sentiment words and months: jobseekers that match three or
    four terms, each with its own strength."""
    def experience():
        skills = draw(st.lists(st.sampled_from(["java", "python", "c++", "sql", "react"]),
                               min_size=1, max_size=5, unique=True))
        words = draw(st.lists(st.sampled_from(SENTIMENT_WORDS), min_size=1, max_size=4))
        return exp("acme", " ".join(skills + words), months=draw(st.integers(0, 40)))

    return [record(f"js{i}", experiences=[experience() for _ in range(draw(st.integers(2, 4)))])
            for i in range(draw(st.integers(2, 8)))]


@st.composite
def tied_records(draw):
    """Up to 12 jobseekers, each holding one of two drawn resumes: many equal
    strengths, so that ids decide the order and the top-k cut."""
    def experience():
        words = draw(st.lists(st.sampled_from(["java", "python", *SENTIMENT_WORDS]), max_size=4))
        return exp("acme", " ".join(["java", *words]), months=draw(st.sampled_from([0, 12, 40])))

    resumes = [[experience()], [experience(), experience()]]
    return [record(f"js{i:02d}", experiences=draw(st.sampled_from(resumes)))
            for i in range(draw(st.integers(1, 12)))]


@st.composite
def graphs_and_queries(draw, records=None):
    """A graph from drawn records (of the strategy ``records``, or of any of
    three kinds), and a query of 1-4 of its skills (or one it lacks), each
    unbounded or bounded at a year count some jobseeker holds or a whole
    year, with any ``top_k`` up to past every match; and the oracle of the
    same records. Half the queries name only skills that one jobseeker
    holds, bounded so that it qualifies, some on its exact years."""
    if records is None:
        records = st.one_of(record_sets(), shared_edge_records(), many_skill_records())
    records = draw(records)
    graph = build_graph(records, LEXICON, GAZETTEER)
    jobseekers = graph.jobseeker_ids()
    held = {}
    if jobseekers and draw(st.booleans()):
        held = graph.jobseeker_skills(draw(st.sampled_from(jobseekers)))
    skills = sorted(held or {s for j in jobseekers for s in graph.jobseeker_skills(j)} | {"sql"})
    years = sorted({edge.months_sum / 12.0 for j in jobseekers
                    for edge in graph.jobseeker_skills(j).values()} | {0.0, 1.0, 2.0})
    bound = st.sampled_from(years)
    terms = []
    for skill in draw(st.permutations(skills))[:draw(st.integers(1, 4))]:
        low, high = sorted([draw(bound), draw(bound)])
        exact = high
        if skill in held:
            exact = held[skill].months_sum / 12.0
            low, high = min(low, exact), max(high, exact)
        terms.append(draw(st.sampled_from([QueryTerm(skill), QueryTerm(skill, low),
                                           QueryTerm(skill, low, high),
                                           QueryTerm(skill, exact, exact)])))
    oracle = OracleGraph(records, LEXICON, GAZETTEER, graph.config)
    return graph, oracle, Query(tuple(terms), draw(st.integers(1, len(jobseekers) + 2)))


def order_sensitive_case():
    """One jobseeker whose strengths 0.7041666666666666, 0.525 and
    0.8624999999999999 add to one float left to right and another right to
    left: few drawn cases tell the two orders apart."""
    records = [record("js0", experiences=[exp("acme", "java lead performance", months=13),
                                          exp("acme", "python hire robust", months=18),
                                          exp("acme", "c++ robust scalable", months=39)])]
    graph = build_graph(records, LEXICON, GAZETTEER)
    query = Query(tuple(QueryTerm(skill) for skill in ("java", "python", "c++")))
    return graph, OracleGraph(records, LEXICON, GAZETTEER, graph.config), query


@settings(max_examples=100, deadline=None)
@given(case=graphs_and_queries())
@example(case=order_sensitive_case())
def test_explain_qualifies_exactly_the_jobseekers_execute_ranks(case):
    """``explain`` qualifies a jobseeker exactly when an unbounded ``execute``
    ranks it, as the oracle does, and both totals are, bit for bit,
    ``explain``'s per-term strengths added left to right; ``top_k`` keeps a
    prefix of that ranking."""
    graph, oracle, query = case
    jobseekers = graph.jobseeker_ids()
    unbounded = Query(query.terms, len(jobseekers) + 1)
    ranked = execute(unbounded, graph)
    for result in ranked:
        terms = explain(result.jobseeker_id, query, graph).terms
        assert result.per_skill == [(t["skill"], t["strength"], t["years"]) for t in terms]
    totals = {result.jobseeker_id: result.total_score for result in ranked}
    assert set(totals) == {jobseeker_id for jobseeker_id, _ in oracle.execute(unbounded)}
    assert [r.jobseeker_id for r in ranked] == sorted(totals, key=lambda j: (-totals[j], j))
    for jobseeker_id in jobseekers:
        explanation = explain(jobseeker_id, query, graph)
        total = 0.0
        for term in explanation.terms:
            total += term["strength"]
        assert explanation.total_score.hex() == total.hex()
        assert explanation.qualifies == (jobseeker_id in totals)
        if explanation.qualifies:
            assert totals[jobseeker_id].hex() == total.hex()
    assert execute(query, graph) == ranked[:query.top_k]


@settings(max_examples=100, deadline=None)
@given(case=graphs_and_queries())
@example(case=order_sensitive_case())
def test_execute_equals_the_oracle(case):
    """``execute`` ranks the oracle's jobseekers in the oracle's order, each
    with the oracle's total, bit for bit, and its per-term (skill, strength,
    years)."""
    graph, oracle, query = case
    got = [(r.jobseeker_id, r.total_score.hex(), r.per_skill) for r in execute(query, graph)]
    assert got == [(j, total.hex(), per_skill) for j, total, per_skill in oracle.rank(query)]


def case_of(records, *terms, top_k=DEFAULT_TOP_K):
    """(graph, oracle, query) of ``records`` and a query of ``terms``."""
    graph = build_graph(records, LEXICON, GAZETTEER)
    oracle = OracleGraph(records, LEXICON, GAZETTEER, graph.config)
    return graph, oracle, Query(terms, top_k)


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(graphs_and_queries(), graphs_and_queries(tied_records())))
# Declared-only java (js0, js2) matches a term as the mentioned java (js1) does.
@example(case=case_of([record("js0", declared=["java"]),
                       record("js1", experiences=[exp("acme", "java robust")]),
                       record("js2", declared=["java"], experiences=[exp("acme", "python")])],
                      QueryTerm("java")))
# Nobody holds sql: its list is empty, and so is the ranking.
@example(case=case_of([record("js0", experiences=[exp("acme", "java")])],
                      QueryTerm("java"), QueryTerm("sql")))
# Five equal strengths: ids decide which three are kept.
@example(case=case_of([record(f"js{i}", experiences=[exp("acme", "java robust", months=12)])
                       for i in range(5)], QueryTerm("java"), top_k=3))
def test_rank_over_the_rarest_posting_list_equals_execute(case):
    """``_postings`` lists, for each queried skill, the sorted ids whose
    jobseeker-skill edges hold it, as the oracle reads them: declared-only
    skills included, a skill that nobody holds empty. ``_rank`` over the
    shortest list among a query's terms, as over any term's, gives
    ``execute``'s results bit for bit, ids breaking ties, whether ``top_k``
    is below or above the number of matches."""
    graph, oracle, query = case
    ids = graph.jobseeker_ids()
    skills = {term.skill for term in query.terms}
    postings = _postings(graph, ids, skills)
    assert postings == {skill: [j for j in ids if skill in oracle.skills_of(j)]
                        for skill in skills}
    want = [(r.jobseeker_id, r.total_score.hex(), r.per_skill) for r in execute(query, graph)]
    rarest = min((postings[term.skill] for term in query.terms), key=len)
    for candidates in (rarest, *postings.values()):
        got = _rank(query, graph, candidates)
        assert [(r.jobseeker_id, r.total_score.hex(), r.per_skill) for r in got] == want


def dsl_of(query):
    """DSL text that ``parse_query`` reads back as ``query``."""
    def term(t):
        if t.min_years is None:
            return t.skill
        return f"{t.skill} {t.min_years!r}" + ("+" if t.max_years is None else f"-{t.max_years!r}")
    return f"top {query.top_k} " + ", ".join(map(term, query.terms))


def cli_run(*argv):
    """``cli.main``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def cli_stdout(*argv):
    code, out, err = cli_run(*argv)
    assert (code, err) == (0, "")
    return out


@settings(max_examples=25, deadline=None)
@given(case=graphs_and_queries())
def test_json_commands_print_the_library_results(case):
    """``query --json``, to stdout or to ``--out``, and ``explain --json`` of
    each jobseeker print exactly a version-1 document around the library
    results' ``to_dict()``. A query naming a declared skill that the lexicon
    lacks has no DSL text: both commands refuse it, print nothing and write no
    ``--out`` file."""
    graph, _, query = case
    dsl = dsl_of(query)
    unknown = [t.skill for t in query.terms if t.skill not in LEXICON.categories]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "graph.json"), Path(tmp, "results.json")
        graph.save(path)
        if unknown:
            with pytest.raises(UnknownSkillError, match=f"^unknown skill '{unknown[0]}'$"):
                parse_query(dsl, LEXICON)
            refused = (1, "", f"error: unknown skill '{unknown[0]}'\n")
            args = ("query", path, dsl, "--lexicon", LEXICON_FILE, "--json")
            assert cli_run(*args) == refused
            assert cli_run(*args, "--out", out) == refused
            assert not out.exists()
            for jobseeker_id in graph.jobseeker_ids():
                assert cli_run("explain", path, jobseeker_id, dsl, "--lexicon", LEXICON_FILE,
                               "--json") == refused
            return
        assert parse_query(dsl, LEXICON) == query
        want = {"schema_version": 1, "query": dsl, "top_k": query.top_k,
                "results": [r.to_dict() for r in execute(query, graph)]}
        args = ("query", path, dsl, "--lexicon", LEXICON_FILE, "--json")
        assert json.loads(cli_stdout(*args)) == want
        assert cli_stdout(*args, "--out", out) == ""
        assert json.loads(out.read_text(encoding="utf-8")) == want
        for jobseeker_id in graph.jobseeker_ids():
            text = cli_stdout("explain", path, jobseeker_id, dsl, "--lexicon", LEXICON_FILE,
                              "--json")
            explanation = explain(jobseeker_id, query, graph).to_dict()
            assert json.loads(text) == {"schema_version": 1, "explanation": explanation}

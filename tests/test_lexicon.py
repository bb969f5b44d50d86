from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import talentgraph
from talentgraph.errors import (
    AliasConflictError,
    GazetteerFormatError,
    LexiconFormatError,
    TalentGraphError,
    WeightRangeError,
)
from talentgraph.lexicon import (
    SkillLexicon,
    STOP_WORDS,
    _fold,
    dump_sentiment_gazetteer,
    dump_skill_lexicon,
    load_sentiment_gazetteer,
    load_skill_lexicon,
    normalize_skill,
    parse_sentiment_records,
    parse_skill_records,
)
from talentgraph.parser import extract_skills
from talentgraph.tokenization import DEFAULT_KEEP_CHARS, token_pattern, tokenize

from conftest import GAZETTEER_FILE, LEXICON_FILE, SRC
from oracle import naive_load_gazetteer, naive_load_lexicon, naive_lookup, naive_phrases


def test_alias_normalization_cpp():
    lexicon = parse_skill_records(
        [{"canonical": "c++", "category": "programming languages", "aliases": ["c++", "cpp"]}]
    )
    assert lexicon.alias_index["cpp"] == "c++"
    assert normalize_skill("CPP", lexicon) == "c++"
    assert normalize_skill("c++", lexicon) == "c++"


def test_empty_lexicon():
    lexicon = parse_skill_records([])
    assert len(lexicon) == 0
    assert normalize_skill("anything", lexicon) is None


def test_alias_conflict_names_both_canonicals():
    records = [
        {"canonical": "javascript", "category": "scripting languages", "aliases": ["js"]},
        {"canonical": "java", "category": "programming languages", "aliases": ["js"]},
    ]
    with pytest.raises(AliasConflictError) as err:
        parse_skill_records(records)
    assert "javascript" in str(err.value) and "java" in str(err.value)



def test_alias_conflict_names_the_same_alias_under_every_hash_seed():
    """A record with several taken aliases, or aliases whose phrases are taken,
    names the first in sorted order, whatever order its alias set iterates in."""
    script = (
        "from talentgraph.lexicon import SkillLexicon, parse_skill_records\n"
        "try:\n"
        "    parse_skill_records([{'canonical': c, 'category': 'x',\n"
        "                          'aliases': ['jdk', 'jvm', 'j2ee']} for c in ('java', 'kotlin')])\n"
        "except Exception as exc:\n"
        "    print(exc)\n"
        "aliases = {'java': {'JDK', 'JVM', 'J2EE'}, 'kotlin': {'jdk', 'jvm', 'j2ee'}}\n"
        "try:\n"
        "    SkillLexicon({a: c for c, owned in aliases.items() for a in owned},\n"
        "                 dict.fromkeys(aliases, 'x')).phrase_index\n"
        "except Exception as exc:\n"
        "    print(exc)\n"
    )
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(seed)}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout == "alias 'j2ee' maps to both 'java' and 'kotlin'\n" * 2, seed

def test_canonical_is_its_own_alias_even_when_omitted():
    lexicon = parse_skill_records(
        [{"canonical": "Java", "category": "programming languages", "aliases": []}]
    )
    assert lexicon.alias_index["java"] == "java"


def test_normalize_skill_no_match_and_folding():
    lexicon = parse_skill_records(
        [{"canonical": "spark", "category": "middleware technologies",
          "aliases": ["spark", "Apache  Spark"]}]
    )
    assert normalize_skill("basket weaving", lexicon) is None
    assert normalize_skill("  APACHE   spark ", lexicon) == "spark"


def test_normalize_skill_idempotent(lexicon):
    for alias in lexicon.alias_index:
        once = normalize_skill(alias, lexicon)
        assert once is not None
        assert normalize_skill(once, lexicon) == once


def test_lexicon_format_errors(tmp_path):
    bad = tmp_path / "lex.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(LexiconFormatError):
        load_skill_lexicon(bad)
    bad.write_text(json.dumps({"skills": [{"canonical": "", "category": "x"}]}))
    with pytest.raises(LexiconFormatError) as err:
        load_skill_lexicon(bad)
    assert "skills[0]" in str(err.value)
    bad.write_text(json.dumps({"nope": []}))
    with pytest.raises(LexiconFormatError):
        load_skill_lexicon(bad)


@pytest.mark.parametrize("records, message", [
    (["java"], "skills[0]: record must be an object"),
    ([{"canonical": "java", "category": " "}], "skills[0]: 'category' must be a non-empty string"),
    ([{"canonical": "java", "category": "x", "aliases": "java"}],
     "skills[0]: 'aliases' must be a list of strings"),
    ([{"canonical": "java", "category": "x", "aliases": ["jdk", 1]}],
     "skills[0]: 'aliases' must be a list of strings"),
], ids=["not-object", "empty-category", "aliases-not-list", "alias-not-string"])
def test_lexicon_record_faults_are_located(records, message):
    with pytest.raises(LexiconFormatError) as err:
        parse_skill_records(records)
    assert str(err.value) == message


# Every keyword weighs the same for any skill: a scope is refused, never dropped.
SKILL_FIELD = "entries[0]: unknown field 'skill'"


@pytest.mark.parametrize("record, message", [
    ("fast", "entries[0]: record must be an object"),
    ({"keyword": "", "class": "x", "weight": 0.5},
     "entries[0]: 'keyword' must be a non-empty string"),
    ({"keyword": "fast", "class": "", "weight": 0.5},
     "entries[0]: 'class' must be a non-empty string"),
    ({"keyword": "fast", "class": "x", "weight": 0.5, "skill": " "}, SKILL_FIELD),
    ({"keyword": "fast", "class": "x", "weight": 0.5, "skill": "java"}, SKILL_FIELD),
    ({"keyword": "fast", "class": "x", "weight": 0.5, "skill": None}, SKILL_FIELD),
], ids=["not-object", "empty-keyword", "empty-class", "empty-skill", "scoped", "null-skill"])
def test_gazetteer_record_faults_are_located(record, message):
    with pytest.raises(GazetteerFormatError) as err:
        parse_sentiment_records([record])
    assert str(err.value) == message


def test_misspelled_aliases_field_is_rejected_at_its_record():
    """A misspelled field is refused, never dropped: loading this record
    without its aliases would leave "cpp" an unknown skill."""
    java = {"canonical": "java", "category": "lang", "aliases": ["jdk"]}
    typo = {"canonical": "c++", "category": "lang", "alias": ["cpp"]}
    with pytest.raises(LexiconFormatError, match=r"^skills\[1\]: unknown field 'alias'$"):
        parse_skill_records([java, typo])


def test_lexicon_round_trip(lexicon, tmp_path):
    out = tmp_path / "lex.json"
    out.write_text(dump_skill_lexicon(lexicon), encoding="utf-8")
    reloaded = load_skill_lexicon(out)
    assert reloaded.alias_index == lexicon.alias_index
    assert reloaded.categories == lexicon.categories


def test_gazetteer_single_entry():
    gaz = parse_sentiment_records(
        [{"keyword": "scalability", "class": "strong-technical", "weight": 0.9}]
    )
    assert len(gaz) == 1
    assert gaz.weights == {"scalability": 0.9}


def test_gazetteer_weight_range():
    with pytest.raises(WeightRangeError) as err:
        parse_sentiment_records(
            [{"keyword": "great", "class": "x", "weight": 1.5}]
        )
    assert "entries[0]" in str(err.value)
    with pytest.raises(WeightRangeError):
        parse_sentiment_records([{"keyword": "bad", "class": "x", "weight": -0.1}])


def test_gazetteer_empty():
    gaz = parse_sentiment_records([])
    assert len(gaz) == 0
    assert gaz.weights == {}


def test_gazetteer_keyword_must_be_single_token():
    with pytest.raises(GazetteerFormatError):
        parse_sentiment_records(
            [{"keyword": "team player", "class": "strong-management", "weight": 0.5}]
        )
    # hyphenated keywords are one token
    gaz = parse_sentiment_records(
        [{"keyword": "client-server", "class": "strong-technical", "weight": 0.6}]
    )
    assert gaz.weights == {"client-server": 0.6}


def test_gazetteer_keyword_must_not_be_a_stop_word():
    """No gazetteer may weight a stop word, so scoring never counts one."""
    robust = {"keyword": "robust", "class": "x", "weight": 0.5}
    message = r"^entries\[1\]: keyword 'with' is a stop word, which scoring drops$"
    with pytest.raises(GazetteerFormatError, match=message):
        parse_sentiment_records([robust, {"keyword": " With", "class": "x", "weight": 0.9}])
    for word in sorted(STOP_WORDS):
        with pytest.raises(GazetteerFormatError, match="stop word"):
            parse_sentiment_records([{**robust, "keyword": word}])


ROBUST = {"keyword": "robust", "class": "x", "weight": 0.5}


def test_parse_sentiment_records_rejects_keywords_that_never_match():
    message = r"^entries\[0\]: keyword 'with' is a stop word, which scoring drops$"
    with pytest.raises(GazetteerFormatError, match=message):
        parse_sentiment_records([{**ROBUST, "keyword": "With", "weight": 0.9}, ROBUST])
    for keyword in ["team player", "-robust", "robust.", "c/c++"]:
        message = rf"^entries\[1\]: keyword {re.escape(repr(keyword))} must be a single token$"
        with pytest.raises(GazetteerFormatError, match=message):
            parse_sentiment_records([ROBUST, {**ROBUST, "keyword": keyword}])


@pytest.mark.parametrize("weight", [2.0, -0.1, math.nan])
def test_parse_sentiment_records_rejects_weight_outside_unit_range(weight):
    with pytest.raises(WeightRangeError, match=rf"^entries\[1\]: weight {weight} outside \[0, 1\]$"):
        parse_sentiment_records([ROBUST, {**ROBUST, "keyword": "fast", "weight": weight}])


@pytest.mark.parametrize("weight", [True, "0.5", None], ids=["bool", "str", "none"])
def test_parse_sentiment_records_rejects_weights_that_are_not_numbers(weight):
    """Every weight that is not a JSON number is rejected: a bool is not stored as 1.0."""
    message = r"^entries\[1\]: 'weight' must be a number$"
    with pytest.raises(GazetteerFormatError, match=message):
        parse_sentiment_records([{"keyword": "robust", "class": "x", "weight": 0.5},
                                 {"keyword": "fast", "class": "x", "weight": weight}])


def test_parse_sentiment_records_reports_an_earlier_range_fault_before_a_later_shape_fault():
    """``parse_sentiment_records`` raises each fault where it finds it, so an
    earlier record's out-of-range weight is reported before a later record's
    non-number weight; and a record's fields are checked before its weight."""
    out_of_range = {"keyword": "robust", "class": "x", "weight": 2.0}
    not_a_number = {"keyword": "fast", "class": "x", "weight": "0.5", "skill": 7}
    with pytest.raises(WeightRangeError, match=r"^entries\[0\]: weight 2.0 outside \[0, 1\]$"):
        parse_sentiment_records([out_of_range, not_a_number])
    with pytest.raises(GazetteerFormatError, match=r"^entries\[0\]: unknown field 'skill'$"):
        parse_sentiment_records([not_a_number, out_of_range])


def test_lookup_scoped_entry_does_not_leak(tmp_path):
    """A skill-scoped entry is refused, located at its record, whether it
    repeats a scope-free keyword or not: no weight applies to one skill only."""
    scalability = {"keyword": "scalability", "class": "strong-technical", "weight": 0.9}
    scoped = {**scalability, "weight": 0.95, "skill": "c++"}
    for records in ([scalability, scoped], [scoped, scalability]):
        index = records.index(scoped)
        message = rf"^entries\[{index}\]: unknown field 'skill'$"
        with pytest.raises(GazetteerFormatError, match=message):
            parse_sentiment_records(records)
    path = tmp_path / "gaz.json"
    path.write_text(json.dumps({"schema_version": 1, "entries": [scalability, scoped]}),
                    encoding="utf-8")
    with pytest.raises(GazetteerFormatError, match=r"^entries\[1\]: unknown field 'skill'$"):
        load_sentiment_gazetteer(path)


def test_lookup_management_keyword_without_skill():
    gaz = parse_sentiment_records(
        [{"keyword": "lead", "class": "strong-management", "weight": 0.7}]
    )
    assert gaz.weights["lead"] == 0.7
    assert gaz.weights.get("led") is None


def test_gazetteer_round_trip(gazetteer, tmp_path):
    out = tmp_path / "gaz.json"
    out.write_text(dump_sentiment_gazetteer(gazetteer), encoding="utf-8")
    reloaded = load_sentiment_gazetteer(out)
    assert reloaded.classes == gazetteer.classes
    assert reloaded.weights == gazetteer.weights


def test_alias_index_is_union_of_entry_aliases(lexicon):
    records = json.loads(LEXICON_FILE.read_text(encoding="utf-8"))["skills"]
    union = {_fold(alias) for rec in records for alias in [rec["canonical"], *rec["aliases"]]}
    assert set(lexicon.alias_index) == union
    assert set(lexicon.categories) == {_fold(rec["canonical"]) for rec in records}


def test_alias_punctuation_kept_in_tokens():
    lexicon = parse_skill_records(
        [
            {"canonical": "c++", "category": "x", "aliases": ["c++"]},
            {"canonical": ".net", "category": "x", "aliases": [".net"]},
        ]
    )
    assert extract_skills("Shipped C++ and .NET services.", lexicon) == {"c++", ".net"}
    assert extract_skills("c, net and dotnet", lexicon) == set()


def test_lexicon_rejects_duplicate_canonical():
    java = {"canonical": "java", "category": "languages"}
    with pytest.raises(LexiconFormatError, match=r"^skills\[1\]: duplicate canonical 'java'$"):
        parse_skill_records([java, {**java, "canonical": " Java ", "category": "other"}])


def test_gazetteer_rejects_duplicate_keyword_in_one_scope():
    """One scope: a keyword has one weight, whatever its class or case."""
    fast = {"keyword": "fast", "class": "x", "weight": 0.9}
    with pytest.raises(GazetteerFormatError, match=r"^entries\[1\]: duplicate keyword 'fast'$"):
        parse_sentiment_records([fast, {**fast, "keyword": "FAST", "weight": 0.1}])
    with pytest.raises(GazetteerFormatError, match=r"^entries\[2\]: duplicate keyword 'fast'$"):
        parse_sentiment_records([fast, {**fast, "keyword": "slow"}, {**fast, "class": "y"}])



# -- one index per dictionary ---------------------------------------------------

KEYWORDS = ["fast", "robust", "clean"]
GAZ_RECORD = st.fixed_dictionaries(
    {"keyword": st.sampled_from(KEYWORDS), "class": st.just("x"), "weight": st.floats(0, 1)})


@settings(max_examples=300, deadline=None)
@given(records=st.lists(GAZ_RECORD, max_size=8))
def test_gazetteer_rejects_first_repeated_key_or_matches_naive_scan(records):
    keys = [rec["keyword"] for rec in records]
    first_repeat = next((i for i, key in enumerate(keys) if key in keys[:i]), None)
    if first_repeat is not None:
        with pytest.raises(GazetteerFormatError, match=rf"^entries\[{first_repeat}\]: duplicate"):
            parse_sentiment_records(records)
        return
    gaz = parse_sentiment_records(records)
    assert gaz.weights == {rec["keyword"]: rec["weight"] for rec in records}
    for keyword in KEYWORDS + ["absent"]:
        assert gaz.weights.get(keyword) == naive_lookup(records, keyword)


CANONICALS = ["java", "python", "go", "rust"]
SKILL_RECORD = st.builds(
    lambda canonical, others: {"canonical": canonical, "category": "x", "aliases": others},
    st.sampled_from(CANONICALS),
    st.lists(st.sampled_from(CANONICALS + ["golang", "py"]), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(records=st.lists(SKILL_RECORD, max_size=6))
def test_lexicon_rejects_first_repeated_canonical_or_alias_conflict(records):
    owners: dict[str, str] = {}
    for i, rec in enumerate(records):
        canonical, aliases = rec["canonical"], {rec["canonical"], *rec["aliases"]}
        if any(r["canonical"] == canonical for r in records[:i]):
            with pytest.raises(LexiconFormatError, match=rf"^skills\[{i}\]: duplicate canonical"):
                parse_skill_records(records)
            return
        taken = sorted(alias for alias in aliases if owners.get(alias, canonical) != canonical)
        if taken:  # the error names the sorted-first taken alias, whatever the record order
            with pytest.raises(AliasConflictError) as err:
                parse_skill_records(records)
            alias, owner = taken[0], owners[taken[0]]
            assert (err.value.alias, err.value.canonicals) == (alias, (owner, canonical))
            assert str(err.value) == f"alias {alias!r} maps to both {owner!r} and {canonical!r}"
            return
        owners.update(dict.fromkeys(aliases, canonical))
    lexicon = parse_skill_records(records)
    assert lexicon.alias_index == owners
    assert len(lexicon) == len(lexicon.categories) == len(records)


# Unfolded aliases, as a direct caller may pass them: mixed case, double
# spaces, symbols, and case variants that collide once lowercased.
RAW_ALIASES = ["Java", "JAVA", "JDK  8", "jdk 8", ".NET", ".Net  Core", "C++", "c#",
               "Node.JS", "  Spark  SQL ", "spark-", "Go"]


@settings(max_examples=300, deadline=None)
@given(owners=st.lists(st.sampled_from([None, *CANONICALS]), min_size=len(RAW_ALIASES),
                       max_size=len(RAW_ALIASES)))
def test_phrase_index_of_a_directly_built_lexicon_matches_naive_phrases(owners):
    """Every other phrase property folds aliases in ``parse_skill_records``
    first; here the phrase index alone must lowercase and split them."""
    index = {alias: owner for alias, owner in zip(RAW_ALIASES, owners) if owner is not None}
    lexicon = SkillLexicon(index, dict.fromkeys(index.values(), "x"))
    keep, phrases = naive_phrases(lexicon)
    if any(len(canonicals) > 1 for canonicals in phrases.values()):
        with pytest.raises(AliasConflictError):
            lexicon.phrase_index
        return
    index_keep, index, longest = lexicon.phrase_index
    assert set(index_keep) == keep
    assert {phrase: {c} for phrase, c in index.items()} == phrases
    assert longest == {first: max(len(p) for p in phrases if p[0] == first)
                       for first in {p[0] for p in phrases}}


# Whitespace to str.isspace() and to re's \s, plus a zero-width space, which is neither.
UNICODE_SPACES = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u3000\u200b"


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(st.text(), st.text(st.sampled_from(UNICODE_SPACES + "aZİΣ"))))
def test_fold_equals_regex_fold(text):
    assert _fold(text) == re.sub(r"\s+", " ", text.strip().lower())


# -- one pass over the records against the naive loaders ------------------------

LEXICON_FAULTS = [
    "java", None, {"canonical": "", "category": "x"}, {"canonical": 1, "category": "x"},
    {"canonical": "java"}, {"canonical": "java", "category": " "},
    {"canonical": "java", "category": "x", "aliases": "java"},
    {"canonical": "java", "category": "x", "aliases": ["jdk", 1]},
    {"canonical": "java", "category": "x", "alias": ["jdk"]},
]
# Canonicals and aliases that fold alike, repeat and claim each other's names.
LEXICON_RECORD = st.fixed_dictionaries(
    {"canonical": st.sampled_from(["java", " Java", "python", "GO", "go", "rust", "kotlin",
                                   "c++", ".net"]),
     "category": st.sampled_from(["x", " Lang  Tools "])},
    optional={"aliases": st.lists(st.sampled_from(
        ["Java", "JDK  8", "jdk 8", "golang", "py", " ", "C++", ".NET", "Go", "Kotlin", "kt"]),
        max_size=3)},
)
GAZETTEER_FAULTS = [
    "fast", None, {"keyword": "", "class": "x", "weight": 0.5},
    {"keyword": "fast", "class": " ", "weight": 0.5}, {"keyword": "fast", "class": "x"},
    {"keyword": "fast", "class": "x", "weight": True},
    {"keyword": "fast", "class": "x", "weight": "0.5"},
    {"keyword": "fast", "class": "x", "weight": 0.5, "skill": "java"},
    {"keyword": "fast", "klass": "x", "weight": 0.5},
]
# Keywords that repeat once folded, are not one token or are stop words, and
# weights outside [0, 1] (a 401-digit integer among them).
GAZETTEER_RECORD = st.fixed_dictionaries(
    {"keyword": st.sampled_from(["fast", " FAST", "robust", "clean", "client-server", "c++",
                                 "c#", "lead", "team player", "With", "-fast", "clean."]),
     "class": st.sampled_from(["x", " Strong  Tech "]),
     "weight": st.floats(0, 1) | st.sampled_from([0, 1, 0.5, 0.9, 1.5, -0.1, math.nan, 10**400])},
)


def records_with_faults(valid, faults):
    """Valid-looking records, in about a third of the cases with one or two
    shape faults spliced in."""
    spliced = st.lists(st.tuples(st.integers(0, 6), st.sampled_from(faults)),
                       min_size=1, max_size=2)
    return st.tuples(st.lists(valid, max_size=6),
                     st.just([]) | st.just([]) | spliced).map(lambda drawn: splice(*drawn))


def splice(records, faults):
    for at, fault in faults:
        records.insert(min(at, len(records)), fault)
    return records


def loaded(parse, dump, fields, records):
    """What a loader makes of the records: its dicts and dump, or its fault."""
    try:
        result = parse(records)
    except TalentGraphError as exc:
        return type(exc).__name__, str(exc)
    return (*(getattr(result, field) for field in fields), dump(result))


@settings(max_examples=500, deadline=None)
@given(records=records_with_faults(LEXICON_RECORD, LEXICON_FAULTS))
def test_skill_records_load_as_the_naive_loader_does(records):
    assert loaded(parse_skill_records, dump_skill_lexicon, ("alias_index", "categories"),
                  records) == naive_load_lexicon(records)


@settings(max_examples=500, deadline=None)
@given(records=records_with_faults(GAZETTEER_RECORD, GAZETTEER_FAULTS))
def test_sentiment_records_load_as_the_naive_loader_does(records):
    assert loaded(parse_sentiment_records, dump_sentiment_gazetteer, ("weights", "classes"),
                  records) == naive_load_gazetteer(records)


def test_gazetteer_load_makes_no_tokenize_call(monkeypatch):
    calls = []

    def counting_tokenize(*args, **kwargs):
        calls.append(args)
        return tokenize(*args, **kwargs)

    for module in (talentgraph.lexicon, talentgraph.tokenization):
        monkeypatch.setattr(module, "tokenize", counting_tokenize)
    assert len(load_sentiment_gazetteer(GAZETTEER_FILE)) > 0
    assert calls == []


def test_single_token_check_agrees_with_tokenize():
    """The loader's single-token check, a full match of the tokenizer's pattern,
    says what ``tokenize(keyword) == [keyword]`` says, on every short string."""
    fullmatch = token_pattern(DEFAULT_KEEP_CHARS).fullmatch
    for n in range(5):
        for chars in product("aZ9-+#.é İß_", repeat=n):
            text = "".join(chars)
            assert bool(fullmatch(text)) == (tokenize(text) == [text]), text

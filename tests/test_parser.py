from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import talentgraph.lexicon
import talentgraph.parser
import talentgraph.tokenization
from talentgraph.errors import AliasConflictError, ResumeParseError
from talentgraph.graph import MAX_DURATION_MONTHS
from talentgraph.lexicon import load_skill_lexicon, parse_skill_records
from talentgraph.parser import (
    DEFAULT_SECTION_HEADERS,
    ExperienceEntry,
    ResumeRecord,
    extract_skills,
    normalize_org,
    parse_duration,
    parse_resume,
    split_sections,
    tokenize,
)

from conftest import CORPUS_DIR, LEXICON_FILE
from oracle import (
    naive_extract_skills, naive_months, naive_phrases, naive_split_sections, naive_tokens,
)

JANE = (CORPUS_DIR / "r01_jane_doe.txt").read_text(encoding="utf-8")


# -- sections ---------------------------------------------------------------

def test_split_sections_basic():
    text = "SKILLS\nC++, Java\nEXPERIENCE\nAcme things"
    assert split_sections(text) == {
        "identity": "", "skills": "C++, Java", "experience": "Acme things", "other": "",
    }


def test_split_sections_empty_input():
    assert split_sections("") == {"identity": "", "skills": "", "experience": "", "other": ""}


def test_split_sections_no_headers_is_identity():
    text = "Jane Doe\nLoves compilers"
    sections = split_sections(text)
    assert sections["identity"] == text
    assert sections["other"] == ""


def test_split_sections_header_variants():
    text = "Skills:\njava\nWork Experience\nstuff\nEducation\nMIT"
    sections = split_sections(text)
    assert sections["skills"] == "java"
    assert sections["experience"] == "stuff"
    assert sections["other"] == "MIT"


def test_split_sections_preamble_is_identity():
    sections = split_sections("Jane Doe\nBerlin\n\nSKILLS\njava")
    assert sections["identity"] == "Jane Doe\nBerlin"
    assert sections["skills"] == "java"


def test_split_sections_header_takes_one_trailing_colon():
    assert split_sections("Jane\nSkills :\njava")["skills"] == "java"
    sections = split_sections("Jane\nSkills::\njava")
    assert sections["identity"] == "Jane\nSkills::\njava"
    assert sections["skills"] == ""


@st.composite
def header_line(draw):
    """A header key in mixed case, maybe with a trailing colon, maybe padded."""
    key = draw(st.sampled_from(sorted(DEFAULT_SECTION_HEADERS)))
    upper = draw(st.lists(st.booleans(), min_size=len(key), max_size=len(key)))
    key = "".join(ch.upper() if up else ch for ch, up in zip(key, upper))
    pad = st.sampled_from(["", " ", "\t", "  "])
    colon = draw(st.sampled_from(["", ":", " :"]))
    return draw(pad) + key + colon + draw(pad)


SECTION_LINE = (
    header_line()
    | st.sampled_from(["", " ", "\t"])
    | st.lists(st.sampled_from(["java", "Skills", "experience", "x:", "Acme", "2019"]),
               min_size=1, max_size=3).map(" ".join)
    | st.text(alphabet="ab :\t", max_size=6)
)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.tuples(SECTION_LINE, st.sampled_from(["\n", "\r\n", "\r", ""])),
                      max_size=12))
def test_split_sections_matches_oracle(lines):
    text = "".join(line + end for line, end in lines)
    assert split_sections(text) == naive_split_sections(text)


# -- tokenize ---------------------------------------------------------------

def test_tokenize_keeps_special_skill_tokens():
    assert tokenize("Highly scalable C++ services") == [
        "highly", "scalable", "c++", "services",
    ]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_all_stop_words():
    assert tokenize("the a an") == ["the", "a", "an"]


def test_tokenize_punctuation_and_hyphens():
    assert tokenize("robust, client-server design.") == [
        "robust", "client-server", "design",
    ]
    assert tokenize("C#, F# and c++.") == ["c#", "f#", "and", "c++"]


# Kept and unkept punctuation, regex class metacharacters, letters whose
# lowercase differs in length or is not ASCII ("İ" -> "i" + a combining dot),
# and stop words glued to hyphens and dots.
TOKEN_TEXT = st.lists(
    st.text(alphabet=".-+#]^\\éİßAb09 \t\n", max_size=8)
    | st.sampled_from(["a", "the", "-of.", "to-", "An"])
).map("".join)
KEEP = st.sets(st.sampled_from(".-+#]^\\é")).map(lambda chars: "".join(sorted(chars)))


@settings(max_examples=500, deadline=None)
@given(text=TOKEN_TEXT, keep=KEEP)
def test_tokenize_matches_oracle(text, keep):
    assert tokenize(text, keep) == naive_tokens(text, keep, frozenset())


@settings(max_examples=200, deadline=None)
@given(text=TOKEN_TEXT, keep=KEEP.map(lambda keep: keep.replace(".", "")))
def test_token_pattern_matches_are_the_tokens_without_a_kept_dot(text, keep):
    """Without a kept ".", no match is empty or needs a group read: the
    matches themselves are the oracle's tokens."""
    pattern = talentgraph.tokenization.token_pattern(keep)
    assert pattern.groups == 0
    assert pattern.findall(text.lower()) == naive_tokens(text, keep, frozenset())


def test_tokenize_is_linear_in_a_run():
    """A pattern that rescans a run from each of its dots and hyphens would
    take hours on these runs of 200k to 300k characters."""
    start = time.process_time()
    dashes = "a" + "-." * 100_000 + "b"
    assert tokenize(dashes, keep_chars="+#-.") == [dashes]
    assert tokenize("x-" * 150_000, keep_chars="+#-.") == ["x-" * 149_999 + "x"]
    assert tokenize("-." * 150_000, keep_chars="+#-.") == []
    assert tokenize("a" + "-" * 300_000) == ["a"]
    assert tokenize("-" * 300_000) == []
    for keep in ["+#-.", "+#."]:
        assert tokenize("." * 300_000, keep_chars=keep) == []
        assert tokenize("." * 150_000 + "a", keep_chars=keep) == ["." * 150_000 + "a"]
    assert time.process_time() - start < 1


# -- extract_skills ---------------------------------------------------------

def test_extract_skills_normalizes_aliases(lexicon):
    assert extract_skills("Proficient in CPP and Java", lexicon) == {"c++", "java"}


def test_extract_skills_empty(lexicon):
    assert extract_skills("", lexicon) == set()


def test_extract_skills_set_semantics(lexicon):
    assert extract_skills("java java java", lexicon) == {"java"}


def test_extract_skills_multiword_alias(lexicon):
    assert extract_skills("Built Apache Spark pipelines", lexicon) == {"spark"}


def test_extract_skills_longest_match_first():
    lexicon = parse_skill_records(
        [
            {"canonical": "machine learning", "category": "x",
             "aliases": ["machine learning", "ml"]},
            {"canonical": "machine", "category": "x", "aliases": ["machine"]},
        ]
    )
    assert extract_skills("deep machine learning models", lexicon) == {"machine learning"}
    assert extract_skills("a milling machine", lexicon) == {"machine"}


def test_extract_skills_subset_of_canonicals(lexicon, corpus_records):
    canonicals = set(lexicon.categories)
    for record in corpus_records:
        assert record.declared_skills <= canonicals
        for exp in record.experiences:
            assert extract_skills(exp.details, lexicon) <= canonicals


def test_extract_skills_keeps_non_ascii_alias_letters():
    lexicon = parse_skill_records(
        [{"canonical": "caf", "category": "x"}, {"canonical": "café", "category": "x"}]
    )
    assert extract_skills("I like caf", lexicon) == {"caf"}
    assert extract_skills("Café au lait", lexicon) == {"café"}


def test_extract_skills_rejects_phrase_shared_by_two_skills():
    lexicon = parse_skill_records(
        [
            {"canonical": "c++", "category": "x"},
            {"canonical": "cpp-lang", "category": "x", "aliases": ["c++."]},
        ]
    )
    with pytest.raises(AliasConflictError) as info:
        extract_skills("c++ dev", lexicon)
    assert info.value.alias == "c++"
    assert info.value.canonicals == ("c++", "cpp-lang")


def test_aliases_of_one_skill_may_share_a_phrase():
    lexicon = parse_skill_records(
        [{"canonical": "c++", "category": "x", "aliases": ["c++", "c++."]}]
    )
    assert extract_skills("C++. and more", lexicon) == {"c++"}


def test_phrase_index_built_once_per_lexicon(monkeypatch):
    lexicon = load_skill_lexicon(LEXICON_FILE)
    extract_skills("warm up", lexicon)
    calls = []

    def counting_tokenize(*args, **kwargs):
        calls.append(args)
        return tokenize(*args, **kwargs)

    for module in (talentgraph.parser, talentgraph.lexicon, talentgraph.tokenization):
        monkeypatch.setattr(module, "tokenize", counting_tokenize)
    assert extract_skills("C++ and Apache Spark", lexicon) == {"c++", "spark"}
    assert len(calls) == 1


def _fold(text):
    return " ".join(text.lower().split())


# Alias words with kept punctuation in and outside "+#-", non-ASCII letters
# and near-collisions ("c++" / "c++.", "caf" / "café").
ALIAS_WORDS = ["java", "java.", "c++", "c++.", ".net", "net", "node.js", "a/b", "r&d",
               "café", "caf", "naïve", "x-ray", "x", "-x", "go", "go-", "of", "the", "ß",
               "ÉCOLE", "c#", "5g"]
ALIAS = (
    st.lists(
        st.sampled_from(ALIAS_WORDS) | st.text(alphabet="abé.&/+#- ", min_size=1, max_size=4),
        min_size=1, max_size=3,
    )
    .map(" ".join)
    .filter(_fold)
)
TEXT_EXTRAS = ["the", "of", "and", "a", "built", "team", "data2", ",", ".", "/", "&", "!", "é"]


@st.composite
def lexicon_and_text(draw):
    aliases = draw(st.lists(ALIAS, min_size=1, max_size=8, unique_by=_fold))
    # A trailing dot is sentence punctuation, so "x." tokenizes like "x".
    dotted = draw(st.lists(st.sampled_from(aliases), max_size=2, unique=True))
    aliases += [a + "." for a in dotted if _fold(a + ".") not in map(_fold, aliases)]
    groups: dict[int, list[str]] = {}
    for alias in aliases:
        groups.setdefault(draw(st.integers(0, 3)), []).append(alias)
    records = [{"canonical": g[0], "category": "x", "aliases": g} for g in groups.values()]
    piece = st.sampled_from(aliases) | st.sampled_from(TEXT_EXTRAS)
    pieces = draw(st.lists(piece, min_size=1, max_size=12))
    text = "".join(p + draw(st.sampled_from([" ", "", ", ", "\n"])) for p in pieces)
    return records, draw(st.sampled_from([text, text.upper()]))


@settings(max_examples=300, deadline=None)
@given(case=lexicon_and_text())
def test_extract_skills_matches_oracle(case):
    records, text = case
    lexicon = parse_skill_records(records)
    _, phrases = naive_phrases(lexicon)
    if any(len(owners) > 1 for owners in phrases.values()):
        with pytest.raises(AliasConflictError):
            extract_skills(text, lexicon)
    else:
        assert extract_skills(text, lexicon) == naive_extract_skills(text, lexicon)


APACHE = ["apache", "apache spark", "apache spark sql"]
OVERLAP = ["big data", "data lake"]  # the last token of one starts the other


@st.composite
def shared_first_token_case(draw):
    """A ``lexicon_and_text`` case plus aliases that share their first token at
    three lengths, spread over one to three skills, with text that mentions
    them and may end inside the longest."""
    records, text = draw(lexicon_and_text())
    groups: dict[int, list[str]] = {}
    for alias in APACHE:
        groups.setdefault(draw(st.integers(0, 2)), []).append(alias)
    records += [{"canonical": g[0], "category": "x", "aliases": g} for g in groups.values()]
    records += [{"canonical": alias, "category": "x", "aliases": [alias]} for alias in OVERLAP]
    words = draw(st.lists(st.sampled_from(APACHE + ["spark", "sql", "the", "big data lake"]),
                          max_size=6))
    cut = draw(st.sampled_from(["", "apache", "Apache Spark", "apache spark."]))
    return records, " ".join([text, *words, cut])


@settings(max_examples=300, deadline=None)
@given(case=shared_first_token_case())
def test_extract_skills_with_shared_first_tokens_matches_oracle(case):
    records, text = case
    lexicon = parse_skill_records(records)
    _, phrases = naive_phrases(lexicon)
    if any(len(owners) > 1 for owners in phrases.values()):
        with pytest.raises(AliasConflictError):
            extract_skills(text, lexicon)
    else:
        assert extract_skills(text, lexicon) == naive_extract_skills(text, lexicon)

# -- parse_duration ---------------------------------------------------------

@pytest.mark.parametrize(
    "raw,months",
    [
        ("Jan 2020 - Jun 2021", 18),
        ("2 years", 24),
        ("2019 - 2021", 24),
        ("18 months", 18),
        ("1 yr 6 months", 18),
        ("3 yrs", 36),
        ("September 2019 to March 2021", 19),
        ("4 mos", 4),
        # Case-insensitive matching lets "ſ" (long s) stand for the "s" of "Sep".
        ("ſep 2020 - Oct 2021", 14),
        ("Aug 2020 to ſept. 2020", 2),
    ],
)
def test_parse_duration_supported_forms(raw, months):
    assert parse_duration(raw) == months


def test_parse_duration_unrecognized_reports():
    diagnostics = []
    assert parse_duration("whenever", diagnostics) == 0
    assert any("whenever" in d for d in diagnostics)


def test_parse_duration_reversed_range_is_unknown():
    diagnostics = []
    assert parse_duration("Jun 2021 - Jan 2020", diagnostics) == 0
    assert parse_duration("2021 - 2019") == 0
    assert diagnostics


def test_parse_duration_years_always_twelve_per_year():
    for n in range(0, 40):
        assert parse_duration(f"{n} years") == 12 * n


def test_parse_duration_long_count_is_unrecognized():
    diagnostics = []
    assert parse_duration("99999 years", diagnostics) == 0
    assert parse_duration("1 yr 00006 months", diagnostics) == 0
    assert parse_duration("9" * 5000 + " months", diagnostics) == 0
    assert diagnostics[:2] == [
        "duration '99999 years': unrecognized, treated as unknown",
        "duration '1 yr 00006 months': unrecognized, treated as unknown",
    ]
    assert len(diagnostics) == 3
    # The widest counts of every form stay within the bound a graph load checks.
    assert parse_duration("9999 years 9999 months") == MAX_DURATION_MONTHS
    for raw in ("Jan 0000 - Dec 9999", "0000 - 9999", "9999 months"):
        assert parse_duration(raw) < MAX_DURATION_MONTHS


@settings(max_examples=300, deadline=None)
@given(raw=st.from_regex(talentgraph.parser._DATE_SEARCH_RE, fullmatch=True))
def test_parse_duration_of_any_date_pattern_is_bounded(raw):
    assert 0 <= parse_duration(raw) <= MAX_DURATION_MONTHS


def test_parse_duration_never_negative():
    for raw in ("", "later", "Dec 2020 - Jan 2020", "2030 - 2001", "-5 months"):
        assert parse_duration(raw) >= 0


DURATION_WORDS = ["jan", "January", "Sep", "sept", "ſep", "aprıl", "may", "dec.", "june",
                  "2019", "2021", "0000", "12", "7", "-", "–", "—", "to", "yr", "yrs", "years",
                  "mo", "mos", "months", "and", "of"]


@st.composite
def duration_text(draw):
    """Words and digit runs of the duration forms, joined by nothing, spaces
    or newlines."""
    piece = st.sampled_from(DURATION_WORDS) | st.text("0123456789", min_size=1, max_size=6)
    pieces = draw(st.lists(piece, min_size=1, max_size=8))
    return "".join(p + draw(st.sampled_from(["", " ", "  ", "\n", ". "])) for p in pieces)


@settings(max_examples=500, deadline=None)
@given(raw=st.from_regex(talentgraph.parser._DATE_SEARCH_RE, fullmatch=True) | duration_text())
def test_parse_duration_matches_oracle(raw):
    assert parse_duration(raw) == naive_months(raw)


# -- normalize_org ----------------------------------------------------------

@pytest.mark.parametrize(
    "raw,expected",
    [
        ("Acme Ltd.", "acme"),
        ("acme", "acme"),
        ("", "unknown-org"),
        ("Umbrella Research LLC", "umbrella research"),
        ("  Globex   Corp. ", "globex"),
        ("Initech, Inc.", "initech"),
        ("Ltd.", "unknown-org"),
    ],
)
def test_normalize_org(raw, expected):
    assert normalize_org(raw) == expected


# -- parse_resume -----------------------------------------------------------

def test_parse_resume_golden_two_projects(lexicon):
    record, _ = parse_resume(JANE, lexicon, 0)
    expected = ResumeRecord(
        jobseeker_id="js0000-jane-doe",
        name="Jane Doe",
        declared_skills={"c++", "java", "python"},
        experiences=[
            ExperienceEntry(
                organization="acme",
                project_title="Payment Platform",
                duration_months=18,
                details=(
                    "Designed a robust and scalable C++ payment service.\n"
                    "Led debugging of distributed workflows in Java."
                ),
                duration_raw="Jan 2020 - Jun 2021",
            ),
            ExperienceEntry(
                organization="initech",
                project_title="Search Revamp",
                duration_months=24,
                details="Built a Python indexing pipeline with robust monitoring.",
                duration_raw="2 years",
            ),
        ],
    )
    assert record == expected


def test_parse_resume_skills_only(lexicon):
    text = "Priya Patel\n\nSKILLS\nJava, SQL\n"
    record, _ = parse_resume(text, lexicon, 3)
    assert record.declared_skills == {"java", "sql"}
    assert record.experiences == []
    assert record.jobseeker_id == "js0003-priya-patel"


def test_parse_resume_deterministic(lexicon):
    first, _ = parse_resume(JANE, lexicon, 7)
    second, _ = parse_resume(JANE, lexicon, 7)
    assert first == second


def test_parse_resume_block_of_date_and_skill_lines_has_no_organization(lexicon):
    record, diagnostics = parse_resume(
        "Sam Hill\n\nEXPERIENCE\nJava\nJan 2020 - Jun 2021\nPython\n", lexicon, 0)
    assert [(e.organization, e.project_title, e.details) for e in record.experiences] == [
        ("unknown-org", "untitled", "")]
    assert "experience block 'Java': no organization line" in diagnostics


def test_parse_resume_block_of_date_and_organization_is_untitled(lexicon):
    record, diagnostics = parse_resume(
        "Sam Hill\n\nEXPERIENCE\nAcme Ltd.\n2 years\n", lexicon, 0)
    assert [(e.organization, e.project_title, e.details) for e in record.experiences] == [
        ("acme", "untitled", "")]
    assert not any("no organization line" in message for message in diagnostics)


def test_parse_resume_empty_is_error(lexicon):
    with pytest.raises(ResumeParseError):
        parse_resume("   \n \n", lexicon, 0)


def test_parse_resume_details_are_substrings(lexicon, corpus_records):
    for path, record in zip(sorted(CORPUS_DIR.glob("*.txt")), corpus_records):
        normalized = path.read_text(encoding="utf-8").replace("\r\n", "\n")
        for exp in record.experiences:
            assert exp.details in normalized


def test_parse_resume_crlf_input(lexicon):
    record, _ = parse_resume(JANE.replace("\n", "\r\n"), lexicon, 0)
    golden, _ = parse_resume(JANE, lexicon, 0)
    assert record == golden


def test_parse_resume_dateless_block_skipped(lexicon):
    text = (
        "Sam Hill\n\nEXPERIENCE\n"
        "Acme Ltd.\nA Project\nJan 2020 - Mar 2020\nDid robust work.\n\n"
        "A stray paragraph with no dates at all.\n"
    )
    record, diagnostics = parse_resume(text, lexicon, 0)
    assert len(record.experiences) == 1
    assert any("no date pattern" in d for d in diagnostics)


@pytest.mark.parametrize("tail", [
    "\n \nEDUCATION\nBSc", "\n\t\nEDUCATION\nBSc", "\n \n \nEDUCATION\nBSc",
    "\n ", "\n\t", "\n \n ", "\n 　",
], ids=["before-header", "tab-before-header", "two-before-header", "at-end", "tab-at-end",
        "two-at-end", "unicode-space-at-end"])
def test_parse_resume_whitespace_only_line_belongs_to_no_block(lexicon, tail):
    """One or more whitespace-only lines after a project's details, before the
    next header or at the end of the text, are in no paragraph: the details end
    at their last non-blank line."""
    text = "Jane Doe\nEXPERIENCE\nAcme\nJan 2020 - Jun 2021\nLedger\nDid java work." + tail
    record, _ = parse_resume(text, lexicon, 0)
    assert [e.details for e in record.experiences] == ["Did java work."]


def test_parse_resume_date_broken_across_lines_is_no_date(lexicon):
    """A date must sit on one line: a block whose only date breaks across a
    line is skipped like any dateless block."""
    text = (
        "Sam Hill\n\nEXPERIENCE\n"
        "Acme Inc\nJan 2020 -\nJun 2021\nPayments\nBuilt robust java services.\n\n"
        "Globex\nLedger\n2 years\nBuilt java tools.\n"
    )
    record, diagnostics = parse_resume(text, lexicon, 0)
    assert "experience block 'Acme Inc': no date pattern, skipped" in diagnostics
    assert [(e.organization, e.duration_raw, e.duration_months) for e in record.experiences] == [
        ("globex", "2 years", 24)
    ]
    assert not any("duration" in d for d in diagnostics)


@pytest.mark.parametrize("first, second", [
    ("Mar 2019 -", "Apr 2019"),
    ("(Mar. 2019 to", "Apr. 2019)"),
    ("2019 –", "2020"),
    ("Mar 2019", "— Apr 2019"),
])
def test_parse_resume_half_date_line_is_a_date_line(lexicon, first, second):
    """Each end of a date broken across lines is a date line, never the title."""
    text = (f"Sam Hill\n\nEXPERIENCE\n"
            f"Globex\n{first}\n{second}\nLedger\n2 years\nBuilt java tools.\n")
    record, _ = parse_resume(text, lexicon, 0)
    assert [(e.organization, e.project_title, e.duration_months, e.details)
            for e in record.experiences] == [("globex", "Ledger", 24, "Built java tools.")]


def test_parse_resume_long_digit_run_never_raises(lexicon):
    text = (
        "Sam Hill\n\nEXPERIENCE\n"
        f"Acme Ltd.\nA Project\n{'9' * 5000} years\nDid robust java work.\n"
    )
    record, diagnostics = parse_resume(text, lexicon, 0)
    assert [e.duration_months for e in record.experiences] == [0]
    assert any("unrecognized, treated as unknown" in d for d in diagnostics)


MESSY_PIECE = (
    st.sampled_from(sorted(DEFAULT_SECTION_HEADERS)).flatmap(
        lambda key: st.sampled_from([key, key.upper() + ":"]))
    | st.sampled_from(["Jan 2020 - Jun 2021", "Mar. 2019 -", "- Apr 2019", "2019 to", "2021",
                       "18 months", "1 yr 6 mos", "Sep 2019 – ſep 2018", "99999 years",
                       "(2019 - 2021)", "0 months"])
    | st.sampled_from(["•", "-", "*", "–", "\ufeff", "\r\n", "\r", "\n\n", "\t", "Ltd.",
                       "java", "c++", "apache spark"])
    | st.text(max_size=8)
)


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(st.tuples(MESSY_PIECE, st.sampled_from(["\n", "\r\n", "\r", " ", ""])),
                     max_size=16))
def test_parse_resume_never_raises_on_messy_text(lexicon, parts):
    """Messy text with any non-whitespace character parses to a record."""
    text = "".join(piece + sep for piece, sep in parts)
    if not text.strip():
        with pytest.raises(ResumeParseError):
            parse_resume(text, lexicon, 0)
        return
    record, diagnostics = parse_resume(text, lexicon, 0)
    assert isinstance(record, ResumeRecord) and all(isinstance(d, str) for d in diagnostics)
    assert all(0 <= e.duration_months <= MAX_DURATION_MONTHS for e in record.experiences)


def test_parse_resume_name_low_confidence_flagged(lexicon):
    _, diagnostics = parse_resume("Omar Hassan\nJust prose.", lexicon, 0)
    assert any("low confidence" in d for d in diagnostics)


def test_parse_resume_no_header_resume(lexicon):
    record, _ = parse_resume("Omar Hassan\nJust prose, no headers.", lexicon, 5)
    assert record.name == "Omar Hassan"
    assert record.declared_skills == set()
    assert record.experiences == []


def test_parse_resume_ids_unique_across_seeds(lexicon):
    ids = {parse_resume(JANE, lexicon, seed)[0].jobseeker_id for seed in range(5)}
    assert len(ids) == 5


def test_parse_resume_skill_line_never_becomes_org(lexicon):
    text = (
        "Kim Park\n\nPROJECTS\n"
        "C++\nNorthwind Traders\nRouting Engine\n2017 - 2019\nBuilt robust tooling.\n"
    )
    record, _ = parse_resume(text, lexicon, 0)
    assert record.experiences[0].organization == "northwind traders"
    assert record.experiences[0].project_title == "Routing Engine"


def test_parse_resume_fuzz_never_crashes(lexicon):
    rng = random.Random(1234)
    words = ["SKILLS", "EXPERIENCE", "java", "c++", "Acme", "2019", "-", "2021",
             "robust", "", "\n", "years", "3", ",", "Title"]
    for _ in range(200):
        text = " ".join(rng.choices(words, k=rng.randint(1, 40)))
        if not text.strip():
            continue
        record, _ = parse_resume(text, lexicon, 0)
        for exp in record.experiences:
            assert exp.duration_months >= 0
            assert exp.organization

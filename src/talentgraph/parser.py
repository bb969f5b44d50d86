"""Resume text parsing: sections, skills, durations, experience blocks.

The input is UTF-8 plain text, one resume per file. Parsing is deterministic
and never raises on messy content; anything unparseable lands in the list of
diagnostics instead. Only an entirely empty input is an error.

Parsing walks the resume's lines once. A line whose stripped, lowercased
text (minus a trailing colon) equals one of the ``DEFAULT_SECTION_HEADERS``
keys opens that section, again each time it recurs. Lines before the first
recognized header (all of them when there is none) are the identity block;
its first non-blank line is the name. Declared skills are matched in each
run of skills lines between two headers on its own: a skill phrase never
spans a header line, though it may span a blank line.

An experience block is a run of non-blank experience lines: a blank or
whitespace-only line, or any header line, ends it. A block is claimed
as one project only when one of its lines holds a date or duration pattern
(a date that breaks across lines is not one); the first such pattern is the
project's duration. Inside such a block the leading lines are read as, in
order of appearance: date lines (a whole date, or one end of a range broken
across lines, such as "Mar 2019 -"), the organization (first line that is
neither a date nor a skill alias), and the verbatim project title (the next
such line). Everything after the leading lines is the details text, kept as
one contiguous slice of the resume. The organization is lowercased, loses
its leading characters that are neither letters nor digits (``_`` among
them) and its trailing punctuation and legal-form suffixes.
Dateless blocks are skipped with a diagnostic, so keep a project's
description in the same block as its header lines.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby

from .errors import ResumeParseError
from .lexicon import SkillLexicon, normalize_skill
from .tokenization import tokenize

__all__ = [
    "DEFAULT_SECTION_HEADERS",
    "ExperienceEntry",
    "ResumeRecord",
    "extract_skills",
    "normalize_org",
    "parse_duration",
    "parse_resume",
    "split_sections",
]

# Header keyword -> section it opens. Matched as whole lines, case-insensitive,
# with an optional trailing colon.
DEFAULT_SECTION_HEADERS: dict[str, str] = {
    "skills": "skills",
    "technical skills": "skills",
    "skill set": "skills",
    "experience": "experience",
    "work experience": "experience",
    "professional experience": "experience",
    "projects": "experience",
    "employment history": "experience",
    "education": "other",
    "summary": "other",
    "objective": "other",
}

ORG_SUFFIXES = frozenset(
    "inc incorporated ltd limited llc llp pvt plc corp corporation co gmbh".split()
)

_MONTH_NAMES = (
    "jan(?:uary)?|feb(?:ruary)?|mar(?:ch)?|apr(?:il)?|may|jun(?:e)?|jul(?:y)?"
    "|aug(?:ust)?|sep(?:t(?:ember)?)?|oct(?:ober)?|nov(?:ember)?|dec(?:ember)?"
)
_SEP = r"\s*(?:-|–|—|to)\s*"
# The duration forms, one named alternative each, in the order a fullmatch
# tries them: "Jan 2020 - Jun 2021", "2019 - 2021", "1 yr 6 months", "18 months".
_DATE_SEARCH_RE = re.compile(
    rf"\b(?P<m1>{_MONTH_NAMES})\.?\s+(?P<y1>\d{{4}}){_SEP}"
    rf"(?P<m2>{_MONTH_NAMES})\.?\s+(?P<y2>\d{{4}})\b"
    rf"|\b(?P<start>\d{{4}}){_SEP}(?P<end>\d{{4}})\b"
    r"|\b(?P<years>\d+)\s*(?:years?|yrs?)(?:\s*(?:and\s+)?(?P<plus>\d+)\s*(?:months?|mos?))?\b"
    r"|\b(?P<months>\d+)\s*(?:months?|mos?)\b",
    re.IGNORECASE,
)
# One end of a range broken across lines: "Mar 2019 -", "- Apr 2019", "2019 to".
_HALF_DATE_RE = re.compile(rf"(?:{_SEP})?(?:(?:{_MONTH_NAMES})\.?\s+)?\d{{4}}(?:{_SEP})?", re.I)
# A count wider than a year's four digits is not a duration.
_LONG_COUNT_RE = re.compile(r"\d{5}")

_MONTH_NUM = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}

_SLUG_RE = re.compile(r"[^a-z0-9]+")
_ORG_LEAD_RE = re.compile(r"^[\W_]+")  # neither a letter nor a digit
_SPACES_RE = re.compile(r"\s+")


@dataclass
class ExperienceEntry:
    organization: str
    project_title: str
    duration_months: int
    details: str
    duration_raw: str = ""


@dataclass
class ResumeRecord:
    jobseeker_id: str
    name: str
    declared_skills: set[str]
    experiences: list[ExperienceEntry]


def _section_runs(text: str) -> dict[str, list[list[str]]]:
    """Section -> its runs of lines, one run per header line that opens it
    (identity: the one run before any header), header lines excluded."""
    runs: dict[str, list[list[str]]] = {
        "identity": [[]], "skills": [], "experience": [], "other": [],
    }
    lines = runs["identity"][0]
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        key = line.strip().lower()
        if key.endswith(":"):  # one optional trailing colon
            key = key[:-1].strip()
        section = DEFAULT_SECTION_HEADERS.get(key)
        if section is None:
            lines.append(line)
        else:
            lines = []
            runs[section].append(lines)
    return runs


def split_sections(text: str) -> dict[str, str]:
    """Section (identity, skills, experience, other) -> its text, header lines excluded.

    A header that opens a section again reads as a blank line in its text.
    """
    return {
        name: "\n".join(line for run in runs for line in ("", *run)).strip("\n")
        for name, runs in _section_runs(text).items()
    }


def extract_skills(section_text: str, lexicon: SkillLexicon) -> set[str]:
    """Canonical skills found in the text, longest alias phrase first."""
    return match_skills(tokenize(section_text, keep_chars=lexicon.phrase_index[0]), lexicon)


def match_skills(tokens: list[str], lexicon: SkillLexicon) -> set[str]:
    """``extract_skills`` of a text whose ``lexicon.phrase_index[0]`` tokens are ``tokens``."""
    _, phrases, longest = lexicon.phrase_index
    found: set[str] = set()
    end = 0  # tokens before it belong to the last matched phrase
    for i in [i for i, token in enumerate(tokens) if token in longest]:
        if i < end:
            continue
        for n in range(min(longest[tokens[i]], len(tokens) - i), 0, -1):
            canonical = phrases.get(tuple(tokens[i : i + n]))
            if canonical is not None:
                found.add(canonical)
                end = i + n
                break
    return found


def _months(text: str) -> int | None:
    """Months of a duration, negative for a reversed range; None if unrecognized."""
    if _LONG_COUNT_RE.search(text):
        return None
    m = _DATE_SEARCH_RE.fullmatch(text)
    if m is None:
        return None
    if m["m1"]:  # casefold: under IGNORECASE, "ſ" matches the "s" of "sep"
        start = int(m["y1"]) * 12 + _MONTH_NUM[m["m1"][:3].casefold()]
        return int(m["y2"]) * 12 + _MONTH_NUM[m["m2"][:3].casefold()] - start + 1
    if m["start"]:
        return 12 * (int(m["end"]) - int(m["start"]))
    if m["years"]:
        return 12 * int(m["years"]) + int(m["plus"] or 0)
    return int(m["months"])


def parse_duration(raw: str, diagnostics: list[str] | None = None) -> int:
    """Parse a duration string to whole months; 0 plus a diagnostic otherwise.

    Supported forms: "Jan 2020 - Jun 2021" (inclusive of both endpoint
    months), "2019 - 2021" (12 months per year of delta), "2 years",
    "18 months", "1 yr 6 months". A count of more than four digits is
    unrecognized.
    """
    months = _months(raw.strip().lower())
    if months is None or months < 0:
        if diagnostics is not None:
            reason = "unrecognized" if months is None else "end precedes start"
            diagnostics.append(f"duration {raw!r}: {reason}, treated as unknown")
        return 0
    return months


def normalize_org(raw: str) -> str:
    """Case-fold, trim leading non-alphanumerics and trailing punctuation, drop legal forms."""
    text = _ORG_LEAD_RE.sub("", raw.strip().lower())
    while True:
        text = text.rstrip(" \t.,;:&")
        words = text.split()
        if not words or words[-1] not in ORG_SUFFIXES:
            return _SPACES_RE.sub(" ", text) or "unknown-org"
        text = " ".join(words[:-1])


def _slug(name: str) -> str:
    slug = _SLUG_RE.sub("-", name.lower()).strip("-")[:24].rstrip("-")
    return slug or "unnamed"


def _parse_experience_block(
    lines: list[str], duration_raw: str, lexicon: SkillLexicon, diagnostics: list[str]
) -> ExperienceEntry:
    org_raw: str | None = None
    title: str | None = None
    details_start = len(lines)
    for idx, line in enumerate(lines):
        stripped = line.strip()
        date = stripped.strip("()[],;:. \t")
        if _DATE_SEARCH_RE.fullmatch(date) or _HALF_DATE_RE.fullmatch(date):
            continue  # a date line, or one end of a date broken across lines
        if normalize_skill(stripped.strip(".,;:"), lexicon) is not None:
            continue  # a bare skill line never names the org or the title
        if org_raw is None:
            org_raw = stripped
            continue
        if title is None:
            title = stripped
            continue
        details_start = idx
        break

    if org_raw is None:
        diagnostics.append(f"experience block {lines[0].strip()!r}: no organization line")
    return ExperienceEntry(
        organization=normalize_org(org_raw or ""),
        project_title=title or "untitled",
        duration_months=parse_duration(duration_raw, diagnostics),
        details="\n".join(lines[details_start:]),
        duration_raw=duration_raw,
    )


def parse_resume(text: str, lexicon: SkillLexicon, id_seed: int) -> tuple[ResumeRecord, list[str]]:
    """Parse one resume into a structured record plus diagnostics.

    ``id_seed`` is the caller's corpus counter; the jobseeker id is derived
    deterministically from it and the name slug, so re-parsing the same text
    with the same seed yields an identical record.
    """
    if not text.strip():
        raise ResumeParseError("resume text is empty")
    diagnostics: list[str] = []
    runs = _section_runs(text)

    # The name is the first non-blank line of the identity block.
    name = next(filter(None, map(str.strip, runs["identity"][0])), "")
    if not name:
        name = "unknown"
        diagnostics.append("no name line found")
    else:
        diagnostics.append(f"name {name!r} taken from first line (low confidence heuristic)")

    # Each run on its own: a skill phrase never spans a header line. A resume
    # with no skills header still makes the one extraction that checks the lexicon.
    runs_of_skills = runs["skills"] or [[]]
    declared = set().union(*(extract_skills("\n".join(run), lexicon) for run in runs_of_skills))

    experiences: list[ExperienceEntry] = []
    # A block is a run of non-blank lines: a blank line or any header ends it.
    blocks = (list(lines) for run in runs["experience"]
              for filled, lines in groupby(run, key=lambda line: bool(line.strip())) if filled)
    for lines in blocks:
        # The first date on one line both claims the block and dates it.
        date = next(filter(None, map(_DATE_SEARCH_RE.search, lines)), None)
        if date is None:
            diagnostics.append(f"experience block {lines[0].strip()!r}: no date pattern, skipped")
            continue
        experiences.append(_parse_experience_block(lines, date[0], lexicon, diagnostics))

    record = ResumeRecord(
        jobseeker_id=f"js{id_seed:04d}-{_slug(name)}",
        name=name,
        declared_skills=declared,
        experiences=experiences,
    )
    return record, diagnostics

"""Brute-force reference implementation used to cross-check the real one.

Everything here is deliberately naive and independent of the library's
tokenizer, scorer, graph bookkeeping and load checks: plain character
scanning, plain dict accumulators, full rescans instead of indexes. If the
production code and this file disagree, one of them is wrong.
"""
from __future__ import annotations

import json
import math
import re
from collections import defaultdict

# Redeclared on purpose: a silent change to the package defaults should
# break these tests loudly.
STOP_WORDS = frozenset(
    "a an and are as at by for in is of on or the to was were with".split()
)
ALNUM = set("abcdefghijklmnopqrstuvwxyz0123456789")


def naive_tokens(text, keep="+#-", stop_words=STOP_WORDS):
    tokens, current = [], ""
    for ch in text.lower():
        if ch in ALNUM or ch in keep:
            current += ch
        elif current:
            tokens.append(current)
            current = ""
    if current:
        tokens.append(current)
    out = []
    for token in tokens:
        while token.startswith("-"):
            token = token[1:]
        while token and token[-1] in ".-":
            token = token[:-1]
        if token and token not in stop_words:
            out.append(token)
    return out


def naive_phrases(lexicon):
    """Keep characters, and alias token tuple -> set of canonicals."""
    keep = set("+#-")
    for alias in lexicon.alias_index:
        keep |= {ch for ch in alias if ch not in ALNUM and ch != " "}
    phrases = defaultdict(set)
    for alias, canonical in lexicon.alias_index.items():
        alias_tokens = tuple(naive_tokens(alias, keep, stop_words=frozenset()))
        if alias_tokens:
            phrases[alias_tokens].add(canonical)
    return keep, phrases


def naive_extract_skills(text, lexicon):
    """Longest phrase first; only defined when no phrase has two canonicals."""
    keep, phrases = naive_phrases(lexicon)
    assert all(len(owners) == 1 for owners in phrases.values()), "phrase collision"
    tokens = naive_tokens(text, keep, stop_words=frozenset())
    found = set()
    i = 0
    while i < len(tokens):
        for n in range(len(tokens) - i, 0, -1):
            owners = phrases.get(tuple(tokens[i : i + n]))
            if owners:
                found |= owners
                i += n
                break
        else:
            i += 1
    return found


# Header line -> section it opens, redeclared from README "How it works".
SECTION_HEADERS = {
    "skills": "skills", "technical skills": "skills", "skill set": "skills",
    "experience": "experience", "work experience": "experience",
    "professional experience": "experience", "projects": "experience",
    "employment history": "experience",
    "education": "other", "summary": "other", "objective": "other",
}


def naive_split_sections(text):
    """Section -> text. A header is a whole line, any case, with an optional
    trailing colon; it opens its section and is itself dropped. Text before
    the first header is the identity block. A section opened again after
    holding lines gets one blank line before the new ones. CR and CRLF read
    as LF, and each section's outer newlines are stripped."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    joined = {"identity": None, "skills": None, "experience": None, "other": None}
    section = "identity"
    for line in text.split("\n"):
        name = line.strip().lower()
        if name.endswith(":"):
            name = name[:-1].strip()
        if name in SECTION_HEADERS:
            section = SECTION_HEADERS[name]
            if joined[section] is not None:
                joined[section] += "\n"
        elif joined[section] is None:
            joined[section] = line
        else:
            joined[section] += "\n" + line
    return {name: (value or "").strip("\n") for name, value in joined.items()}


MONTH_NAMES = ("january february march april may june july august september october "
               "november december").split()
TO = r"\s*(?:-|–|—|to)\s*"
# The duration forms, each written out on its own and tried in this order.
DURATION_FORMS = [
    re.compile(r"([^\W\d_]+)\.?\s+(\d{4})" + TO + r"([^\W\d_]+)\.?\s+(\d{4})"),
    re.compile(r"(\d{4})" + TO + r"(\d{4})"),
    re.compile(r"(\d+)\s*(?:years|year|yrs|yr)"
               r"(?:\s*(?:and\s+)?(\d+)\s*(?:months|month|mos|mo))?"),
    re.compile(r"(\d+)\s*(?:months|month|mos|mo)"),
]


def naive_month(word):
    """1-12 for a month's name or its first three letters ("sept" too), else None."""
    for number, name in enumerate(MONTH_NAMES, 1):
        if word in (name, name[:3]) or (number == 9 and word == "sept"):
            return number
    return None


def naive_months(raw):
    """What parse_duration returns: months of the first form that matches
    the whole trimmed text, 0 for none, a reversed range or a count of five
    or more digits."""
    # Case-insensitive matching lets "ſ" stand for "s" and "ı" for "i".
    text = raw.strip().lower().replace("ſ", "s").replace("ı", "i")
    if re.search(r"\d{5}", text):
        return 0
    months = None
    for form, pattern in enumerate(DURATION_FORMS):
        m = pattern.fullmatch(text)
        if m is None:
            continue
        if form == 0:
            first, last = naive_month(m.group(1)), naive_month(m.group(3))
            if first is None or last is None:
                continue
            months = (int(m.group(4)) - int(m.group(2))) * 12 + last - first + 1
        elif form == 1:
            months = 12 * (int(m.group(2)) - int(m.group(1)))
        elif form == 2:
            months = 12 * int(m.group(1)) + int(m.group(2) or 0)
        else:
            months = int(m.group(1))
        break
    return months if months is not None and months >= 0 else 0


def naive_lookup(records, keyword):
    """Scan every gazetteer record for the keyword's weight; None when none has it."""
    for record in records:
        if record["keyword"] == keyword:
            return record["weight"]
    return None


def naive_score(details, gazetteer):
    """Occurrence-weighted mean, one keyword at a time."""
    weights = gazetteer.weights
    hits = [weights[t] for t in naive_tokens(details) if t in weights]
    total = 0.0
    for weight in hits:  # left to right: sum() compensates from Python 3.12
        total += weight
    return total / len(hits) if hits else 0.0


class OracleGraph:
    """Accumulators recomputed from scratch by walking the records."""

    def __init__(self, records, lexicon, gazetteer, config):
        self.config = config
        self.nodes = set()
        self.edges = defaultdict(lambda: [0.0, 0, 0])  # [weight_sum, count, months]
        # (jobseeker, skill) -> its scores, each rounded once to 2^-64 units
        # (README "How it works" step 3), summed as exact integers.
        self.units = defaultdict(int)
        for record in records:
            self.nodes.add(("jobseeker", record.jobseeker_id))
            for skill in record.declared_skills:
                self.nodes.add(("skill", skill))
                self.edges[("jobseeker_skill", record.jobseeker_id, skill)]
            for ordinal, exp in enumerate(record.experiences):
                pkey = f"{record.jobseeker_id}:p{ordinal}"
                self.nodes.add(("organization", exp.organization))
                self.nodes.add(("project", pkey))
                acc = self.edges[("jobseeker_project", record.jobseeker_id, pkey)]
                acc[1] += 1
                acc[2] += exp.duration_months
                self.edges[("project_org", pkey, exp.organization)][1] += 1
                mentioned = naive_extract_skills(exp.details, lexicon)
                if not mentioned:
                    continue
                score = naive_score(exp.details, gazetteer)
                for skill in mentioned:
                    self.nodes.add(("skill", skill))
                    acc = self.edges[("skill_project", skill, pkey)]
                    acc[0] += score
                    acc[1] += 1
                    acc = self.edges[("jobseeker_skill", record.jobseeker_id, skill)]
                    acc[0] += score
                    acc[1] += 1
                    acc[2] += exp.duration_months
                    self.units[(record.jobseeker_id, skill)] += round(score * 2**64)
                    acc = self.edges[("org_skill", exp.organization, skill)]
                    acc[0] += score
                    acc[1] += 1

    def jobseeker_skill_strength(self, jobseeker_id, skill):
        """The mean of the quantized scores (an integer over 2^64, correctly
        rounded, then over the count) plus the duration bonus."""
        acc = self.edges.get(("jobseeker_skill", jobseeker_id, skill))
        if acc is None:
            return 0.0
        sentiment = self.units[(jobseeker_id, skill)] / 2**64 / acc[1] if acc[1] else 0.0
        cap = self.config.duration_cap_months
        return sentiment + self.config.duration_bonus_factor * min(acc[2], cap) / cap

    def org_skill_strength(self, org, skill):
        acc = self.edges.get(("org_skill", org, skill))
        return acc[0] / acc[1] if acc and acc[1] else 0.0

    def skill_years(self, jobseeker_id, skill):
        acc = self.edges.get(("jobseeker_skill", jobseeker_id, skill))
        return acc[2] / 12.0 if acc else 0.0

    def jobseeker_ids(self):
        return sorted(key for kind, key in self.nodes if kind == "jobseeker")

    def execute(self, query):
        """(jobseeker id, total) of each row of ``rank``."""
        return [(jobseeker_id, total) for jobseeker_id, total, _ in self.rank(query)]

    def rank(self, query):
        """Scan every jobseeker, apply every term, sort, truncate: rows of
        (jobseeker id, total, [(skill, strength, years)] per term), each total
        the strengths added left to right."""
        rows = []
        for jobseeker_id in self.jobseeker_ids():
            ok = True
            total = 0.0
            per_skill = []
            for term in query.terms:
                acc = self.edges.get(("jobseeker_skill", jobseeker_id, term.skill))
                if acc is None:
                    ok = False
                    break
                years = acc[2] / 12.0
                if term.min_years is not None and years < term.min_years:
                    ok = False
                    break
                if term.max_years is not None and years > term.max_years:
                    ok = False
                    break
                strength = self.jobseeker_skill_strength(jobseeker_id, term.skill)
                per_skill.append((term.skill, strength, years))
                total += strength
            if ok:
                rows.append((jobseeker_id, total, per_skill))
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows[: query.top_k]

    # -- lookups by node, each a full rescan of the edge dict ------------------

    def supporting_projects(self, jobseeker_id, skill):
        """In ordinal order: the number after the key's last ":p"."""
        return sorted(
            (
                target
                for kind, source, target in self.edges
                if kind == "jobseeker_project"
                and source == jobseeker_id
                and ("skill_project", skill, target) in self.edges
            ),
            key=lambda pkey: int(pkey.rsplit(":p", 1)[1]),
        )

    def project_score(self, pkey):
        """Mean weight of the project's skill edge with the smallest skill."""
        skills = sorted(
            source for kind, source, target in self.edges
            if kind == "skill_project" and target == pkey
        )
        if not skills:
            return 0.0
        acc = self.edges[("skill_project", skills[0], pkey)]
        return acc[0] / acc[1] if acc[1] else 0.0

    def skills_of(self, jobseeker_id):
        return {
            target for kind, source, target in self.edges
            if kind == "jobseeker_skill" and source == jobseeker_id
        }

    def stats(self, lexicon):
        """compute_graph_stats' figures, counted edge by edge."""
        jobseekers = self.jobseeker_ids()
        if not jobseekers:
            return {"resume_count": 0, "distinct_skills": 0, "avg_skills_per_resume": 0.0,
                    "avg_projects_per_resume": 0.0, "skills_by_category": {}}
        skill_edges = project_edges = 0
        for kind, _, _ in self.edges:
            skill_edges += kind == "jobseeker_skill"
            project_edges += kind == "jobseeker_project"
        by_category = defaultdict(int)
        for kind, key in self.nodes:
            if kind == "skill":
                by_category[lexicon.categories.get(key) or "uncategorized"] += 1
        return {
            "resume_count": len(jobseekers),
            "distinct_skills": sum(1 for kind, _ in self.nodes if kind == "skill"),
            "avg_skills_per_resume": skill_edges / len(jobseekers),
            "avg_projects_per_resume": project_edges / len(jobseekers),
            "skills_by_category": dict(by_category),
        }


# -- query DSL --------------------------------------------------------------------

# Redeclared from README "Query DSL".
QUERY_FILLERS = ("candidate", "candidates", "resume", "resumes", "jobseeker", "jobseekers")
NUMBER = r"-?[0-9]+(?:[.][0-9]+)?"
INT_MAX_STR_DIGITS = 4300  # the most digits Python's int() reads


def naive_range(text):
    """(A, B) of ``A-B`` (or ``A–B``), (A, None) of ``A+``, each sign with one
    space or none before it, as the texts of the numbers; None for neither."""
    m = re.fullmatch(f"({NUMBER}) ?[-–] ?({NUMBER})", text)
    if m:
        return m.group(1), m.group(2)
    m = re.fullmatch(f"({NUMBER}) ?[+]", text)
    return (m.group(1), None) if m else None


def naive_parse_term(raw, alias_index):
    """(skill, min years, max years) of one comma-separated piece, or the
    name of the error class it raises."""
    words = raw.split()
    while words and words[-1].lower() in QUERY_FILLERS:
        words = words[:-1]
    if not words:
        return "EmptyQueryError"
    text = " ".join(words)
    phrase, bounds = text, None
    for i, ch in enumerate(text):  # the shortest phrase that leaves a range
        if ch == " " and naive_range(text[i + 1:]) is not None:
            phrase, bounds = text[:i], naive_range(text[i + 1:])
            break
    skill = alias_index.get(naive_fold(phrase))
    if skill is None:  # the skill is resolved before its range is checked
        return "UnknownSkillError"
    low = high = None
    if bounds is not None:
        low = float(bounds[0])
        high = None if bounds[1] is None else float(bounds[1])
        for bound in (low, high):
            if bound is not None and (bound == math.inf or bound < 0):
                return "QueryRangeError"
        if high is not None and high < low:
            return "QueryRangeError"
    return skill, low, high


def naive_parse_query(text, alias_index):
    """((skill, min years, max years) per term, top N), or the name of the
    error class the query raises: an optional leading ``top`` word, any case,
    with an optional N, each a whole word (no letter, digit or ``_`` of any
    script follows it); then the terms, one per comma-separated piece that is
    not blank, each read in turn; then an N below 1; then no terms; then a
    skill in two terms."""
    m = re.match(r"\s*top(?!\w)", text, re.IGNORECASE)
    top_k = 10
    if m:
        text = text[m.end():]
        n = re.match(r"\s+([0-9]+)(?!\w)", text)
        if n:
            if len(n.group(1)) > INT_MAX_STR_DIGITS:
                return "QueryError"
            top_k = int(n.group(1))
            text = text[n.end():]
    terms = []
    for raw in text.split(","):
        if not raw.strip():
            continue
        term = naive_parse_term(raw, alias_index)
        if isinstance(term, str):
            return term
        terms.append(term)
    if top_k < 1:
        return "QueryError"
    if not terms:
        return "EmptyQueryError"
    skills = [skill for skill, _, _ in terms]
    if len(set(skills)) < len(skills):
        return "QueryError"
    return terms, top_k


def naive_skill_key_fault(key):
    """Why ``key`` is no skill key, or None (README, Query DSL): it must be a
    non-empty folded string, and a query of it alone, against a lexicon of it
    alone, must read one bare term that names it."""
    if not isinstance(key, str) or not key or naive_fold(key) != key:
        return f"skill {key!r} is not a lowercase, single-spaced, non-empty string"
    if naive_parse_query(key, {key: key}) != ([(key, None, None)], 10):
        return f"skill {key!r} does not read as one bare query term"
    return None


# -- lexicon and gazetteer documents ---------------------------------------------

def naive_fold(text):
    return re.sub(r"\s+", " ", text.strip().lower())


def naive_dumps(doc):
    """README's canonical layout: top-level keys sorted, one per line; each
    element of a non-empty top-level list on a line of its own; every value
    compact JSON with sorted keys and non-ASCII escaped; a trailing newline."""
    lines = []
    for key in sorted(doc):
        value = doc[key]
        text = json.dumps(value, sort_keys=True)
        if isinstance(value, list) and value:
            text = "[\n" + ",\n".join(json.dumps(v, sort_keys=True) for v in value) + "\n]"
        lines.append(f"{json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def naive_unknown_field(rec, fields):
    """The first key of the record, in its own order, that is not one of ``fields``."""
    unknown = [key for key in rec if key not in fields]
    return f"unknown field {unknown[0]!r}" if unknown else None


def naive_load_lexicon(records):
    """(alias -> canonical, canonical -> category, dumped document), or the
    first fault as (error class name, message). One pass, as README orders
    the checks: each record's fields, its shape, a canonical that is no skill
    key, then a repeat or a conflict."""
    index, categories = {}, {}
    for i, rec in enumerate(records):
        where = f"skills[{i}]: "
        if not isinstance(rec, dict):
            return "LexiconFormatError", where + "record must be an object"
        if unknown := naive_unknown_field(rec, ("canonical", "category", "aliases")):
            return "LexiconFormatError", where + unknown
        for field in ("canonical", "category"):
            if not isinstance(rec.get(field), str) or not rec[field].strip():
                return "LexiconFormatError", where + f"'{field}' must be a non-empty string"
        aliases = rec.get("aliases", [])
        if not isinstance(aliases, list) or any(not isinstance(a, str) for a in aliases):
            return "LexiconFormatError", where + "'aliases' must be a list of strings"
        canonical = naive_fold(rec["canonical"])
        aliases = {naive_fold(a) for a in aliases if naive_fold(a)} | {canonical}
        if fault := naive_skill_key_fault(canonical):
            return "LexiconFormatError", where + fault
        if canonical in categories:
            return "LexiconFormatError", where + f"duplicate canonical {canonical!r}"
        taken = sorted(a for a in aliases if a in index)  # owned by an earlier skill
        if taken:
            return ("AliasConflictError",
                    f"alias {taken[0]!r} maps to both {index[taken[0]]!r} and {canonical!r}")
        categories[canonical] = naive_fold(rec["category"])
        for alias in aliases:
            index[alias] = canonical
    skills = [{"canonical": c, "category": categories[c],
               "aliases": sorted(a for a in index if index[a] == c)} for c in sorted(categories)]
    return index, categories, naive_dumps({"schema_version": 1, "skills": skills})


def naive_load_gazetteer(records):
    """(keyword -> weight, keyword -> class, dumped document), or the first
    fault as (error class name, message). One pass, as README orders the
    checks: each record's fields, its shape, its weight's range, its keyword."""
    weights, classes = {}, {}
    for i, rec in enumerate(records):
        where = f"entries[{i}]: "
        if not isinstance(rec, dict):
            return "GazetteerFormatError", where + "record must be an object"
        if unknown := naive_unknown_field(rec, ("keyword", "class", "weight")):
            return "GazetteerFormatError", where + unknown
        for field in ("keyword", "class"):
            if not isinstance(rec.get(field), str) or not rec[field].strip():
                return "GazetteerFormatError", where + f"'{field}' must be a non-empty string"
        weight = rec.get("weight")
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            return "GazetteerFormatError", where + "'weight' must be a number"
        keyword = naive_fold(rec["keyword"])
        if not 0 <= weight <= 1:
            return "WeightRangeError", where + f"weight {weight} outside [0, 1]"
        if naive_tokens(keyword, stop_words=frozenset()) != [keyword]:
            return "GazetteerFormatError", where + f"keyword {keyword!r} must be a single token"
        if keyword in STOP_WORDS:
            return ("GazetteerFormatError",
                    where + f"keyword {keyword!r} is a stop word, which scoring drops")
        if keyword in weights:
            return "GazetteerFormatError", where + f"duplicate keyword {keyword!r}"
        weights[keyword], classes[keyword] = float(weight), naive_fold(rec["class"])
    entries = [{"keyword": k, "class": classes[k], "weight": weights[k]} for k in sorted(weights)]
    return weights, classes, naive_dumps({"schema_version": 1, "entries": entries})


# -- graph documents ----------------------------------------------------------

LONGEST_DURATION_MONTHS = 129987  # README: the longest duration the parser reads


def is_json_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def naive_config_fault(config):
    """The ``bad config:`` reason for a config object, or None."""
    for name in config:
        if name not in ("duration_bonus_factor", "duration_cap_months", "tool_version"):
            return f"unknown field {name!r}"
    if "tool_version" in config and not isinstance(config["tool_version"], str):
        return f"tool_version {config['tool_version']!r} is not a string"
    for name in ("duration_bonus_factor", "duration_cap_months"):
        if name not in config:
            return repr(name)
    factor, cap = config["duration_bonus_factor"], config["duration_cap_months"]
    if not (is_json_int(factor) or isinstance(factor, float)):
        return f"duration_bonus_factor {factor!r} is not a number"
    if not is_json_int(cap):
        return f"duration_cap_months {cap!r} is not an integer"
    if isinstance(factor, float) and (factor != factor or factor in (math.inf, -math.inf)):
        return "duration_bonus_factor must be finite"
    if factor < 0:
        return "duration_bonus_factor must be >= 0"
    if factor > 10**6:
        return "duration_bonus_factor must be <= 1e6"
    if cap < 1:
        return "duration_cap_months must be positive"
    if cap > 2**53:
        return "duration_cap_months must be <= 2**53"
    return None


def naive_skill_fault(row, skills):
    """What is wrong with one row of the skills section, given the skill keys
    before it."""
    if not isinstance(row, list) or len(row) != 2:
        return "not a [key, attrs] row"
    key, attrs = row
    if not isinstance(key, str) or not isinstance(attrs, dict):
        return "bad key or attrs"
    if fault := naive_skill_key_fault(key):
        return fault
    for name in attrs:
        if not isinstance(attrs[name], str):
            return f"attr {name!r} is not a string"
    if key in skills:
        return f"duplicate skill {key!r}"
    return None


def naive_project_fault(project, skills):
    """What is wrong with one project row, given every skill key."""
    if not isinstance(project, list) or len(project) != 5:
        return "not a [title, organization, months, score_units, skills] row"
    title, org, months, units, mentioned = project
    if not (isinstance(title, str) and isinstance(org, str) and isinstance(mentioned, list)):
        return "title and organization must be strings, skills a list"
    if not (is_json_int(months) and is_json_int(units)):
        return "months and score_units must be integers"
    if months < 0 or months > LONGEST_DURATION_MONTHS:
        return f"months {months} outside [0, {LONGEST_DURATION_MONTHS}]"
    if units < 0 or units > 2**64:
        return f"score_units {units} outside [0, 2**64]"
    if units != 0 and len(mentioned) == 0:
        return "score_units without a mentioned skill"
    for skill in mentioned:
        if not isinstance(skill, str) or skill not in skills:
            return f"unknown skill {skill!r}"
        if len([other for other in mentioned if other == skill]) > 1:
            return f"skill {skill!r} is listed twice"
    return None


def naive_jobseeker_fault(i, row, skills, jobseekers):
    """What is wrong with row ``i`` of the jobseekers section, located, given
    every skill key and the jobseeker ids before it."""
    if not isinstance(row, list) or len(row) != 4:
        return f"jobseekers[{i}]: not an [id, name, declared, projects] row"
    jobseeker, name, declared, projects = row
    if not (isinstance(jobseeker, str) and isinstance(name, str)
            and isinstance(declared, list) and isinstance(projects, list)):
        return f"jobseekers[{i}]: id and name must be strings, declared and projects lists"
    if jobseeker in jobseekers:
        return f"jobseekers[{i}]: duplicate jobseeker {jobseeker!r}"
    mentioned = []
    for n, project in enumerate(projects):
        fault = naive_project_fault(project, skills)
        if fault is not None:
            return f"jobseekers[{i}].projects[{n}]: {fault}"
        mentioned += project[4]
    for n, skill in enumerate(declared):
        if not isinstance(skill, str) or skill not in skills:
            return f"jobseekers[{i}].declared: unknown skill {skill!r}"
        if skill in declared[:n] or skill in mentioned:
            return (f"jobseekers[{i}].declared: skill {skill!r} "
                    "is listed twice or mentioned by a project")
    return None


def naive_graph_fault(doc):
    """The message loading a graph document of schema version 4 fails with,
    or None when it loads: each check of README's Graph file section in the
    order listed there: unknown top-level keys, the three sections' types
    (an absent one reads as empty), the config, then each skill row and each
    jobseeker row with its projects and declared skills."""
    for name in doc:
        if name not in ("schema_version", "config", "skills", "jobseekers"):
            return f"unknown section {name!r}"
    if not isinstance(doc.get("config", {}), dict):
        return "config: not an object"
    for section in ("skills", "jobseekers"):
        if not isinstance(doc.get(section, []), list):
            return f"{section}: not a list"
    fault = naive_config_fault(doc.get("config", {}))
    if fault is not None:
        return f"bad config: {fault}"
    skills = []
    for i, row in enumerate(doc.get("skills", [])):
        fault = naive_skill_fault(row, skills)
        if fault is not None:
            return f"skills[{i}]: {fault}"
        skills.append(row[0])
    jobseekers = []
    for i, row in enumerate(doc.get("jobseekers", [])):
        fault = naive_jobseeker_fault(i, row, skills, jobseekers)
        if fault is not None:
            return fault
        jobseekers.append(row[0])
    return None


def naive_derived_edges(doc):
    """The jobseeker-skill and org-skill accumulators of a loadable graph
    document, [weight_units, support_count, months_sum] each, summed from its
    project rows and declared skills."""
    edges = defaultdict(lambda: [0, 0, 0])
    for jobseeker, _, declared, projects in doc["jobseekers"]:
        for skill in declared:
            edges[("jobseeker_skill", jobseeker, skill)]
        for _, org, months, units, mentioned in projects:
            for skill in mentioned:
                for key, add_months in ((("jobseeker_skill", jobseeker, skill), months),
                                        (("org_skill", org, skill), 0)):
                    edges[key][0] += units
                    edges[key][1] += 1
                    edges[key][2] += add_months
    return dict(edges)


# -- dot rendering ----------------------------------------------------------------

# Redeclared: each edge kind's (source kind, target kind).
EDGE_ENDS = {
    "jobseeker_skill": ("jobseeker", "skill"),
    "skill_project": ("skill", "project"),
    "org_skill": ("organization", "skill"),
    "jobseeker_project": ("jobseeker", "project"),
    "project_org": ("project", "organization"),
}


def naive_to_dot(graph):
    """``export --format dot`` from the public ``nodes`` and ``edges`` alone:
    nodes by (kind, key), then edges by (kind, source, target), each edge's
    mean weight formatted on its own line."""
    def quote(text):
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph talentgraph {"]
    for node in sorted(graph.nodes, key=lambda node: (node.kind.value, node.key)):
        attrs = graph.nodes[node]
        label = attrs.get("name") or attrs.get("title") or node.key
        lines.append(f'  "{node.kind.value}:{quote(node.key)}" '
                     f'[label="{quote(label)}", kind="{node.kind.value}"];')
    edges = graph.edges  # built on each access
    for kind, source, target in sorted(edges, key=lambda key: (key[0].value, *key[1:])):
        source_kind, target_kind = EDGE_ENDS[kind.value]
        mean = edges[kind, source, target].mean_weight()
        lines.append(f'  "{source_kind}:{quote(source)}" -> "{target_kind}:{quote(target)}" '
                     f'[label="{kind.value} {mean:.3f}"];')
    lines.append("}")
    return "".join(line + "\n" for line in lines)

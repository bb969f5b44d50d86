"""Exception types shared across the package."""
from __future__ import annotations


class TalentGraphError(Exception):
    """Base class for all errors raised by this package."""


class LexiconFormatError(TalentGraphError):
    """Skill lexicon document is malformed; message carries a record locator."""


class AliasConflictError(LexiconFormatError):
    """The same alias is claimed by two different canonical skills."""

    def __init__(self, alias: str, first: str, second: str):
        super().__init__(
            f"alias {alias!r} maps to both {first!r} and {second!r}"
        )
        self.alias = alias
        self.canonicals = (first, second)


class GazetteerFormatError(TalentGraphError):
    """Sentiment gazetteer document is malformed; message carries a record locator."""


class WeightRangeError(GazetteerFormatError):
    """Gazetteer weight outside [0, 1]."""


class ResumeParseError(TalentGraphError):
    """Resume text cannot be parsed at all (e.g. empty input)."""


class DuplicateJobseekerError(TalentGraphError):
    """A jobseeker id was ingested (or emitted) twice."""


class GraphConfigError(TalentGraphError):
    """A scoring config value is out of range, or two merged graphs differ in
    scoring config or in the attrs of a node both hold."""


class NodeNotFoundError(TalentGraphError):
    """A graph lookup referenced a node that does not exist."""


class GraphFormatError(TalentGraphError):
    """A graph document is malformed, or ``add_resume`` got a record its row cannot hold."""


class QueryError(TalentGraphError):
    """Base class for query DSL errors."""


class EmptyQueryError(QueryError):
    """Query string contains no terms."""


class UnknownSkillError(QueryError):
    """A query term names a skill the lexicon cannot resolve."""

    def __init__(self, token: str):
        super().__init__(f"unknown skill {token!r}")
        self.token = token


class QueryRangeError(QueryError):
    """Experience range is malformed: a bound not a number, not finite or negative, or min > max."""


class DocumentFormatError(TalentGraphError):
    """Intermediate document violates the schema; message carries a path locator."""


class FixtureError(TalentGraphError):
    """Evaluation fixture is inconsistent (key mismatch, empty query set, ...)."""

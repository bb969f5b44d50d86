"""Lowercase word tokenization shared by skill matching and scoring.

The two differ only in the characters they keep inside tokens.
"""
from __future__ import annotations

import re
from functools import lru_cache

# Characters kept inside tokens by default so aliases like "c++", "c#" and
# hyphenated keywords like "client-server" survive as single tokens.
DEFAULT_KEEP_CHARS = "+#-"


@lru_cache(maxsize=None)
def token_pattern(keep_chars: str) -> re.Pattern[str]:
    """A pattern whose every match is one whole run of ``a-z0-9`` and
    ``keep_chars`` and whose one group is that run stripped: leading hyphens
    and trailing dots and hyphens left outside it.

    Every part is greedy, and the group backtracks only over the run's
    trailing dots and hyphens, so a match costs time linear in its run.
    """
    cls = "a-z0-9" + re.escape(keep_chars)
    last = "a-z0-9" + re.escape(keep_chars.replace(".", "").replace("-", ""))
    tail = "".join(ch for ch in ".-" if ch in keep_chars)
    # Only kept dots and hyphens: a "[.-]*" would run on past the end of a
    # run and swallow the start of the next one.
    lead = "-*" if "-" in keep_chars else ""
    trail = f"[{re.escape(tail)}]*" if tail else ""
    return re.compile(f"(?=[{cls}]){lead}([{cls}]*[{last}]|){trail}")


def tokenize(text: str, keep_chars: str = DEFAULT_KEEP_CHARS) -> list[str]:
    """Split on non-alphanumeric boundaries, except ``keep_chars``.

    Tokens are lowercased; hyphens act as joiners only (stripped at token
    edges), and trailing dots are treated as sentence punctuation.
    """
    return list(filter(None, token_pattern(keep_chars).findall(text.lower())))

"""Lowercase word tokenization shared by skill matching and scoring: ingest
tokenizes a description once for both when they keep the same characters.
"""
from __future__ import annotations

import re
from functools import lru_cache

# Characters kept inside tokens by default so aliases like "c++", "c#" and
# hyphenated keywords like "client-server" survive as single tokens.
DEFAULT_KEEP_CHARS = "+#-"


@lru_cache(maxsize=None)
def token_pattern(keep_chars: str) -> re.Pattern[str]:
    """A pattern that finds each token of a run of ``a-z0-9`` and ``keep_chars``:
    the run without its leading hyphens and its trailing dots and hyphens.

    With C the run's characters, L those of C a token may end on (all but
    ``.`` and ``-``) and F those it may start on (all but ``-``):

    - without a kept ``.``, ``[L][C]*[L]|[L]``, whose matches are the tokens;
    - with one, ``([F][C]*[L]|[L])|\\.[.\\-]*``, whose one group is the token or
      empty. The second alternative eats a run's dead tail of dots and hyphens
      in one match, so that the search does not rescan it from each dot.

    A match's ``[C]*`` runs to the end of its run and backs off only over the
    run's trailing dots and hyphens. The search then passes that tail with a
    one-character failure per hyphen, or one dead-tail match, so tokenizing
    takes time linear in the text.
    """
    cls = "a-z0-9" + re.escape(keep_chars)
    last = "a-z0-9" + re.escape(keep_chars.replace(".", "").replace("-", ""))
    if "." not in keep_chars:
        return re.compile(f"[{last}][{cls}]*[{last}]|[{last}]")
    first = "a-z0-9" + re.escape(keep_chars.replace("-", ""))
    dead = r"\.[.\-]*" if "-" in keep_chars else r"\.+"
    return re.compile(f"([{first}][{cls}]*[{last}]|[{last}])|{dead}")


def tokenize(text: str, keep_chars: str = DEFAULT_KEEP_CHARS) -> list[str]:
    """Split on non-alphanumeric boundaries, except ``keep_chars``.

    Tokens are lowercased; hyphens act as joiners only (stripped at token
    edges), and trailing dots are treated as sentence punctuation.
    """
    pattern = token_pattern(keep_chars)
    tokens = pattern.findall(text.lower())
    return list(filter(None, tokens)) if pattern.groups else tokens

"""Category lexicon matching and distance-based outcome computation.

A lexicon file maps token patterns to word categories, one mapping per
line, in the form ``pattern<TAB>category[,category...]``.  Lines starting
with ``#`` are comments.  A trailing ``*`` makes the pattern match every
token that starts with the part before the ``*`` (the suffix may be
empty); any other pattern matches whole tokens only.

A grouping file assigns lexicon categories to the three category types
used for outcomes.  It has one section per category type::

    [positive_sentiment]
    posemo
    joy

Section order inside the file is free, but the category order inside a
section fixes the column order of that type's block.

A post's category row holds, per category, the fraction of the post's
surface tokens matching that category (count over total token count).
The row has one block per category type, in ``CategoryType`` order, and
each block lists its grouping section's categories in file order;
``CategoryTypeGrouping.columns`` gives each block's slice.  A category
listed in two sections is counted in both blocks.  The outcome for a
triple is the Euclidean distance between the p1 and p3 blocks of one
category type.  A small open demonstration lexicon and grouping ship
with the package; any file in the same format can be substituted.

Each lexicon object memoizes the categories of every token form it has
met, so a run, which loads its own lexicon, categorizes each distinct
form once however many posts repeat it.  The grouping maps each
category to its row columns once, when it is built.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np

from .topics import surface_tokenizer

logger = logging.getLogger(__name__)


class LexiconError(ValueError):
    """A lexicon or grouping file violated its format."""


class CategoryType(str, Enum):
    POSITIVE_SENTIMENT = "positive_sentiment"
    NEGATIVE_SENTIMENT = "negative_sentiment"
    LINGUISTIC_STYLE = "linguistic_style"


@dataclass(frozen=True)
class CategoryLexicon:
    """Compiled lexicon: exact patterns and prefix patterns (wildcard stripped)."""

    categories: frozenset[str]
    exact: Mapping[str, frozenset[str]]
    prefixes: Mapping[str, frozenset[str]]
    # token form -> its categories, filled by vectorize_post
    _forms: dict[str, frozenset[str]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )


@dataclass(frozen=True)
class CategoryTypeGrouping:
    """Ordered category lists per category type."""

    lists: Mapping[CategoryType, tuple[str, ...]]
    # category -> its columns in a category row, one per section listing it
    _columns: dict[str, tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        column = 0
        for ctype in CategoryType:
            for cat in self.lists.get(ctype, ()):
                self._columns[cat] = self._columns.get(cat, ()) + (column,)
                column += 1

    def categories(self, category_type: CategoryType) -> tuple[str, ...]:
        try:
            return self.lists[CategoryType(category_type)]
        except KeyError:
            raise LexiconError(f"grouping has no section for {category_type!r}") from None

    def columns(self, category_type: CategoryType) -> slice:
        """The columns of one category type's block in a category row."""
        types = list(CategoryType)
        before = types[: types.index(CategoryType(category_type))]
        start = sum(len(self.categories(ctype)) for ctype in before)
        return slice(start, start + len(self.categories(category_type)))

    @property
    def width(self) -> int:
        """Length of a category row: the summed size of all blocks."""
        return sum(len(self.categories(ctype)) for ctype in CategoryType)


def load_lexicon(
    lexicon_path: str | Path, grouping_path: str | Path
) -> tuple[CategoryLexicon, CategoryTypeGrouping]:
    """Parse a lexicon file and its grouping file.

    Raises LexiconError naming the offending line for malformed lexicon
    lines, and naming the category for grouping entries that do not exist
    in the lexicon.
    """
    lexicon_path = Path(lexicon_path)
    grouping_path = Path(grouping_path)
    if not lexicon_path.exists():
        raise FileNotFoundError(f"lexicon file not found: {lexicon_path}")
    if not grouping_path.exists():
        raise FileNotFoundError(f"grouping file not found: {grouping_path}")

    exact: dict[str, set[str]] = {}
    prefixes: dict[str, set[str]] = {}
    categories: set[str] = set()
    with lexicon_path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise LexiconError(
                    f"{lexicon_path.name} line {lineno}: expected "
                    f"'pattern<TAB>category[,category...]', got {line!r}"
                )
            pattern, category_field = parts[0].strip(), parts[1].strip()
            cats = [c.strip() for c in category_field.split(",")]
            if not pattern or any(not c for c in cats):
                raise LexiconError(
                    f"{lexicon_path.name} line {lineno}: empty pattern or category"
                )
            if "*" in pattern[:-1]:
                raise LexiconError(
                    f"{lexicon_path.name} line {lineno}: '*' is only allowed "
                    f"at the end of a pattern, got {pattern!r}"
                )
            categories.update(cats)
            if pattern.endswith("*"):
                stem = pattern[:-1]
                if not stem:
                    raise LexiconError(
                        f"{lexicon_path.name} line {lineno}: bare '*' pattern is not allowed"
                    )
                prefixes.setdefault(stem, set()).update(cats)
            else:
                exact.setdefault(pattern, set()).update(cats)

    grouping_lists: dict[CategoryType, tuple[str, ...]] = {}
    current: CategoryType | None = None
    collected: dict[CategoryType, list[str]] = {}
    with grouping_path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                try:
                    current = CategoryType(name)
                except ValueError:
                    raise LexiconError(
                        f"{grouping_path.name} line {lineno}: unknown category type {name!r}"
                    ) from None
                if current in collected:
                    raise LexiconError(
                        f"{grouping_path.name} line {lineno}: duplicate section {name!r}"
                    )
                collected[current] = []
                continue
            if current is None:
                raise LexiconError(
                    f"{grouping_path.name} line {lineno}: category outside any section"
                )
            if line not in categories:
                raise LexiconError(
                    f"{grouping_path.name} line {lineno}: category {line!r} "
                    "does not appear in the lexicon"
                )
            if line in collected[current]:
                raise LexiconError(
                    f"{grouping_path.name} line {lineno}: duplicate category {line!r}"
                )
            collected[current].append(line)

    for ctype in CategoryType:
        entries = collected.get(ctype, [])
        if not entries:
            raise LexiconError(f"grouping section {ctype.value!r} is missing or empty")
        grouping_lists[ctype] = tuple(entries)

    lexicon = CategoryLexicon(
        categories=frozenset(categories),
        exact={token: frozenset(cats) for token, cats in exact.items()},
        prefixes={stem: frozenset(cats) for stem, cats in prefixes.items()},
    )
    return lexicon, CategoryTypeGrouping(lists=grouping_lists)


def default_lexicon_path() -> Path:
    return Path(__file__).parent / "data" / "lexicon.txt"


def default_grouping_path() -> Path:
    return Path(__file__).parent / "data" / "grouping.txt"


# the result for a token no pattern matches: most forms match none, and
# the lexicon memo keeps every result, so they share one set
_NO_CATEGORIES: frozenset[str] = frozenset()


def categorize_token(lexicon: CategoryLexicon, token: str) -> frozenset[str]:
    """All categories whose patterns match the token (union over matches)."""
    cats: set[str] = set()
    exact = lexicon.exact.get(token)
    if exact:
        cats.update(exact)
    prefixes = lexicon.prefixes
    if prefixes:
        for end in range(len(token) + 1):
            hit = prefixes.get(token[:end])
            if hit:
                cats.update(hit)
    return frozenset(cats) if cats else _NO_CATEGORIES


def vectorize_post(
    lexicon: CategoryLexicon, grouping: CategoryTypeGrouping, text: str
) -> np.ndarray:
    """Category row of one text: relative frequencies for all three types.

    Tokens come from the surface tokenizer, which keeps stop words and
    surface forms because style categories live in exactly those words.
    Each distinct form is counted once and added to every column of its
    categories; a form is categorized only the first time ``lexicon``
    meets it.  A text with zero tokens yields the zero row.
    """
    forms = lexicon._forms
    columns = grouping._columns
    tokens = surface_tokenizer()(text)
    counts = [0] * grouping.width
    for form, count in Counter(tokens).items():
        cats = forms.get(form)
        if cats is None:
            cats = forms[form] = categorize_token(lexicon, form)
        for cat in cats:
            for col in columns.get(cat, ()):
                counts[col] += count
    row = np.array(counts, dtype=float)
    if tokens:
        row /= len(tokens)
    return row


def compute_outcome(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between matching rows of two blocks of one category type."""
    if a.shape != b.shape:
        raise LexiconError(f"cannot compare blocks of shape {a.shape} and {b.shape}")
    return np.sqrt(np.sum((a - b) ** 2, axis=1))

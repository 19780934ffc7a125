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

Each lexicon object memoizes, through ``CategoryLexicon.categories``,
the categories of every token form it has met, so a run, which loads
its own lexicon, categorizes each distinct form once however many posts
repeat it, and the memo does not outlive the run.  The grouping maps
each category to its row columns once, when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sparse

from .harness.records import decode_text, read_input
from .topics import FormIndex, count_terms


class LexiconError(ValueError):
    """A lexicon or grouping file violated its format."""


class CategoryType(str, Enum):
    POSITIVE_SENTIMENT = "positive_sentiment"
    NEGATIVE_SENTIMENT = "negative_sentiment"
    LINGUISTIC_STYLE = "linguistic_style"


@dataclass(frozen=True)
class CategoryLexicon:
    """Compiled lexicon: exact patterns and prefix patterns (wildcard stripped)."""

    exact: Mapping[str, frozenset[str]]
    prefixes: Mapping[str, frozenset[str]]
    # token form -> its categories, filled by categories()
    _forms: dict[str, frozenset[str]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # the distinct lengths of the prefix stems, ascending
    _stem_lengths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lengths = tuple(sorted({len(stem) for stem in self.prefixes}))
        object.__setattr__(self, "_stem_lengths", lengths)

    def categories(self, form: str) -> frozenset[str]:
        """The categories of one token form, as ``categorize_token`` gives them.

        The result is memoized on this lexicon, so each distinct form is
        categorized only the first time any caller asks for it, and later
        calls return the same set.
        """
        cats = self._forms.get(form)
        if cats is None:
            # by its module-global name, so a wrapper installed there meets each form once
            cats = self._forms[form] = categorize_token(self, form)
        return cats


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


def _lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """Each stripped line that is not blank or a comment, after its lead-in "<name> line <n>"."""
    try:
        data = read_input(path)
    except ValueError as exc:
        raise LexiconError(str(exc)) from exc
    name = Path(path).name
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = decode_text(raw).strip()
        except ValueError as exc:
            raise LexiconError(f"{name} line {lineno}: {exc}") from None
        if line and not line.startswith("#"):
            yield f"{name} line {lineno}", line


def load_lexicon(
    lexicon_path: str | Path, grouping_path: str | Path
) -> tuple[CategoryLexicon, CategoryTypeGrouping]:
    """Parse a lexicon file and its grouping file.

    Raises LexiconError naming the offending line for malformed lexicon
    lines, and naming the category for grouping entries that do not exist
    in the lexicon.
    """
    exact: dict[str, set[str]] = {}
    prefixes: dict[str, set[str]] = {}
    categories: set[str] = set()
    for where, line in _lines(lexicon_path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconError(
                f"{where}: expected 'pattern<TAB>category[,category...]', got {line!r}"
            )
        pattern, cats = parts[0].strip(), [c.strip() for c in parts[1].split(",")]
        if not pattern or any(not c for c in cats):
            raise LexiconError(f"{where}: empty pattern or category")
        if "*" in pattern[:-1]:
            raise LexiconError(
                f"{where}: '*' is only allowed at the end of a pattern, got {pattern!r}"
            )
        categories.update(cats)
        if pattern.endswith("*"):
            stem = pattern[:-1]
            if not stem:
                raise LexiconError(f"{where}: bare '*' pattern is not allowed")
            prefixes.setdefault(stem, set()).update(cats)
        else:
            exact.setdefault(pattern, set()).update(cats)

    current: CategoryType | None = None
    collected: dict[CategoryType, list[str]] = {}
    for where, line in _lines(grouping_path):
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            try:
                current = CategoryType(name)
            except ValueError:
                raise LexiconError(f"{where}: unknown category type {name!r}") from None
            if current in collected:
                raise LexiconError(f"{where}: duplicate section {name!r}")
            collected[current] = []
            continue
        if current is None:
            raise LexiconError(f"{where}: category outside any section")
        if line not in categories:
            raise LexiconError(f"{where}: category {line!r} does not appear in the lexicon")
        if line in collected[current]:
            raise LexiconError(f"{where}: duplicate category {line!r}")
        collected[current].append(line)

    for ctype in CategoryType:
        if not collected.get(ctype):
            raise LexiconError(f"grouping section {ctype.value!r} is missing or empty")

    lexicon = CategoryLexicon(
        exact={token: frozenset(cats) for token, cats in exact.items()},
        prefixes={stem: frozenset(cats) for stem, cats in prefixes.items()},
    )
    return lexicon, CategoryTypeGrouping({ctype: tuple(collected[ctype]) for ctype in CategoryType})


def default_lexicon_path() -> Path:
    return Path(__file__).parent / "data" / "lexicon.txt"


def default_grouping_path() -> Path:
    return Path(__file__).parent / "data" / "grouping.txt"


# the result for a token no pattern matches: most forms match none, and
# the lexicon memo keeps every result, so they share one set
_NO_CATEGORIES: frozenset[str] = frozenset()


def categorize_token(lexicon: CategoryLexicon, token: str) -> frozenset[str]:
    """All categories whose patterns match the token (union over matches).

    Prefix stems are looked up only at the lengths some stem has, up to
    the token's own length.
    """
    cats: set[str] = set()
    exact = lexicon.exact.get(token)
    if exact:
        cats.update(exact)
    prefixes = lexicon.prefixes
    for length in lexicon._stem_lengths:
        if length > len(token):
            break
        hit = prefixes.get(token[:length])
        if hit:
            cats.update(hit)
    return frozenset(cats) if cats else _NO_CATEGORIES


def vectorize_forms(
    lexicon: CategoryLexicon,
    grouping: CategoryTypeGrouping,
    docs: Sequence[np.ndarray],
    forms: Sequence[str],
) -> np.ndarray:
    """Category rows of texts given as their ``split_words`` forms, one row per text.

    Each text is an integer array of form ids, and ``forms[i]`` is the
    form of id i.  A row is the text's form counts times a form x column
    matrix, whose entry counts how often the form's categories list the
    column, divided by the text's token count; every sum is of whole
    numbers, so it is exact in any order.  Each form's categories come
    from ``lexicon.categories``, so a form the lexicon has already met,
    here or elsewhere, is not categorized again.  A text with zero
    tokens yields the zero row.
    """
    counted = count_terms(docs, forms)
    # the forms that occur, and each entry's index among them
    seen = np.zeros(len(forms), dtype=bool)
    seen[counted.term] = True
    present = np.flatnonzero(seen)
    column = (np.cumsum(seen) - 1)[counted.term]
    multiplicity = np.zeros((len(present), grouping.width))
    columns = grouping._columns
    for i, form in enumerate(map(forms.__getitem__, present.tolist())):
        for cat in lexicon.categories(form):
            for col in columns.get(cat, ()):
                multiplicity[i, col] += 1
    indptr = np.zeros(len(docs) + 1, dtype=np.intp)
    np.cumsum(np.bincount(counted.doc, minlength=len(docs)), out=indptr[1:])
    per_form = sparse.csr_matrix(
        (counted.count.astype(float), column, indptr), shape=(len(docs), len(present))
    )
    rows = per_form @ multiplicity
    lengths = np.array([len(doc) for doc in docs], dtype=float)[:, np.newaxis]
    return np.divide(rows, lengths, out=rows, where=lengths > 0)


def vectorize_post(
    lexicon: CategoryLexicon, grouping: CategoryTypeGrouping, text: str
) -> np.ndarray:
    """Category row of one text: relative frequencies for all three types.

    Tokens are the text's ``split_words`` forms, stop words and surface
    forms included, because style categories live in exactly those words.
    The row is ``vectorize_forms`` of the text alone.
    """
    forms = FormIndex()
    return vectorize_forms(lexicon, grouping, [forms.split(text)], list(forms))[0]


def compute_outcome(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between matching rows of two blocks of one category type."""
    if a.shape != b.shape:
        raise LexiconError(f"cannot compare blocks of shape {a.shape} and {b.shape}")
    return np.sqrt(np.sum((a - b) ** 2, axis=1))

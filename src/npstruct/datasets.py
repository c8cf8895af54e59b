"""Dataset row formats, bundled datasets and default resources."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, TypeVar

from .assoc import NounTriple
from .coordination import CoordQuad
from .decisions import LEFT, NOUN, NOUN_COORD, NP_COORD, RIGHT, VERB
from .morphology import MorphLexicon
from .paraphrase import DEFAULT_INVENTORY, ParaphraseInventory
from .ppattach import PPQuad

T = TypeVar("T")


def read_rows(path: str | Path, parse: Callable[[list[str]], T], what: str) -> list[T]:
    """``parse`` of each nonblank line's tab-separated columns, in file order.

    Only a newline ends a line.  A ``ValueError`` from ``parse`` becomes
    ``bad {what} on line N``.
    """
    rows = []
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").split("\n"), start=1
    ):
        if line.strip():
            try:
                rows.append(parse(line.split("\t")))
            except ValueError:
                raise ValueError(f"bad {what} on line {lineno}") from None
    return rows


@dataclass(frozen=True)
class RowFormat:
    """A TSV dataset layout: ``width`` item columns, then a label tag.

    ``make`` builds the item from its columns, ``labels`` maps each tag
    to its task label, and up to ``optional`` trailing columns are
    ignored.
    """

    make: Callable[..., object]
    width: int
    labels: dict[str, str]
    optional: int = 0

    def parse(self, parts: list[str]) -> tuple[object, str]:
        """The ``(item, label)`` of one row's columns; ``ValueError`` if malformed."""
        width = self.width
        if (
            not width < len(parts) <= width + 1 + self.optional
            or parts[width] not in self.labels
        ):
            raise ValueError
        return self.make(*parts[:width]), self.labels[parts[width]]

    def load(self, path: str | Path) -> list[tuple[object, str]]:
        """Read ``(item, label)`` rows, skipping blank lines."""
        return read_rows(path, self.parse, "dataset row")


# ``w1 w2 w3 left|right``, optionally followed by the compound's frequency.
BRACKETING = RowFormat(NounTriple, 3, {"left": LEFT, "right": RIGHT}, optional=1)
# ``v n1 p n2 N|V``.
PP_ATTACHMENT = RowFormat(PPQuad, 4, {"N": NOUN, "V": VERB})
# ``n1 c n2 h noun|NP``.
COORDINATION = RowFormat(CoordQuad, 4, {"noun": NOUN_COORD, "NP": NP_COORD})


def data_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    return Path(resources.files("npstruct.data") / name)


def biomedical_bracketing() -> list[tuple[NounTriple, str]]:
    """The bundled biomedical three-word compound dataset."""
    return BRACKETING.load(data_path("bracketing_biomedical.tsv"))


def treebank_coordination() -> list[tuple[CoordQuad, str]]:
    """The bundled coordination dataset."""
    return COORDINATION.load(data_path("coordination_treebank.tsv"))


def default_lexicon() -> MorphLexicon:
    """The bundled morphological lexicon."""
    return MorphLexicon.load(data_path("lexicon.tsv"))


def default_inventory() -> ParaphraseInventory:
    """The default paraphrase inventory: ``paraphrase``'s word lists, one shared instance."""
    return DEFAULT_INVENTORY

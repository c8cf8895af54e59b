"""Corpus-backed disambiguation of noun-phrase structure.

Subpackages cover noun-compound bracketing, PP attachment,
coordination scope, relational similarity between noun pairs, and the
statistical evaluation machinery tying them together.  All counting
runs against a local corpus index with true occurrence frequencies.
"""

from .assoc import NounTriple, assoc_score
from .bracketer import bracket
from .coordination import CoordQuad, coord_pipeline
from .corpus import (
    CorpusIndex,
    CountQuery,
    IndexProvider,
    MappingProvider,
    build_index,
)
from .decisions import Decision, VoteConfig, majority_vote
from .morphology import MorphLexicon, inflections, lemma
from .paraphrase import ParaphraseInventory, paraphrase_decision
from .ppattach import PPQuad, pp_pipeline
from .stats import EvalReport, evaluate, pearson_chi2, wilson_interval

__all__ = [
    "NounTriple",
    "assoc_score",
    "bracket",
    "CoordQuad",
    "coord_pipeline",
    "CorpusIndex",
    "CountQuery",
    "IndexProvider",
    "MappingProvider",
    "build_index",
    "Decision",
    "VoteConfig",
    "majority_vote",
    "MorphLexicon",
    "inflections",
    "lemma",
    "ParaphraseInventory",
    "paraphrase_decision",
    "PPQuad",
    "pp_pipeline",
    "EvalReport",
    "evaluate",
    "pearson_chi2",
    "wilson_interval",
]

__version__ = "0.1.0"

"""Core SGQ/TBQ machinery: semantic graph, pss, A*, TA assembly, engine."""

from repro.core.compact_view import (
    CompactSemanticGraphView,
    CompactViewFactory,
)
from repro.core.config import PssMode, SearchConfig, VisitedPolicy
from repro.core.engine import SemanticGraphQueryEngine
from repro.core.results import FinalMatch, PathMatch, QueryResult, SearchStats
from repro.core.semantic_graph import SemanticGraphView

__all__ = [
    "PssMode",
    "SearchConfig",
    "VisitedPolicy",
    "SemanticGraphQueryEngine",
    "SemanticGraphView",
    "CompactSemanticGraphView",
    "CompactViewFactory",
    "FinalMatch",
    "PathMatch",
    "QueryResult",
    "SearchStats",
]

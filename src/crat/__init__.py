"""CRAT: retrieval-augmented translation with judged term knowledge.

The pipeline detects translation-risky terms in a source text, builds a
provenance-tagged knowledge graph for them from the text itself and from
retrieved documents, filters the retrieved evidence with a back-translation
judge, and translates conditioned on the surviving knowledge. An evaluation
harness scores runs with corpus BLEU, a repeated-term consistency metric,
and an LLM-judged quality score.
"""

# Set before the imports below: the gateway names it in its User-Agent.
__version__ = "0.1.0"

from .agents import (
    AgentError,
    AgentParseError,
    ConsisResult,
    JudgeVerdict,
    TranslatorOutput,
    consis_evaluate,
    detect_unknown_terms,
    extract_internal_knowledge,
    judge_document,
    translate_with_knowledge,
)
from .evaluation import (
    MetricReport,
    ParallelExample,
    compare_reports,
    corpus_bleu,
    evaluate_run,
    term_consistency,
)
from .gateway import (
    ChatExchange,
    ChatMessage,
    ChatRequest,
    Gateway,
    GatewayError,
    request_fingerprint,
)
from .pipeline import (
    BatchManifest,
    PipelineConfig,
    PipelineError,
    TranslationResult,
    run_batch,
    run_pipeline,
    serialize_result,
    write_transcript,
)
from .retrieval import (
    CorpusIndex,
    RetrievedDocument,
    build_index,
    retrieve_for_term,
    search,
)
from .transcript import AgentTranscript
from .transkg import (
    CORRECT,
    INCORRECT,
    GraphError,
    GraphParseError,
    KnowledgeTriple,
    Provenance,
    TermCandidate,
    TransKG,
    add_internal,
    deserialize_graph,
    integrate_external,
    new_graph,
    serialize_graph,
    triples_for_term,
)

__all__ = [
    "AgentError",
    "AgentParseError",
    "AgentTranscript",
    "BatchManifest",
    "CORRECT",
    "ChatExchange",
    "ChatMessage",
    "ChatRequest",
    "ConsisResult",
    "CorpusIndex",
    "Gateway",
    "GatewayError",
    "GraphError",
    "GraphParseError",
    "INCORRECT",
    "JudgeVerdict",
    "KnowledgeTriple",
    "MetricReport",
    "ParallelExample",
    "PipelineConfig",
    "PipelineError",
    "Provenance",
    "RetrievedDocument",
    "TermCandidate",
    "TransKG",
    "TranslationResult",
    "TranslatorOutput",
    "add_internal",
    "build_index",
    "compare_reports",
    "consis_evaluate",
    "corpus_bleu",
    "deserialize_graph",
    "detect_unknown_terms",
    "evaluate_run",
    "extract_internal_knowledge",
    "integrate_external",
    "judge_document",
    "new_graph",
    "request_fingerprint",
    "retrieve_for_term",
    "run_batch",
    "run_pipeline",
    "search",
    "serialize_graph",
    "serialize_result",
    "term_consistency",
    "translate_with_knowledge",
    "triples_for_term",
    "write_transcript",
]

"""Knowledge-graph reasoning with pluggable completion backends.

The pipeline turns a claim or question into sub-sentences, retrieves the
matching relations and evidence sub-graph from an in-memory knowledge
graph, and asks a completion backend for the final verdict or answer.
"""

from .backends import (
    BackendConfig,
    HttpBackend,
    MockBackend,
    make_backend,
    prompt_hash,
)
from .candidates import (
    Mention,
    extract_nhop_candidates,
    extract_relation_candidates,
    resolve_mention,
)
from .errors import KGReasonError, PipelineError
from .evaluation import (
    evaluate,
    load_qa_dataset,
    load_verification_dataset,
)
from .graph import (
    KnowledgeGraph,
    build_type_graph,
    canonical_label,
    load_graph,
)
from .parsing import (
    REFUTED,
    SUPPORTED,
    parse_answer,
    parse_relations,
    parse_segmentation,
    parse_verdict,
)
from .pipeline import Pipeline, Query, linearize
from .prompts import (
    QA_INFERENCE_TEMPLATE,
    RETRIEVAL_TEMPLATE,
    SEGMENTATION_TEMPLATE,
    VERIFICATION_INFERENCE_TEMPLATE,
    render_entity_set,
    render_prompt,
    render_relation_list,
    render_triple_list,
)

__version__ = "0.1.0"

__all__ = [
    "BackendConfig",
    "HttpBackend",
    "KGReasonError",
    "KnowledgeGraph",
    "Mention",
    "MockBackend",
    "Pipeline",
    "PipelineError",
    "QA_INFERENCE_TEMPLATE",
    "Query",
    "REFUTED",
    "RETRIEVAL_TEMPLATE",
    "SEGMENTATION_TEMPLATE",
    "SUPPORTED",
    "VERIFICATION_INFERENCE_TEMPLATE",
    "build_type_graph",
    "canonical_label",
    "evaluate",
    "extract_nhop_candidates",
    "extract_relation_candidates",
    "linearize",
    "load_graph",
    "load_qa_dataset",
    "load_verification_dataset",
    "make_backend",
    "parse_answer",
    "parse_relations",
    "parse_segmentation",
    "parse_verdict",
    "prompt_hash",
    "render_entity_set",
    "render_prompt",
    "render_relation_list",
    "render_triple_list",
    "resolve_mention",
]

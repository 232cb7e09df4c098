"""Simulated EPT-based memory tracing and trace analysis toolkit."""

from .trace import (
    AccessEvent,
    AddressPattern,
    InstrDescriptor,
    TraceLog,
    parse_trace,
    serialize_trace,
    split_by_thread,
)
from .guest import (
    Allowed,
    Guest,
    ModelOp,
    PageFault,
    PagePerms,
    ProgramModel,
    TrapConfig,
    Violation,
    build_guest,
    capture_entry_point,
    legacy_transition_detect,
    parse_model,
    run,
    serialize_model,
    transitions,
)
from .recon import (
    ALLOCATOR_NAMES,
    EVASIVE_SEQUENCES,
    AllocationRecord,
    CallRecord,
    FieldRecord,
    LayoutRecord,
    collect_bases,
    find_allocations,
    find_stack_buffers,
    flag_call_sequences,
    reconstruct_layout,
    recover_calls,
    render_layout_c,
)
from .signature import (
    DiffReport,
    LcmapResult,
    NotSimilarError,
    diff_modified,
    extract_pattern,
    lcmap,
    near,
    read_signature,
    similarity,
    write_signature,
)

__version__ = "0.1.0"

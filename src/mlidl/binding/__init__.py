"""Binding generation: lifted signatures, layouts, emission, loading."""

from mlidl.binding.build import BindingError, build_binding, load_manifest
from mlidl.binding.bindfile import SchemaViolation, emit_binding_file, load_binding_file
from mlidl.binding.sigtext import emit_sig_text

__all__ = [
    "BindingError", "SchemaViolation", "build_binding", "emit_binding_file",
    "emit_sig_text", "load_binding_file", "load_manifest",
]

"""Parsing, token normalization and code-element extraction."""

from .elements import (CodeElement, extract_elements, read_elements,
                       write_elements)
from .lexer import ParseError
from .normalize import (LITERAL_KINDS, STRUCT_KEYWORDS, EnrichedToken,
                        EnrichedTokenStream, normalize, read_stream,
                        write_stream)
from .parser import parse
from .symbols import (SymbolTable, build_symbols, resolve_type_name,
                      simple_arg_name)
from .tree import Node, SyntaxTree

__all__ = [
    "CodeElement", "EnrichedToken", "EnrichedTokenStream", "LITERAL_KINDS",
    "Node", "ParseError", "STRUCT_KEYWORDS", "SymbolTable", "SyntaxTree",
    "build_symbols", "extract_elements", "normalize", "parse",
    "read_elements", "read_stream", "resolve_type_name", "simple_arg_name",
    "write_elements", "write_stream",
]

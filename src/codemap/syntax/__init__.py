"""Parsing, token normalization and code-element extraction."""

from .elements import (CodeElement, element_ids, extract_elements,
                       id_granularity, read_elements, write_elements)
from .lexer import ParseError
from .normalize import (LITERAL_KINDS, STRUCT_KEYWORDS, EnrichedToken,
                        EnrichedTokenStream, normalize, read_stream,
                        write_stream)
from .parser import parse
from .symbols import SymbolTable, build_symbols
from .tree import Node, SyntaxTree

__all__ = [
    "CodeElement", "EnrichedToken", "EnrichedTokenStream", "LITERAL_KINDS",
    "Node", "ParseError", "STRUCT_KEYWORDS", "SymbolTable", "SyntaxTree",
    "build_symbols", "element_ids", "extract_elements", "id_granularity",
    "normalize", "parse",
    "read_elements", "read_stream", "write_elements", "write_stream",
]

"""Parsing, token normalization and code-element extraction."""

from .elements import (element_ids, extract_elements, id_granularity,
                       read_elements, write_elements)
from .lexer import ParseError
from .normalize import (LITERAL_KINDS, STRUCT_KEYWORDS, EnrichedTokenStream,
                        normalize, read_stream, write_stream)
from .parser import parse
from .symbols import SymbolTable, build_symbols
from .tree import Node

__all__ = [
    "EnrichedTokenStream", "LITERAL_KINDS", "Node", "ParseError",
    "STRUCT_KEYWORDS", "SymbolTable", "build_symbols", "element_ids",
    "extract_elements", "id_granularity", "normalize", "parse",
    "read_elements", "read_stream", "write_elements", "write_stream",
]

"""Cross-language code mapping through shared token embeddings.

Pipeline: pair source files across two language trees, normalize them into
enriched token streams, learn token alignments, train bilingual skip-gram
embeddings, compose element-level vectors, and retrieve cross-language
mappings.
"""

import os

# before numpy loads: more BLAS threads slow training and move its last bits
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

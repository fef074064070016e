"""Pipeline configuration: one flat `key = value` file.

Keys are dotted (`project.lang_a`, `train.dim`); `#` starts a comment.
Relative paths are resolved against the config file's directory so a
bundled project stays relocatable.  Unknown or duplicate keys are
rejected with the offending line number.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__, syntax
from .corpus import ProjectManifest
from .embed import TrainConfig
from .hier import WEIGHTINGS
from .retrieve import SIDES

SYMMETRIZATIONS = ("intersection", "union")
GRANULARITIES = ("token", *syntax.elements.GRANULARITIES)


@dataclass
class PipelineConfig:
    manifest: ProjectManifest
    threshold: float = 1.0
    align_iterations: int = 10
    symmetrization: str = "intersection"
    align_max_len: int = 2000
    train: TrainConfig = field(default_factory=TrainConfig)
    weighting: str = "uniform"
    ks: tuple[int, ...] = (1, 5, 10)
    k: int = 10
    granularity: str = "token"
    side: str = "a2b"
    truth: Path | None = None
    reference: Path | None = None

    def validate(self):
        self.manifest.validate()
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("pair.threshold must be in (0, 1]")
        if self.align_iterations < 1:
            raise ValueError("align.iterations must be at least 1")
        if self.symmetrization not in SYMMETRIZATIONS:
            raise ValueError("align.symmetrization must be one of "
                             f"{SYMMETRIZATIONS}")
        if self.align_max_len < 1:
            raise ValueError("align.max_len must be at least 1")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"compose.weighting must be one of "
                             f"{WEIGHTINGS}")
        if not self.ks or any(k < 1 for k in self.ks):
            raise ValueError("retrieve.ks must be positive integers")
        if self.k < 1:
            raise ValueError("retrieve.k must be at least 1")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"retrieve.granularity must be one of "
                             f"{GRANULARITIES}")
        if self.side not in SIDES:
            raise ValueError(f"retrieve.side must be one of {SIDES}")


def _parse_ks(text):
    return tuple(int(part) for part in text.split(","))


# key -> (target, attribute, converter); target "manifest" fields are
# collected first, then the dataclass is assembled.
_KEYS = {
    "project.name": ("manifest", "name", str),
    "project.root_a": ("manifest", "lang_a_root", "path"),
    "project.root_b": ("manifest", "lang_b_root", "path"),
    "project.lang_a": ("manifest", "lang_a", str),
    "project.lang_b": ("manifest", "lang_b", str),
    "pair.threshold": ("pipeline", "threshold", float),
    "align.iterations": ("pipeline", "align_iterations", int),
    "align.symmetrization": ("pipeline", "symmetrization", str),
    "align.max_len": ("pipeline", "align_max_len", int),
    "train.dim": ("train", "dim", int),
    "train.window": ("train", "window", int),
    "train.negatives": ("train", "negatives", int),
    "train.epochs": ("train", "epochs", int),
    "train.lr0": ("train", "lr0", float),
    "train.min_count": ("train", "min_count", int),
    "train.subsample": ("train", "subsample", float),
    "train.seed": ("train", "seed", int),
    "compose.weighting": ("pipeline", "weighting", str),
    "retrieve.ks": ("pipeline", "ks", _parse_ks),
    "retrieve.k": ("pipeline", "k", int),
    "retrieve.granularity": ("pipeline", "granularity", str),
    "retrieve.side": ("pipeline", "side", str),
    "retrieve.truth": ("pipeline", "truth", "path"),
    "retrieve.reference": ("pipeline", "reference", "path"),
}

_REQUIRED = [key for key in _KEYS if key.startswith("project.")]


def parse_config(path, seed=None):
    """Parse and validate a pipeline config file.

    `seed` (from the command line) overrides train.seed when given.
    """
    path = Path(path)
    base = path.resolve().parent
    fields: dict = {"manifest": {}, "pipeline": {}, "train": {}}
    seen: dict[str, int] = {}

    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in
                               line.partition("="))
            if not sep or not key or not value:
                raise ValueError(f"{path}:{lineno}: expected `key = "
                                 f"value`, got {raw.strip()!r}")
            if key not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ValueError(f"{path}:{lineno}: duplicate key "
                                 f"{key!r} (first set on line "
                                 f"{seen[key]})")
            seen[key] = lineno
            target, attr, convert = _KEYS[key]
            try:
                parsed = (base / value if convert == "path"
                          else convert(value))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value for "
                                 f"{key!r}: {value!r}") from None
            fields[target][attr] = parsed

    missing = [key for key in _REQUIRED
               if _KEYS[key][1] not in fields["manifest"]]
    if missing:
        raise ValueError(f"{path}: missing required keys: "
                         f"{', '.join(missing)}")
    if seed is not None:
        fields["train"]["seed"] = seed
    cfg = PipelineConfig(manifest=ProjectManifest(**fields["manifest"]),
                         train=TrainConfig(**fields["train"]),
                         **fields["pipeline"])
    cfg.validate()
    return cfg


def config_hash(path):
    """First 12 hex digits of the config file's sha256."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


def provenance(cfg_hash, seed):
    """Comment line stamped at the top of every pipeline artifact."""
    return f"codemap {__version__} config={cfg_hash} seed={seed}"

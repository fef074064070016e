"""Discover file pairs across two language source trees by filename similarity.

Files whose normalized stems (lowercased, extension stripped) match with
similarity at or above a threshold are considered implementations of the same
functionality.  Matching is one-to-one: each file joins at most one pair.
At threshold 1.0 only equal stems match, so they are looked up by stem.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import artifacts

LANG_EXTENSIONS = {
    "java": (".java",),
    "csharp": (".cs",),
}


@dataclass(frozen=True)
class ProjectManifest:
    name: str
    lang_a_root: Path
    lang_b_root: Path
    lang_a: str
    lang_b: str

    def validate(self) -> None:
        for root in (self.lang_a_root, self.lang_b_root):
            if not Path(root).is_dir():
                raise FileNotFoundError(f"source root not readable: {root}")
        if Path(self.lang_a_root).resolve() == Path(self.lang_b_root).resolve():
            raise ValueError("source roots must be distinct")
        if self.lang_a == self.lang_b:
            raise ValueError("language ids must differ")
        for lang in (self.lang_a, self.lang_b):
            if lang not in LANG_EXTENSIONS:
                raise ValueError(f"unsupported language id: {lang!r}")


@dataclass(frozen=True)
class FilePair:
    """One cross-language file pair; paths are relative to their roots."""

    path_a: str
    path_b: str
    stem: str
    similarity: float


def normalize_stem(path: str | Path) -> str:
    name = Path(path).name
    dot = name.rfind(".")
    if dot > 0:
        name = name[:dot]
    return name.lower()


def levenshtein(a: str, b: str) -> int:
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def stem_similarity(stem_a: str, stem_b: str) -> float:
    """Normalized Levenshtein similarity in [0, 1]; byte-equal stems give 1.0."""
    if stem_a == stem_b:
        return 1.0
    longest = max(len(stem_a), len(stem_b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(stem_a, stem_b) / longest


def match_stems(
    files_a: list[str],
    files_b: list[str],
    threshold: float,
) -> list[FilePair]:
    """One-to-one matching of relative paths by stem similarity.

    Greedy by descending similarity; ties broken by smallest relative-path
    edit distance, then lexicographic path order.  Deterministic for a fixed
    input.  The distance is computed only for a candidate that shares a
    path with another: one that shares none pairs wherever it sorts and
    keeps no other from pairing.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    stems_a = [(p, normalize_stem(p)) for p in sorted(files_a)]
    stems_b = [(p, normalize_stem(p)) for p in sorted(files_b)]
    if threshold >= 1.0:
        # only equal stems reach 1.0: look them up, compare no pair
        paths_b: dict[str, list[str]] = {}
        for pb, sb in stems_b:
            paths_b.setdefault(sb, []).append(pb)
        candidates = [(pa, pb, sa, 1.0) for pa, sa in stems_a
                      for pb in paths_b.get(sa, ())]
    else:
        candidates = []
        for pa, sa in stems_a:
            for pb, sb in stems_b:
                # the length difference bounds the distance below; taken
                # as stem_similarity takes it, a pair at the threshold stays
                longest = max(len(sa), len(sb), 1)
                if 1.0 - abs(len(sa) - len(sb)) / longest < threshold:
                    continue
                sim = stem_similarity(sa, sb)
                if sim >= threshold:
                    candidates.append((pa, pb, sa, sim))
    shared_a = Counter(c[0] for c in candidates)
    shared_b = Counter(c[1] for c in candidates)
    candidates.sort(key=lambda c: (
        -c[3], levenshtein(c[0], c[1])
        if shared_a[c[0]] > 1 or shared_b[c[1]] > 1 else 0, c[0], c[1]))
    used_a: set[str] = set()
    used_b: set[str] = set()
    pairs = []
    for pa, pb, sa, sim in candidates:
        if pa in used_a or pb in used_b:
            continue
        used_a.add(pa)
        used_b.add(pb)
        pairs.append(FilePair(path_a=pa, path_b=pb, stem=sa, similarity=sim))
    pairs.sort(key=lambda p: (p.stem, p.path_a))
    return pairs


def _scan(root: Path, lang: str) -> list[str]:
    exts = LANG_EXTENSIONS[lang]
    root = Path(root)
    out = []
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.suffix in exts:
            out.append(p.relative_to(root).as_posix())
    return out


def pair_files(manifest: ProjectManifest, threshold: float = 1.0) -> list[FilePair]:
    """Pair files of the two trees whose stems match at or above threshold."""
    manifest.validate()
    files_a = _scan(Path(manifest.lang_a_root), manifest.lang_a)
    files_b = _scan(Path(manifest.lang_b_root), manifest.lang_b)
    return match_stems(files_a, files_b, threshold)


def write_pair_manifest(
    pairs: list[FilePair], out: Path, comments: tuple[str, ...] = ()
) -> None:
    """TSV, one pair per line: stem, path_a, path_b, similarity."""
    artifacts.write_lines(
        out, (f"{p.stem}\t{p.path_a}\t{p.path_b}\t{p.similarity!r}"
              for p in pairs), comments)


def read_pair_manifest(path: Path) -> list[FilePair]:
    return [FilePair(path_a=pa, path_b=pb, stem=stem,
                     similarity=artifacts.field(path, n, float, sim))
            for n, (stem, pa, pb, sim) in artifacts.records(path, 4)]

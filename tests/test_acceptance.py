"""Acceptance suite: nine gate criteria, one printed line each.

Each criterion times itself against its wall-clock budget and prints a
single pass/fail line (bypassing capture, so the lines show up in any
pytest run).
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from codemap.align import align_bitext, train_model1
from codemap.cli import main
from codemap.embed import (EmbeddingTable, TrainConfig, sgns_pair_grads,
                           sgns_pair_loss, train_biskip, vocab_from_bitext)
from codemap.hier import compose_corpus
from codemap.retrieve import evaluate_map
from codemap.syntax import (SymbolTable, build_symbols, extract_elements,
                            normalize, parse)

FIXTURE_CONFIG = Path(__file__).parent.parent / "fixtures" / "demo" / \
    "config.txt"


@contextmanager
def criterion(capsys, number, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < budget_s else "FAIL (over budget)"
    with capsys.disabled():
        print(f"criterion {number} ({name}): {verdict} "
              f"[{elapsed:.2f}s/{budget_s:.0f}s]")
    assert elapsed < budget_s


# ---------------------------------------------------------------------------
# 1. golden normalization


def test_criterion_1_golden_normalization(capsys):
    with criterion(capsys, 1, "golden-normalization", 1.0):
        tree = parse("int i;", "java")
        stream = normalize(tree, build_symbols(tree), structure=False)
        assert [t.text for t in stream.tokens] == ["int", "int_id"]

        symbols = SymbolTable(
            imports={"CommonTree": "Antlr.Runtime.Tree.CommonTree"})
        stream = normalize(parse("CommonTree;", "csharp"), symbols,
                           structure=False)
        assert [t.text for t in stream.tokens] == \
            ["Antlr.Runtime.Tree.CommonTree"]

        symbols = SymbolTable()
        symbols.push_scope()
        symbols.declare("lexer", "Antlr.Runtime.SlimLexer")
        stream = normalize(parse("lexer.Emit();", "csharp"), symbols,
                           structure=False)
        assert [t.text for t in stream.tokens] == \
            ["Antlr.Runtime.SlimLexer.Emit()"]

        source = ('using System;\n\nclass Program {\n'
                  '    static void Main() {\n'
                  '        Console.WriteLine("out");\n    }\n}\n')
        tree = parse(source, "csharp")
        stream = normalize(tree, build_symbols(tree))
        elements = extract_elements(tree, stream)
        statement = [e for e in elements if e.granularity == "statement"]
        assert len(statement) == 1
        tokens = [stream.tokens[k].text for k in statement[0].token_indices]
        assert tokens == ["expr_stmt", "expr", "func_call",
                          "System.Console.WriteLine(String)", "argument",
                          "literal_type", "string"]


# ---------------------------------------------------------------------------
# 2. EM correctness


def test_criterion_2_em_correctness(capsys):
    from conftest import make_toy_bitext
    with criterion(capsys, 2, "em-correctness", 10.0):
        rng = np.random.default_rng(17)
        for _ in range(50):
            bitext = make_toy_bitext(rng)
            history = []
            table = train_model1(bitext, iterations=10,
                                 log_likelihoods=history)
            assert len(history) == 10
            for before, after in zip(history, history[1:]):
                assert after >= before - 1e-9
            for source, row in table.items():
                assert abs(sum(row.values()) - 1.0) <= 1e-9, source


# ---------------------------------------------------------------------------
# 3. alignment recovery


def test_criterion_3_alignment_recovery(capsys, bijective_corpus):
    bitext, _, true_links = bijective_corpus
    with criterion(capsys, 3, "alignment-recovery", 30.0):
        predicted, _ = align_bitext(bitext, iterations=10,
                                    mode="intersection")
        truth = {s.pair_id: s.links for s in true_links}
        n_predicted = 0
        n_correct = 0
        for link_set in predicted:
            n_predicted += len(link_set.links)
            n_correct += len(link_set.links & truth[link_set.pair_id])
        assert n_predicted > 0
        precision = n_correct / n_predicted
        assert precision >= 0.95, f"precision {precision:.4f}"


# ---------------------------------------------------------------------------
# 4. SGNS gradient check


def test_criterion_4_sgns_gradient_check(capsys):
    with criterion(capsys, 4, "sgns-gradient-check", 10.0):
        rng = np.random.default_rng(23)
        eps = 1e-5
        for _ in range(100):
            size = int(rng.integers(3, 9))
            dim = int(rng.integers(2, 8))
            table = EmbeddingTable(rng.normal(size=(size, dim)),
                                   rng.normal(size=(size, dim)))
            center = int(rng.integers(0, size))
            context = int(rng.integers(0, size))
            n_neg = int(rng.integers(0, 4))
            negatives = [int(k) for k in rng.integers(0, size, n_neg)]
            grads = sgns_pair_grads(center, context, negatives, table)
            for (which, idx), grad in grads.items():
                matrix = (table.input_vecs if which == "in"
                          else table.output_vecs)
                for k in range(dim):
                    original = matrix[idx, k]
                    matrix[idx, k] = original + eps
                    up = sgns_pair_loss(center, context, negatives, table)
                    matrix[idx, k] = original - eps
                    down = sgns_pair_loss(center, context, negatives,
                                          table)
                    matrix[idx, k] = original
                    numeric = (up - down) / (2 * eps)
                    scale = max(abs(numeric), abs(grad[k]), 1e-8)
                    assert abs(numeric - grad[k]) / scale <= 1e-4


# ---------------------------------------------------------------------------
# 5. bilingual dictionary recovery


def test_criterion_5_dictionary_recovery(capsys, bijective_corpus):
    bitext, dictionary, true_links = bijective_corpus
    with criterion(capsys, 5, "dictionary-recovery", 120.0):
        cfg = TrainConfig(dim=50, epochs=10, subsample=0.0, seed=11)
        table = train_biskip(bitext, true_links, cfg)
        vocab = vocab_from_bitext(bitext)
        vecs = table.input_vecs
        unit = vecs / np.maximum(
            np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
        b_rows = [vocab.ids[t] for t in vocab.tokens
                  if t.startswith("b:")]
        b_tokens = [t for t in vocab.tokens if t.startswith("b:")]
        hits = 0
        for source, target in dictionary.items():
            sims = unit[b_rows] @ unit[vocab.ids["a:" + source]]
            hits += b_tokens[int(np.argmax(sims))] == "b:" + target
        accuracy = hits / len(dictionary)
        assert accuracy >= 0.90, f"accuracy {accuracy:.3f}"


# ---------------------------------------------------------------------------
# 6. MAP oracle equivalence


def _oracle_ap(ranked, relevant, k):
    """Brute-force AP@k, written independently of the library."""
    precisions = []
    for r in range(1, min(k, len(ranked)) + 1):
        if ranked[r - 1] in relevant:
            top = ranked[:r]
            precisions.append(
                sum(1 for item in top if item in relevant) / r)
    return sum(precisions) / min(len(relevant), k)


def test_criterion_6_map_oracle_equivalence(capsys):
    with criterion(capsys, 6, "map-oracle-equivalence", 5.0):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n_queries = int(rng.integers(1, 6))
            universe = [f"b:item{k}" for k in range(20)]
            rankings = {}
            truth = {}
            for q in range(n_queries):
                order = list(rng.permutation(20))
                depth = int(rng.integers(1, 15))
                qid = f"a:query{q}"
                rankings[qid] = [(universe[j], 1.0 - 0.01 * rank)
                                 for rank, j in enumerate(order[:depth])]
                relevant = {universe[int(j)] for j in
                            rng.integers(0, 20, int(rng.integers(1, 6)))}
                truth[qid] = relevant
            ks = sorted({int(k) for k in rng.integers(1, 13,
                                                      3)})
            report = evaluate_map(rankings, truth, ks=tuple(ks))
            for k in ks:
                expected = sum(
                    _oracle_ap([i for i, _ in rankings[qid]], truth[qid],
                               k) for qid in rankings) / n_queries
                assert abs(report.map_at_k[k] - expected) <= 1e-12


# ---------------------------------------------------------------------------
# 7. end-to-end fixture


def test_criterion_7_end_to_end_fixture(capsys, tmp_path):
    with criterion(capsys, 7, "end-to-end-fixture", 120.0):
        out = tmp_path / "demo"
        status = main(["run-all", "--config", str(FIXTURE_CONFIG),
                       "--out-dir", str(out)])
        assert status == 0
        rows = [line.split("\t") for line in
                (out / "mappings" / "token.tsv").read_text().splitlines()
                if line and not line.startswith("#")]
        top5 = [row[2] for row in rows
                if row[0] == "a:final" and int(row[1]) <= 5]
        assert "b:readonly" in top5, f"top-5 of a:final: {top5}"
        assert (out / "report.tsv").exists()


# ---------------------------------------------------------------------------
# 8. composition properties


def test_criterion_8_composition_properties(capsys):
    from codemap.embed import Vocabulary
    with criterion(capsys, 8, "composition-properties", 5.0):
        rng = np.random.default_rng(31)
        vocab = Vocabulary(
            [f"a:tok{k}" for k in range(40)])
        vectors = rng.normal(size=(40, 12))
        universe = [f"a:tok{k}" for k in range(40)] + \
            [f"a:oov{k}" for k in range(10)]
        # every case, and a shuffle of each covered one, composed in one
        # call on vocabulary ids, as the compose stage does
        elements, covered, uncovered = {}, [], []
        for case in range(1000):
            length = int(rng.integers(1, 15))
            tokens = [universe[int(j)]
                      for j in rng.integers(0, len(universe), length)]
            elements[f"case{case}"] = tokens
            if not any(t in vocab for t in tokens):
                uncovered.append(f"case{case}")
                continue
            covered.append(f"case{case}")
            elements[f"case{case}:shuffled"] = [
                tokens[int(j)] for j in rng.permutation(length)]
        token_ids = [vocab.ids.get(t, -1) for tokens in elements.values()
                     for t in tokens]
        offsets = np.cumsum([0] + [len(t) for t in elements.values()])
        ids, matrix, coverages, skipped = compose_corpus(
            list(elements), token_ids, offsets, vectors)
        assert skipped == uncovered
        composed = {element_id: (vec, coverage) for element_id, vec, coverage
                    in zip(ids, matrix, coverages)}
        for element_id in covered:
            vec, coverage = composed[element_id]
            in_vocab = [t for t in elements[element_id] if t in vocab]
            rows = vectors[[vocab.ids[t] for t in in_vocab]]
            assert np.all(vec >= rows.min(axis=0) - 1e-9)
            assert np.all(vec <= rows.max(axis=0) + 1e-9)
            assert np.linalg.norm(vec) <= \
                np.linalg.norm(rows, axis=1).max() + 1e-9
            vec2, coverage2 = composed[element_id + ":shuffled"]
            assert np.allclose(vec, vec2, atol=1e-9)
            assert coverage == coverage2


# ---------------------------------------------------------------------------
# 9. determinism


def test_criterion_9_determinism(capsys, tmp_path):
    with criterion(capsys, 9, "determinism", 240.0):
        outputs = []
        for run in ("one", "two"):
            out = tmp_path / run
            status = main(["run-all", "--config", str(FIXTURE_CONFIG),
                           "--out-dir", str(out)])
            assert status == 0
            outputs.append({name: (out / name).read_bytes()
                            for name in ("embeddings.txt",
                                         "element_vecs.txt",
                                         "report.tsv")})
        assert outputs[0] == outputs[1]

"""Taxonomy parsing, validation, and adjacency normalization."""

import numpy as np
import pytest

from htcinfomax import taxonomy as tx
from htcinfomax.taxonomy import TaxonomyError, parse_taxonomy

SAMPLE = "Root\tscience\tsports\nscience\tphysics\tbiology\nsports\tsoccer\n"


def test_parse_assigns_first_appearance_ids():
    tax = parse_taxonomy(SAMPLE)
    assert tax.labels[0] == "Root"
    assert tax.labels == ["Root", "science", "sports", "physics", "biology", "soccer"]
    assert tax.num_nodes == 6
    assert tax.num_labels == 5
    assert tax.depth == 2


def test_children_and_parents():
    tax = parse_taxonomy(SAMPLE)
    science = tax.id_of("science")
    physics = tax.id_of("physics")
    assert physics in tax.children[science]
    assert tax.parents[physics] == [science]
    assert tax.parents[tax.root] == []
    # a DAG node's parents come in the order the file lists its edges
    dag = parse_taxonomy("Root\ta\tb\nb\tc\na\tc\tx\n")
    assert dag.parents[dag.id_of("c")] == [dag.id_of("b"), dag.id_of("a")]


def test_path_to_root_excludes_the_root():
    tax = parse_taxonomy(SAMPLE)
    path = tax.path_to_root(tax.id_of("physics"))
    names = [tax.labels[i] for i in path]
    assert names == ["physics", "science"]


def test_leaves():
    tax = parse_taxonomy(SAMPLE)
    leaf_names = {tax.labels[i] for i in tax.leaves()}
    assert leaf_names == {"physics", "biology", "soccer"}


def test_target_index_excludes_root():
    tax = parse_taxonomy(SAMPLE)
    index = tax.target_index()
    assert tax.root not in index
    assert sorted(index.values()) == list(range(tax.num_labels))
    assert tax.target_names() == ["science", "sports", "physics", "biology", "soccer"]


def test_missing_root_rejected():
    with pytest.raises(TaxonomyError, match="[Rr]oot"):
        parse_taxonomy("science\tphysics\n")


def test_cycle_detected_and_named():
    text = "Root\ta\na\tb\nb\ta\n"
    with pytest.raises(TaxonomyError) as err:
        parse_taxonomy(text)
    assert "cycle" in str(err.value)
    assert "a" in str(err.value) and "b" in str(err.value)


def test_orphan_detected_and_named():
    text = "Root\ta\nb\tc\n"
    with pytest.raises(TaxonomyError) as err:
        parse_taxonomy(text)
    assert "b" in str(err.value)


def test_duplicate_edge_deduplicated(caplog):
    text = "Root\ta\ta\nRoot\ta\n"
    with caplog.at_level("WARNING"):
        tax = parse_taxonomy(text)
    assert tax.children[tax.root].count(tax.id_of("a")) == 1
    assert any("duplicate" in r.message for r in caplog.records)


def test_self_loop_is_a_cycle():
    with pytest.raises(TaxonomyError):
        parse_taxonomy("Root\ta\na\ta\n")


def test_empty_text_rejected():
    with pytest.raises(TaxonomyError):
        parse_taxonomy("")


def test_deep_chain_parses_without_recursion():
    # deeper than the interpreter's recursion limit
    text = "Root\tn1\n" + "".join(f"n{i}\tn{i + 1}\n" for i in range(1, 5000))
    tax = parse_taxonomy(text)
    assert tax.depth == 5000
    assert tax.num_labels == 5000


def test_cycle_below_a_deep_chain_is_named():
    text = "Root\tn1\n" + "".join(f"n{i}\tn{i + 1}\n" for i in range(1, 3000)) + "n3000\tn2999\n"
    with pytest.raises(TaxonomyError, match="cycle detected: n2999 -> n3000 -> n2999"):
        parse_taxonomy(text)


def test_dag_multi_parent_allowed():
    text = "Root\ta\tb\na\tc\nb\tc\n"
    tax = parse_taxonomy(text)
    c = tax.id_of("c")
    assert sorted(tax.labels[p] for p in tax.parents[c]) == ["a", "b"]
    assert tax.depth == 2


def test_normalized_adjacency_against_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        # random tree over n nodes: parent of node i is a random earlier node
        n = int(rng.integers(3, 12))
        lines = {}
        for child in range(1, n):
            parent = int(rng.integers(0, child))
            lines.setdefault(parent, []).append(child)
        names = ["Root"] + [f"x{i}" for i in range(1, n)]
        text = "".join(
            names[p] + "\t" + "\t".join(names[c] for c in kids) + "\n"
            for p, kids in sorted(lines.items())
        )
        tax = parse_taxonomy(text)

        a = np.zeros((tax.num_nodes, tax.num_nodes))
        for p, kids in lines.items():
            pid = tax.id_of(names[p])
            for c in kids:
                a[pid, tax.id_of(names[c])] = 1.0
        sym = a + a.T + np.eye(tax.num_nodes)
        d = np.diag(1.0 / np.sqrt(sym.sum(axis=1)))
        expected = d @ sym @ d

        got = tx.normalized_adjacency(tax).data
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(got, got.T, atol=1e-12)


def test_normalized_adjacency_two_nodes_exact():
    # Root-a: sym+I = [[1,1],[1,1]], degrees 2 -> every entry 0.5
    tax = parse_taxonomy("Root\ta\n")
    got = tx.normalized_adjacency(tax).data
    assert np.allclose(got, np.full((2, 2), 0.5))


def test_load_taxonomy_reads_file(tmp_path):
    path = tmp_path / "tax.txt"
    path.write_text(SAMPLE, encoding="utf-8")
    tax = tx.load_taxonomy(path)
    assert tax.num_nodes == 6


@pytest.mark.parametrize("text", ["Root\n", "Root\t\n"], ids=["bare", "empty-child"])
def test_root_without_a_label_rejected(text):
    with pytest.raises(TaxonomyError, match="taxonomy has no label under 'Root'"):
        parse_taxonomy(text)


def test_lines_end_at_newline_only():
    # str.splitlines would also break at \x0b, giving Root -> a -> b
    tax = parse_taxonomy("Root\ta\x0ba\tb\n")
    assert tax.labels == ["Root", "a\x0ba", "b"]
    assert tax.children[tax.root] == [1, 2]


def test_crlf_file_parses_like_its_lf_twin(tmp_path):
    (tmp_path / "lf.txt").write_bytes(SAMPLE.encode("utf-8"))
    (tmp_path / "crlf.txt").write_bytes(SAMPLE.replace("\n", "\r\n").encode("utf-8"))
    lf, crlf = (tx.load_taxonomy(tmp_path / name) for name in ("lf.txt", "crlf.txt"))
    assert crlf == lf
    # a lone \r is part of a label, not a line break
    (tmp_path / "cr.txt").write_bytes(b"Root\ta\rb\r\n")
    assert tx.load_taxonomy(tmp_path / "cr.txt").labels == ["Root", "a\rb"]

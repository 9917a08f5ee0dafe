import functools

import pytest

from lctw.fixtures import complete_graph, cycle_graph, petersen, separation_fixture


@pytest.fixture(scope="session")
def fig():
    g, names = separation_fixture()
    return g, names


@pytest.fixture(scope="session")
def petersen_graph():
    return petersen()


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def c5():
    return cycle_graph(5)


@pytest.fixture(scope="session")
def small_corpus():
    """Random 2-connected partial 3-trees with their generator decompositions."""
    from lctw.generate import GenSpec, generate_partial_k_tree

    out = []
    for i in range(60):
        spec = GenSpec(n=6 + i % 7, k=3, seed=9000 + i, delete_probability=0.3, require_biconnected=True)
        out.append(generate_partial_k_tree(spec))
    return out


@pytest.fixture(scope="session")
def corpus():
    """``corpus(spec, seed=0)``: the task list of a corpus spec at a seed, built
    once per session however many tests read it.  Readers share the list, so
    none may change it."""
    from lctw.harness import corpus_tasks, parse_corpus_spec

    @functools.cache
    def build(spec: str, seed: int = 0) -> list[dict]:
        return corpus_tasks(parse_corpus_spec(spec, seed=seed))

    return build

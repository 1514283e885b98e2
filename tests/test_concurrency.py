"""Two threads querying one fresh sealed store get the answers one thread gets, bit for bit."""

import sys
import threading

import numpy as np

from kghop.generator import REL_AFFILIATION, GeneratorSpec, generate
from kghop.generic import multihop_reasoning_generic
from kghop.pipeline import ThreeHopQuery, three_hop_query

# Two clients; a query3 at 2 workers starts one more thread, so at most 4 run at once.
CLIENTS = 2


def _tasks(ds):
    """(kind, args) pairs: query3 at 1 and 2 workers with both merges, and pathq, interleaved."""
    rng = np.random.default_rng(23)
    planted = np.isin(ds.heads, ds.plant_ids) & (ds.rels == REL_AFFILIATION)
    targets = [*np.unique(ds.tails[planted])[:3].tolist(),
               *rng.choice(ds.university_ids, 3).tolist()]
    anchors = [(ds.award_anchor, ds.field_anchor),
               *rng.integers(0, ds.spec.num_entities, (2, 2)).tolist()]
    tasks = []
    for (a1, a2), target in zip(anchors * 2, targets):
        q = ThreeHopQuery(a1, 0, a2, 1, 2, k=10)
        tasks += [("query3", (q, workers, merge)) for workers in (1, 2)
                  for merge in ("tree", "locked")]
        tasks.append(("pathq", (ds.award_anchor, int(target))))
    return tasks


def _answer(store, kind, args):
    """The answer as ids and float bits."""
    if kind == "query3":
        q, workers, merge = args
        res = three_hop_query(store, q, workers=workers, merge=merge)
        return (res.machine_lines(), [(p.entity, p.score.hex()) for p in res.hop1_persons])
    source, target = args
    paths = multihop_reasoning_generic(store, source, target, 3, 10)
    return [(sp.path.nodes, sp.path.relations, sp.score.hex()) for sp in paths]


def test_two_threads_on_one_fresh_store_match_the_sequential_answers():
    ds = generate(GeneratorSpec(num_entities=3000, num_persons=400, num_universities=2000,
                                num_edges=3000, seed=23, plants=5))
    tasks = _tasks(ds)
    want = [_answer(ds.build_store(), *task) for task in tasks]
    # A fresh store: its first leaf layouts are built inside the threads.
    store = ds.build_store()
    start = threading.Barrier(CLIENTS)
    got: list = [None] * CLIENTS

    def client(cid: int) -> None:
        order = list(range(len(tasks)))[::1 if cid == 0 else -1]
        start.wait(timeout=60)
        answers = {i: _answer(store, *tasks[i]) for i in order}
        got[cid] = [answers[i] for i in range(len(tasks))]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(cid,)) for cid in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * CLIENTS

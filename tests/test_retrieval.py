import hashlib
import math
import re
import tracemalloc
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxoverlap import boxes, cli, retrieval, training
from boxoverlap.boxes import HARD, BoxEmbedding, SmoothingConfig, softplus
from boxoverlap.retrieval import (
    CLONE_LIKE,
    OBLIQUE_OR_CROP_OUT,
    UNRELATED,
    ZOOM_IN,
    ZOOM_OUT,
    BoxIndex,
    QueryResult,
    RelationLabel,
    _top,
    classify_relation,
    estimate_scale,
)
from boxoverlap.training import EmbeddingTable, TrainConfig

RHO5 = SmoothingConfig(5.0)

unit = st.floats(0.0, 1.0, allow_nan=False)


def box(lower, upper):
    return BoxEmbedding(np.asarray(lower, float), np.asarray(upper, float))


def random_table(rng, n, dim):
    centers = rng.normal(0.0, 2.0, size=(n, dim))
    size_raws = rng.normal(1.0, 1.0, size=(n, dim))
    ids = [f"b{i:04d}" for i in range(n)]
    return EmbeddingTable("box", ids, np.hstack([centers, size_raws]))


def random_query(rng, dim):
    lo = rng.normal(0.0, 2.0, size=dim)
    return BoxEmbedding(lo, lo + softplus(rng.normal(1.0, 1.0, size=dim)))


# -- relation classification ---------------------------------------------------


def test_classify_reference_values():
    assert classify_relation(0.152, 0.831).label == ZOOM_IN
    assert classify_relation(0.808, 0.887).label == CLONE_LIKE
    assert classify_relation(0.853, 0.053).label == ZOOM_OUT


def test_classify_oblique_and_unrelated():
    assert classify_relation(0.2, 0.2).label == OBLIQUE_OR_CROP_OUT
    assert classify_relation(0.04, 0.04).label == UNRELATED
    assert classify_relation(0.0, 0.0).label == UNRELATED


def test_classify_rejects_out_of_range():
    with pytest.raises(ValueError):
        classify_relation(1.2, 0.5)


@given(unit, unit)
@settings(max_examples=300, deadline=None)
def test_classify_swap_symmetry(a, b):
    fwd = classify_relation(a, b).label
    rev = classify_relation(b, a).label
    swap = {ZOOM_IN: ZOOM_OUT, ZOOM_OUT: ZOOM_IN}
    assert rev == swap.get(fwd, fwd)


@given(unit, unit)
@settings(max_examples=200, deadline=None)
def test_classify_total_and_deterministic(a, b):
    first = classify_relation(a, b)
    second = classify_relation(a, b)
    assert first.label == second.label
    assert first.label in (ZOOM_IN, ZOOM_OUT, CLONE_LIKE, OBLIQUE_OR_CROP_OUT,
                           UNRELATED)


# -- scale ---------------------------------------------------------------------


def test_scale_examples():
    assert estimate_scale(0.25, 1.0, 100, 100) == pytest.approx(2.0)
    assert estimate_scale(0.4, 0.4, 640, 640) == pytest.approx(1.0)
    assert estimate_scale(0.4, 0.4, 100, 400) == pytest.approx(2.0)


def test_scale_zero_overlap():
    with pytest.raises(ValueError, match="no estimated overlap"):
        estimate_scale(0.0, 0.5, 10, 10)


@given(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0),
       st.integers(1, 10**6), st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_scale_reciprocal_symmetry(qr, rq, nq, nr):
    fwd = estimate_scale(qr, rq, nq, nr)
    rev = estimate_scale(rq, qr, nr, nq)
    assert abs(fwd * rev - 1.0) < 1e-12


# -- index ---------------------------------------------------------------------


def test_empty_index():
    table = EmbeddingTable("box", [], np.zeros((0, 8)))
    index = BoxIndex.build(table)
    assert len(index) == 0
    assert index.query_topk(box([0, 0, 0, 0], [1, 1, 1, 1]), 5) == []


@pytest.mark.parametrize("index", [
    BoxIndex([], np.zeros((0, 4)), np.zeros((0, 4))),
    BoxIndex.build(EmbeddingTable("box", [], np.zeros((0, 8)))),
], ids=["bounds", "table"])
def test_empty_index_takes_the_gallery_path(index):
    # Any warning fails a test, so each query below also runs without one.
    q = box([0, 0, 0, 0], [1, 1, 1, 1])
    for cfg in (HARD, RHO5):
        for k in (1, 10):
            assert index.query_topk(q, k, cfg) == []
            assert index.query_topk_exhaustive(q, k, cfg) == []
    # A query box is checked as on any other index.
    with pytest.raises(boxes.DegenerateBoxError, match="zero volume"):
        index.query_topk(box([0, 0, 0, 0], [1, 1, 0, 1]), 1)
    with pytest.raises(ValueError, match="dimension mismatch: 3 vs 4"):
        index.query_topk(box([0, 0, 0], [1, 1, 1]), 1)


def test_build_rejects_vector_table():
    with pytest.raises(ValueError, match="box-kind"):
        BoxIndex.build(EmbeddingTable("vector", ["a"], np.zeros((1, 4))))


def test_query_self_ranks_first():
    rng = np.random.default_rng(0)
    table = random_table(rng, 50, 6)
    index = BoxIndex.build(table)
    target = table.ids[7]
    results = index.query_topk(table.box(target), 3, HARD)
    assert results[0].id == target
    assert results[0].score == 1.0
    assert results[0].enclosure == 1.0 and results[0].concentration == 1.0


def test_k_exceeds_size_returns_all():
    rng = np.random.default_rng(1)
    table = random_table(rng, 7, 4)
    index = BoxIndex.build(table)
    results = index.query_topk(random_query(rng, 4), 100, HARD)
    assert len(results) == 7


def test_duplicate_boxes_both_returned():
    row = np.concatenate([np.zeros(3), np.ones(3)])
    table = EmbeddingTable("box", ["dup-a", "dup-b"], np.vstack([row, row]))
    index = BoxIndex.build(table)
    results = index.query_topk(table.box("dup-a"), 2, HARD)
    assert [r.id for r in results] == ["dup-a", "dup-b"]  # tie broken by id
    assert results[0].score == results[1].score == 1.0


def test_hand_placed_ordering():
    # Query [0,2]^1; gallery: same box, a half-overlapping box, a sliver.
    table = EmbeddingTable("box", ["same", "half", "sliver"], np.zeros((3, 2)))
    index = BoxIndex(
        ["same", "half", "sliver"],
        np.array([[0.0], [1.0], [1.9]]),
        np.array([[2.0], [3.0], [2.1]]),
    )
    q = box([0.0], [2.0])
    results = index.query_topk(q, 3, HARD)
    assert [r.id for r in results] == ["same", "half", "sliver"]
    assert results[1].enclosure == pytest.approx(0.5)
    assert results[1].concentration == pytest.approx(0.5)
    assert results[2].score == pytest.approx(0.5 * (0.1 / 2.0 + 0.1 / 0.2))


def random_gallery(rng):
    index = BoxIndex.build(random_table(rng, 1000, 16))
    return index, [random_query(rng, 16) for _ in range(50)]


def low_dim_gallery(dim):
    def make(rng):
        index = BoxIndex.build(random_table(rng, 300, dim))
        return index, [random_query(rng, dim) for _ in range(50)]
    return make


def overlapping_gallery(rng):
    # As in trained tables: wide boxes that all meet one another in every
    # dimension, so the key-dimension test keeps the whole gallery.
    n, dim = 200, 8
    params = np.hstack([rng.normal(0.0, 0.3, size=(n, dim)),
                        rng.normal(4.0, 0.3, size=(n, dim))])
    table = EmbeddingTable("box", [f"b{i:04d}" for i in range(n)], params)
    index = BoxIndex.build(table)
    queries = [table.box(table.ids[i]) for i in range(0, n, 10)]
    assert all(len(index._candidates(q)) == n for q in queries)
    return index, queries


def off_key_disjoint_gallery(rng):
    # Every box meets the query in dimensions 0-5, the key dimensions; every
    # other box is disjoint from the query in dimension 6.
    n = 100
    lowers = np.hstack([rng.uniform(-20.0, -1.0, size=(n, 6)), np.full((n, 2), -0.5)])
    uppers = np.hstack([rng.uniform(1.0, 20.0, size=(n, 6)), np.full((n, 2), 0.5)])
    lowers[::2, 6] += 5.0
    uppers[::2, 6] += 5.0
    index = BoxIndex([f"b{i:04d}" for i in range(n)], lowers, uppers)
    q = box([-0.5] * 8, [0.5] * 8)
    assert len(index._candidates(q)) == n
    assert sum(r.score == 0.0 for r in index.query_topk_exhaustive(q, n)) == n // 2
    return index, [q]


def quantised_gallery(rng):
    # Integer corners from a few choices: 300 boxes take 64 distinct shapes,
    # so equal boxes, and equal scores, straddle the 10th place.
    n, dim = 300, 3
    lowers = rng.integers(-1, 1, size=(n, dim)).astype(float)
    uppers = lowers + rng.integers(1, 3, size=(n, dim))
    index = BoxIndex([f"b{i:04d}" for i in range(n)], lowers, uppers)
    queries = [box(lo, lo + 1.0) for lo in rng.integers(-1, 2, size=(20, dim))]
    for cfg in (HARD, RHO5):
        full = [index.query_topk_exhaustive(q, 11, cfg) for q in queries]
        assert any(r[9].score == r[10].score for r in full)
    return index, queries


def far_gallery(rng):
    # Queries disjoint from every box: every hard score is 0, so the top k
    # are the k smallest ids.
    index = BoxIndex.build(random_table(rng, 500, 8))
    queries = [random_query(rng, 8) for _ in range(10)]
    queries = [box(q.lower + 100.0, q.upper + 100.0) for q in queries]
    assert all(r.score == 0.0 for r in index.query_topk_exhaustive(queries[0], 500))
    return index, queries


def infinite_gallery(rng):
    # Some bounds are infinite, as finite checkpoint params can make them:
    # those boxes have infinite volume and concentration 0.
    n, dim = 200, 6
    lowers, uppers = random_table(rng, n, dim).bounds()
    lowers[rng.random((n, dim)) < 0.05] = -np.inf
    uppers[rng.random((n, dim)) < 0.05] = np.inf
    index = BoxIndex([f"b{i:04d}" for i in range(n)], lowers, uppers)
    return index, [random_query(rng, dim) for _ in range(20)]


def sparse_positive_gallery(rng):
    # As in the gallery benchmark: random D=32 boxes queried by their own
    # boxes. Few rows meet a query in every dimension, so fewer than 10 score
    # above 0 and a hard top k is mostly filled with zero-score rows.
    n = 500
    table = random_table(rng, n, 32)
    index = BoxIndex.build(table)
    queries = [table.box(table.ids[i]) for i in range(0, n, 25)]
    assert all(len(index._candidates(q)) < n for q in queries)
    for q in queries:
        assert sum(r.score > 0 for r in index.query_topk_exhaustive(q, n)) < 10
    return index, queries


def zero_score_candidate_gallery(rng):
    # Two candidates score 0 with their own bits: "a" touches the query at
    # -0.0, and "b" meets it in a 2**-1074 sliver, whose half rounds to a
    # score of 0 under an enclosure of 5e-324. "c" is no candidate.
    sliver = 2.0 ** -537
    index = BoxIndex(["a", "b", "c"],
                     [[-1.0, 0.0], [-1e10, -1e10], [100.0, 100.0]],
                     [[-0.0, 1.0], [sliver, sliver], [101.0, 101.0]])
    q = box([0.0, 0.0], [1.0, 1.0])
    assert index._candidates(q).tolist() == [0, 1]
    slim = index.query_topk_exhaustive(q, 3)[1]
    assert slim.enclosure > 0.0 and slim.score == 0.0
    return index, [q]


def negative_zero_fill_gallery(rng):
    # b00 lies strictly apart from every query in the first key dimension, so
    # it is no candidate, and touches each at -0.0 in the one narrow dimension
    # 7, which is no key dimension: the exhaustive scan scores it -0.0, and a
    # hard top k must fill it so.
    n, dim = 40, 8
    lowers, uppers = random_table(rng, n, dim).bounds()
    lowers[:, 7], uppers[:, 7] = rng.uniform(-0.2, 0.0, n), rng.uniform(0.0, 0.2, n)
    lowers[0, [0, 7]], uppers[0, [0, 7]] = [100.0, -1.0], [101.0, -0.0]
    index = BoxIndex([f"b{i:02d}" for i in range(n)], lowers, uppers)
    queries = []
    for _ in range(10):
        q = random_query(rng, dim)
        queries.append(box(np.r_[q.lower[:7], 0.0], np.r_[q.upper[:7], 1.0]))
    for q in queries:
        assert 0 not in index._candidates(q)
        b00 = [r for r in index.query_topk_exhaustive(q, 10) if r.id == "b00"]
        assert [bits(r) for r in b00] == [("-0.0",) * 3]
    return index, queries


def touching_gallery(rng):
    # More than _SORT_ALL boxes meet the query only at an edge, at +0.0 or
    # -0.0, so a hard top 10 ranks more rows than _top sorts whole; 5 boxes
    # overlap it, so zero scores tie across the 10th place. 50 far boxes
    # are no candidates.
    touching, positive, far = retrieval._SORT_ALL + 20, 5, 50
    lowers = np.vstack([np.tile([1.0, 0.0], (touching // 2, 1)),
                        np.tile([-1.0, 0.0], (touching - touching // 2, 1)),
                        rng.uniform(0.0, 0.5, (positive, 2)),
                        rng.uniform(100.0, 200.0, (far, 2))])
    uppers = lowers + 1.0
    uppers[touching // 2:touching, 0] = -0.0
    order = rng.permutation(len(lowers))
    index = BoxIndex([f"b{i:04d}" for i in range(len(order))], lowers[order], uppers[order])
    q = box([0.0, 0.0], [1.0, 1.0])
    assert len(index._candidates(q)) == touching + positive
    scores = [r.score for r in index.query_topk_exhaustive(q, 11)]
    assert scores[positive - 1] > 0.0 and scores[positive:] == [0.0] * (11 - positive)
    return index, [q]


@pytest.mark.parametrize("rho", [0.0, 0.5, 5.0])
@pytest.mark.parametrize("gallery, k", [
    (random_gallery, 10),
    (overlapping_gallery, 10),
    (low_dim_gallery(1), 10),
    (low_dim_gallery(2), 10),
    (off_key_disjoint_gallery, 100),
    (quantised_gallery, 10),
    (quantised_gallery, 299),
    (quantised_gallery, 300),
    (quantised_gallery, 301),
    (far_gallery, 10),
    (infinite_gallery, 10),
    (sparse_positive_gallery, 10),
    (sparse_positive_gallery, 499),
    (sparse_positive_gallery, 500),
    (sparse_positive_gallery, 501),
    (zero_score_candidate_gallery, 2),
    (zero_score_candidate_gallery, 3),
    (negative_zero_fill_gallery, 10),
    (touching_gallery, 10),
], ids=["random", "overlapping", "d1", "d2", "off-key-disjoint", "quantised",
        "quantised-k-n-minus-1", "quantised-k-n", "quantised-k-n-plus-1", "far", "infinite",
        "sparse-positive", "sparse-positive-k-n-minus-1", "sparse-positive-k-n",
        "sparse-positive-k-n-plus-1", "zero-score-candidates-k-n-minus-1",
        "zero-score-candidates", "negative-zero-fill", "touching-past-sort-all"])
def test_index_equals_exhaustive_scan(gallery, k, rho):
    index, queries = gallery(np.random.default_rng(42))
    cfg = SmoothingConfig(rho)
    for q in queries:
        via_index = index.query_topk(q, k, cfg)
        via_scan = index.query_topk_exhaustive(q, k, cfg)
        assert via_index == via_scan
        # == takes -0.0 for 0.0; repr tells them apart.
        assert [bits(r) for r in via_index] == [bits(r) for r in via_scan]


def bits(result):
    return tuple(map(repr, (result.enclosure, result.concentration, result.score)))


# sha256 of the hard top k's ids and score bits over galleries whose queries
# keep only some rows as candidates, taken from the code that filtered on 3
# key dimensions (the exhaustive scan gives the same); it must not move.
CANDIDATE_PATH = "d5a3b32f57ad8c43fd89ebcd8c79a52929e612cb6dc9bfd24220f976822e8ef2"


def test_hard_candidate_path_pinned():
    digest, partial = hashlib.sha256(), 0
    for gallery in (random_gallery, quantised_gallery, off_key_disjoint_gallery,
                    infinite_gallery, zero_score_candidate_gallery,
                    negative_zero_fill_gallery):
        index, queries = gallery(np.random.default_rng(42))
        for q in queries:
            partial += len(index._candidates(q)) < len(index)
            for k in (1, 10, len(index) + 1):
                for r in index.query_topk(q, k, HARD):
                    digest.update(repr((r.id,) + bits(r)).encode())
    assert partial == 91
    assert digest.hexdigest() == CANDIDATE_PATH


def exact_scores(index, q, cfg):
    """index._exact_scores of the whole gallery, after the query's check."""
    return index._exact_scores(q, cfg, index._check_query(q, 1, cfg))


def test_hard_scores_are_never_nan():
    # A hard top k ranks a candidate scoring 0 or less with the non-candidates,
    # which is exact only because no hard score is NaN: the query's volume is
    # checked finite and positive, so each width of its intersection with any
    # box, infinite bounds included, lies in [0, the query's width].
    index, queries = infinite_gallery(np.random.default_rng(42))
    assert np.isinf(index.lowers).any() and np.isinf(index.uppers).any()
    for q in queries:
        for scores in exact_scores(index, q, HARD):
            assert not np.isnan(scores).any()


extreme = st.sampled_from([-np.inf, -1e300, -1.0, -0.0, 0.0, 5e-324, 1.0, 1e300, np.inf])


@given(st.data())
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_hard_scores_are_never_nan_property(data):
    dim = data.draw(st.integers(1, 3))
    corners = st.lists(st.lists(extreme, min_size=dim, max_size=dim), min_size=2, max_size=2)
    lowers, uppers = [], []
    for _ in range(data.draw(st.integers(1, 5))):
        a, b = np.array(data.draw(corners))
        lowers.append(np.minimum(a, b))
        uppers.append(np.maximum(a, b))
    index = BoxIndex([f"b{i}" for i in range(len(lowers))], lowers, uppers)
    a, b = np.array(data.draw(corners))
    try:
        scores = exact_scores(index, box(np.minimum(a, b), np.maximum(a, b)), HARD)
    except boxes.DegenerateBoxError:
        return
    for s in scores:
        assert not np.isnan(s).any()


def test_hard_query_scores_and_ranks_only_its_candidates(monkeypatch):
    # On a sparse gallery a hard top k costs what its candidates cost: it
    # scores only those that meet the query in every dimension, and the first
    # k rows, and sorts only their scores.
    rng = np.random.default_rng(47)
    table = random_table(rng, 500, 32)
    index = BoxIndex.build(table)
    scored, ranked = [], []
    real_intersection, real_argsort = boxes.intersection, np.argsort

    def intersection_spy(lower_x, upper_x, lower_y, upper_y, cfg, axis=-1):
        scored.append(len(lower_y))
        return real_intersection(lower_x, upper_x, lower_y, upper_y, cfg, axis)

    def argsort_spy(a, *args, **kwargs):
        ranked.append(len(a))
        return real_argsort(a, *args, **kwargs)

    monkeypatch.setattr(boxes, "intersection", intersection_spy)
    monkeypatch.setattr(retrieval.np, "argsort", argsort_spy)
    partial = 0
    for q in [table.box(table.ids[i]) for i in range(0, 500, 10)]:
        cand = index._candidates(q)
        partial += len(cand) < len(index)
        scored.clear()
        ranked.clear()
        results = index.query_topk(q, 10, HARD)
        met = [r for r in cand
               if ((index.lowers[r] <= q.upper) & (index.uppers[r] >= q.lower)).all()]
        want = len(set(met) | set(range(10)))
        assert scored == [want] and ranked == [want]
        assert results == index.query_topk_exhaustive(q, 10, HARD)
    assert partial == 50


def test_key_filter_tests_the_first_six_dimensions():
    # Dimensions 0-5 are the key dimensions and 6 is not. The other boxes'
    # edges spread over 10 - j units in dimension j, and each of them meets
    # the query in every dimension. Box a{j} meets it in every dimension but
    # j: a3-a5 meet it in the first 3 and are still no candidates; a6 is one,
    # and the every-dimension test drops it.
    dim = 7
    spread = np.linspace(0.1, 1.0, 20)[:, None] * (10.0 - np.arange(dim))
    lowers, uppers = [-spread], [spread]
    for j in (3, 4, 5, 6):
        lo, hi = np.full(dim, -1.0), np.full(dim, 1.0)
        lo[j], hi[j] = 2.0, 3.0
        lowers.append(lo[None])
        uppers.append(hi[None])
    ids = [f"b{i:02d}" for i in range(20)] + ["a3", "a4", "a5", "a6"]
    index = BoxIndex(ids, np.vstack(lowers), np.vstack(uppers))
    # The key rows are views of the dimension-major copies, not copies.
    assert (np.shares_memory(index._key_lo, index._lowers_t)
            and np.shares_memory(index._key_hi, index._uppers_t))
    q = box([-0.5] * dim, [0.5] * dim)
    first = [0, 1, 2]
    assert retrieval._meets(index.lowers[:, first], index.uppers[:, first],
                            q.lower[first], q.upper[first]).all()
    assert index.ids[:4] == ["a3", "a4", "a5", "a6"]
    assert index._candidates(q).tolist() == list(range(3, 24))
    for k in (10, 24):
        results = index.query_topk(q, k, HARD)
        assert [bits(r) for r in results] == [bits(r) for r in
                                               index.query_topk_exhaustive(q, k, HARD)]
        assert results == index.query_topk_exhaustive(q, k, HARD)
    assert [r.id for r in index.query_topk(q, 24)][20:] == ["a3", "a4", "a5", "a6"]


@pytest.mark.parametrize("rho", [0.0, 0.5, 5.0])
@pytest.mark.parametrize("gallery", [random_gallery, quantised_gallery,
                                     off_key_disjoint_gallery, infinite_gallery],
                         ids=["random", "quantised", "off-key-disjoint", "infinite"])
def test_dimension_major_scan_equals_row_major_scores(gallery, rho):
    # The whole-gallery scan reads the (D, n) copies of the bounds; its
    # enclosures and concentrations are the row-major exact scores, bit for bit.
    index, queries = gallery(np.random.default_rng(43))
    cfg = SmoothingConfig(rho)
    for q in queries:
        vol_q = index._check_query(q, 1, cfg)
        for scan, exact in zip(index._scan_scores(q, cfg, vol_q), exact_scores(index, q, cfg)):
            assert np.array_equal(scan, exact)


corner = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@st.composite
def integer_cases(draw, max_k=None):
    """(a, b, q_lo, width, k): a small integer gallery whose boxes span the
    rows of a and b, zero-width boxes and both signed zeros included, and a
    query [q_lo, q_lo + width]; k is at most n + 1 and max_k."""
    n = draw(st.integers(1, 30))
    dim = draw(st.integers(1, 4))
    rows = st.lists(corner, min_size=dim, max_size=dim)
    a, b = (draw(st.lists(rows, min_size=n, max_size=n)) for _ in range(2))
    q_lo = draw(rows)
    width = draw(st.integers(1, 2))
    k = draw(st.integers(1, min(n + 1, max_k or n + 1)))
    return a, b, q_lo, width, k


def integer_index(a, b):
    # Not np.minimum, which may pick either zero of a pair; lower <= upper either way.
    a, b = np.array(a), np.array(b)
    return BoxIndex([f"b{i:02d}" for i in range(len(a))], np.where(a <= b, a, b),
                    np.where(a <= b, b, a))


def assert_index_equals_exhaustive_scan(index, q, k, cfg):
    via_index = index.query_topk(q, k, cfg)
    via_scan = index.query_topk_exhaustive(q, k, cfg)
    assert via_index == via_scan
    assert [bits(r) for r in via_index] == [bits(r) for r in via_scan]
    return via_index


# A hard query that keeps the whole gallery (it meets the key dimensions'
# core) against "b01", of zero volume, which touches it at -0.0 in dimension
# 0: its intersection is -0.0 and its concentration +0.0 by the masked rule.
WHOLE_GALLERY_ZERO_VOLUME = ([[0.0, 0.0], [-1.0, 0.0]], [[1.0, 1.0], [-0.0, 0.0]], [0.0, 0.0], 1)


@given(integer_cases(), st.sampled_from([0.0, 0.5, 5.0]))
@example((*WHOLE_GALLERY_ZERO_VOLUME, 2), 0.0)
@example((*WHOLE_GALLERY_ZERO_VOLUME, 3), 0.0)
@settings(max_examples=200, deadline=None)
def test_index_equals_exhaustive_scan_property(case, rho):
    # Small integer galleries tie often; a box touching the query at -0.0
    # scores -0.0.
    a, b, q_lo, width, k = case
    q = box(q_lo, np.add(q_lo, width))
    assert_index_equals_exhaustive_scan(integer_index(a, b), q, k, SmoothingConfig(rho))


@given(integer_cases(max_k=8), st.sampled_from([0.5, 5.0]), st.integers(2, 8))
@settings(max_examples=200, deadline=None)
def test_filtered_query_equals_exhaustive_scan_property(case, rho, block):
    # With blocks of a few columns a gallery of more than one block takes
    # the float32 filter: equal boxes put equal scores across the k-th
    # place, which the exact refine must rank by ascending row.
    a, b, q_lo, width, k = case
    q = box(q_lo, np.add(q_lo, width))
    with patch.object(retrieval, "_BLOCK", block):
        assert_index_equals_exhaustive_scan(integer_index(a, b), q, k, SmoothingConfig(rho))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_nan_scores_rank_last_as_in_exhaustive_scan():
    # A query whose volume overflows divides no overlap: both paths reject it.
    big = 1e200
    index = BoxIndex(["a", "b"], [[0.0, 0.0], [-big, -big]], [[1.0, 1.0], [big, big]])
    for cfg in (HARD, RHO5):
        for query in (index.query_topk, index.query_topk_exhaustive):
            with pytest.raises(boxes.DegenerateBoxError, match="overflowing volume"):
                query(box([-big, -big], [big, big]), 2, cfg)
    # _top still sorts a NaN score last, as the full stable sort does.
    rng = np.random.default_rng(3)
    for score in (np.array([np.nan, 0.5, np.nan, 0.5, 1.0]),
                  np.array([np.nan, np.nan, 0.2]),
                  np.where(rng.random(40) < 0.3, np.nan, rng.integers(0, 4, 40) / 4.0)):
        for k in range(1, len(score) + 2):
            assert _top(score, k).tolist() == np.argsort(-score, kind="stable")[:k].tolist()
    # On either side of _SORT_ALL, where _top stops sorting every row: six
    # values, ±0.0 and NaN among them, tie across every place.
    for n in (retrieval._SORT_ALL - 1, retrieval._SORT_ALL, retrieval._SORT_ALL + 1):
        score = rng.choice([np.nan, -0.0, 0.0, 0.25, 0.5, 1.0], n)
        for k in (1, 10, n):
            assert _top(score, k).tolist() == np.argsort(-score, kind="stable")[:k].tolist()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_degenerate_query_meeting_no_box_is_rejected():
    # Far from every box, no candidate is scored, yet the query's volume is
    # checked as the exhaustive scan checks it. A zero width is degenerate
    # only when hard: rho > 0 gives it a positive volume.
    index = BoxIndex.build(random_table(np.random.default_rng(49), 50, 4))
    flat = box([100.0] * 4, [101.0, 101.0, 101.0, 100.0])
    huge = box([100.0] * 4, [1e100] * 4)
    for q, cfg, message in ((flat, HARD, "zero volume"), (huge, HARD, "overflowing volume"),
                            (huge, RHO5, "overflowing volume")):
        assert len(index._candidates(q)) == 0
        for query in (index.query_topk, index.query_topk_exhaustive):
            with pytest.raises(boxes.DegenerateBoxError, match=message):
                query(q, 10, cfg)
    assert index.query_topk(flat, 10, RHO5) == index.query_topk_exhaustive(flat, 10, RHO5)


def test_index_rejects_repeated_id():
    # Two boxes under one id would return two results under that id.
    with pytest.raises(ValueError, match="repeated image id: b1"):
        BoxIndex(["b1", "b0", "b1"], np.zeros((3, 2)), np.ones((3, 2)))


@pytest.mark.parametrize("lowers, uppers", [
    (np.zeros((2, 3)), np.ones((2, 3))),
    (np.zeros(3), np.ones(3)),
    (np.zeros((1, 3)), np.ones((1, 4))),
], ids=["two-rows-one-id", "one-dimensional", "unequal-shapes"])
def test_index_rejects_malformed_bounds(lowers, uppers):
    # Two rows for one id dropped the second; 1-D bounds raised a TypeError.
    with pytest.raises(ValueError, match=re.escape(
            f"one row per id: 1 ids, lowers {lowers.shape}, uppers {uppers.shape}")):
        BoxIndex(["a"], lowers, uppers)


@pytest.mark.parametrize("rho", [0.0, 5.0])
@pytest.mark.parametrize("dim", [1, 3, 5])
def test_query_of_another_dimension_is_rejected(dim, rho):
    # A 1-D query broadcast against all 4 dimensions, to enclosures above 1.
    index = BoxIndex.build(random_table(np.random.default_rng(48), 20, 4))
    q = box([0.0] * dim, [1.0] * dim)
    for query in (index.query_topk, index.query_topk_exhaustive):
        with pytest.raises(ValueError, match=f"dimension mismatch: {dim} vs 4"):
            query(q, 5, SmoothingConfig(rho))


@pytest.mark.parametrize("side, value", [("lower", np.nan), ("upper", np.nan), ("lower", 2.0)],
                         ids=["nan-lower", "nan-upper", "inverted"])
def test_index_rejects_nan_bound_naming_the_box(side, value):
    # A NaN bound made the hard index score 0 where the exhaustive scan scored NaN.
    lowers, uppers = np.zeros((3, 4)), np.ones((3, 4))
    {"lower": lowers, "upper": uppers}[side][1, 2] = value
    with pytest.raises(ValueError, match=r"box b1: a bound is NaN or lower > upper"):
        BoxIndex(["b2", "b1", "b0"], lowers, uppers)


@pytest.mark.filterwarnings("error")
def test_index_accepts_infinite_bounds():
    # Finite checkpoint params can make an infinite bound: its box has an
    # infinite volume, so its concentration is 0.
    lowers = np.array([[0.0, 0.0], [-np.inf, 0.0]])
    uppers = np.array([[1.0, 1.0], [1.0, np.inf]])
    index = BoxIndex(["a", "b"], lowers, uppers)
    q = box([0.0, 0.0], [1.0, 1.0])
    for cfg in (HARD, RHO5):
        results = index.query_topk(q, 2, cfg)
        assert results == index.query_topk_exhaustive(q, 2, cfg)
        assert results[1].id == "b" and results[1].concentration == 0.0


def test_infinite_bound_in_a_key_dimension_keeps_results_exact():
    # Dimension 1, a key dimension, holds -inf.
    rng = np.random.default_rng(46)
    lowers = rng.uniform(-1.0, 0.0, size=(40, 4))
    uppers = lowers + rng.uniform(0.5, 1.5, size=(40, 4))
    lowers[3, 1] = -np.inf
    index = BoxIndex([f"b{i:02d}" for i in range(40)], lowers, uppers)
    for q in [random_query(rng, 4) for _ in range(10)]:
        assert index.query_topk(q, 5, HARD) == index.query_topk_exhaustive(q, 5, HARD)


@pytest.mark.filterwarnings("error")
def test_index_over_wide_bounds_builds_without_warning():
    # Bounds of 1e200 square past the float range, and d's are infinite;
    # building the index warns of nothing.
    big = 1e200
    lowers = np.array([[0.0, -big, 0.0], [1.0, 0.0, 5.0], [2.0, big, 0.0]])
    uppers = lowers + 1.0
    lowers = np.vstack([lowers, [-np.inf, 0.0, 0.0]])
    uppers = np.vstack([uppers, [0.0, np.inf, 1.0]])
    BoxIndex(["a", "b", "c", "d"], lowers, uppers)


def test_one_index_across_smoothings():
    index, queries = random_gallery(np.random.default_rng(44))
    for rho in (5.0, 0.0, 0.5, 5.0):
        cfg = SmoothingConfig(rho)
        for q in queries[:10]:
            assert index.query_topk(q, 10, cfg) == index.query_topk_exhaustive(q, 10, cfg)


def test_gallery_volumes_computed_once_per_smoothing(monkeypatch):
    rng = np.random.default_rng(45)
    n = 2 * retrieval._BLOCK + 3  # three column blocks, the last partial
    table = random_table(rng, n, 6)
    indexes = [BoxIndex.build(table), BoxIndex.build(table)]
    fills, columns = [], Counter()
    real = boxes.volumes

    def spy(lower, upper, cfg, axis=-1, out=None):
        # A fill reads every column of an index's dimension-major bounds,
        # block by block: it is complete once n more columns are read.
        for i, ix in enumerate(indexes):
            if np.shares_memory(lower, ix._lowers_t):
                columns[i, cfg.rho] += lower.shape[1]
                if columns[i, cfg.rho] % n == 0:
                    fills.append((i, cfg.rho))
        return real(lower, upper, cfg, axis, out)

    monkeypatch.setattr(boxes, "volumes", spy)
    # The second query meets every box, so the key-dimension test keeps all rows.
    queries = [random_query(rng, 6), box([-1e3] * 6, [1e3] * 6)]
    assert len(indexes[0]._candidates(queries[0])) < len(table.ids)
    assert len(indexes[0]._candidates(queries[1])) == len(table.ids)
    for index in indexes:
        for q in queries:
            for rho in (5.0, 5.0, 0.5, 0.0, 5.0, 0.5, 0.0):
                index.query_topk(q, 10, SmoothingConfig(rho))
                index.query_topk_exhaustive(q, 10, SmoothingConfig(rho))
    # A hard query that keeps only some rows scores its candidates with fresh
    # volumes and fills nothing; the first one that keeps every row is scored
    # by the whole-gallery scan, which fills the hard volumes once per index.
    assert fills == [(0, 5.0), (0, 0.5), (0, 0.0), (1, 5.0), (1, 0.5), (1, 0.0)]
    assert set(columns.values()) == {n}


@pytest.mark.parametrize("n", [retrieval._BLOCK - 1, retrieval._BLOCK, retrieval._BLOCK + 1,
                               2 * retrieval._BLOCK + 3, 0])
def test_blocked_scan_equals_exhaustive_scan_at_block_edges(n):
    # Galleries on either side of a column-block edge, and an empty one. The
    # first query under each smoothing fills its volumes block by block;
    # every query, filling or not, gives the exhaustive scan's ids and bits.
    rng = np.random.default_rng(n)
    index = BoxIndex.build(random_table(rng, n, 32))
    assert len(index._blocks) == max(1, -(-n // retrieval._BLOCK))
    # The first query meets every box, so the hard scan reads every block too.
    queries = [box([-50.0] * 32, [50.0] * 32)] + [random_query(rng, 32) for _ in range(3)]
    for rho in (0.0, 0.5, 5.0):
        cfg = SmoothingConfig(rho)
        for q in queries:
            for k in (1, 10, n + 1):
                via_index = index.query_topk(q, k, cfg)
                via_scan = index.query_topk_exhaustive(q, k, cfg)
                assert ([(r.id,) + bits(r) for r in via_index]
                        == [(r.id,) + bits(r) for r in via_scan])
    assert sorted(cfg.rho for cfg in index._volumes) == [0.0, 0.5, 5.0]


def test_scan_and_build_memory_at_gallery_scale():
    # n=5000, D=32: one (D, n) float64 array is 1280000 bytes (1.25 MiB).
    # Measured: a smoothed top-10 after its volumes are stored peaks 0.35 MB
    # over what it started with, and the build 0.00 MB over the 5.16 MB the
    # index keeps (its bounds and their dimension-major copies).
    table = random_table(np.random.default_rng(47), 5000, 32)
    q = random_query(np.random.default_rng(48), 32)
    one = 5000 * 32 * 8
    tracemalloc.start()
    try:
        index = BoxIndex.build(table)
        kept, build_peak = tracemalloc.get_traced_memory()
        index.query_topk(q, 10, RHO5)
        tracemalloc.reset_peak()
        filled = tracemalloc.get_traced_memory()[0]
        index.query_topk(q, 10, RHO5)
        query_peak = tracemalloc.get_traced_memory()[1] - filled
    finally:
        tracemalloc.stop()
    assert query_peak < one
    assert build_peak - kept <= one


def test_smoothed_overlaps_are_capped_at_one():
    # float64 sigma is not monotone at the last bit: "a" is one ulp narrower
    # than the query, which it lies inside, yet its intersection with the
    # query's factor rounds one ulp above the query's own volume.
    index = BoxIndex(["a", "b"], [[0.0], [5.0]], [[0.9691459403650765], [6.0]])
    q = box([0.0], [0.9691459403650766])
    for query in (index.query_topk, index.query_topk_exhaustive):
        top = query(q, 2, RHO5)[0]
        assert (top.id, top.enclosure, top.concentration, top.score) == ("a", 1.0, 1.0, 1.0)
        assert classify_relation(top.enclosure, top.concentration).label == CLONE_LIKE


# -- float32 filter over galleries of more than one block -----------------------

def filter_routes(monkeypatch, index):
    """Whether the float32 filter served each smoothed query on index, in order."""
    taken = []
    real = index._filtered

    def spy(*args):
        rows = real(*args)
        taken.append(rows is not None)
        return rows

    monkeypatch.setattr(index, "_filtered", spy)
    return taken


def one_ulp_gallery():
    # 100 boxes, equal but for one upper bound a few ulps past the query's,
    # score within ulps of 1; 1050 others lie apart. k puts the k-th place
    # between two scores one float64 ulp apart, which float32 cannot order.
    rng = np.random.default_rng(50)
    far = rng.uniform(3.0, 6.0, (1050, 4))
    lowers = np.vstack([far, np.zeros((100, 4))])
    uppers = np.vstack([far + rng.uniform(0.5, 2.0, (1050, 4)), np.ones((100, 4))])
    uppers[1050:, 0] += np.arange(100) * 2.0 ** -52
    order = rng.permutation(len(lowers))
    index = BoxIndex([f"b{i:04d}" for i in range(len(order))], lowers[order], uppers[order])
    q = box([0.0] * 4, [1.0] * 4)
    score = [r.score for r in index.query_topk_exhaustive(q, 200, RHO5)]
    ks = [i + 1 for i in range(199) if np.nextafter(score[i + 1], np.inf) == score[i]]
    assert len(ks) >= 3
    return index, [(q, k) for k in ks[:3]], RHO5


def underflow_gallery():
    # A point query inside boxes 20 and 30 rho wide in all 32 dimensions:
    # 0.5 rho^D / vol_r is subnormal and 0 in float32 (vol_r / vol_q passes
    # 2^140), while their enclosure is 1.
    rng = np.random.default_rng(51)
    lowers, uppers = random_table(rng, 1100, 32).bounds()
    lowers[[3, 700]], uppers[[3, 700]] = -50.0, 50.0
    lowers[1090], uppers[1090] = -75.0, 75.0
    index = BoxIndex([f"b{i:04d}" for i in range(1100)], lowers, uppers)
    return index, [(box([0.0] * 32, [0.0] * 32), k) for k in (1, 3, 10)], RHO5


def rho_half_gallery():
    # Boxes near one another: at rho 0.5 the k-th score stays far from 0.
    rng = np.random.default_rng(52)
    params = np.hstack([rng.normal(0.0, 0.5, (1100, 8)), rng.normal(1.0, 1.0, (1100, 8))])
    table = EmbeddingTable("box", [f"b{i:04d}" for i in range(1100)], params)
    return (BoxIndex.build(table), [(table.box(table.ids[i]), 10) for i in range(0, 1100, 110)],
            SmoothingConfig(0.5))


@pytest.mark.parametrize("gallery", [one_ulp_gallery, underflow_gallery, rho_half_gallery],
                         ids=["one-ulp-kth", "underflow", "rho-half"])
def test_filter_serves_edge_cases_as_the_exhaustive_scan(monkeypatch, gallery):
    index, queries, cfg = gallery()
    taken = filter_routes(monkeypatch, index)
    for q, k in queries:
        results = assert_index_equals_exhaustive_scan(index, q, k, cfg)
        if gallery is underflow_gallery:
            # The three tie at 0.5: their concentrations vanish beside 1.
            assert [r.id for r in results[:3]] == ["b0003", "b0700", "b1090"][:k]
            assert {(r.enclosure, r.score) for r in results[:3]} == {(1.0, 0.5)}
    assert taken == [True] * len(queries)
    if gallery is underflow_gallery:
        half = index._float32[cfg][-1]
        assert 0.0 < half[3] == half[700] < np.finfo(np.float32).tiny and half[1090] == 0.0


def far_bound_gallery(bound):
    def make():
        rng = np.random.default_rng(53)
        lowers, uppers = random_table(rng, 1100, 8).bounds()
        lowers[5, 2], uppers[9, 4] = -bound, bound
        index = BoxIndex([f"b{i:04d}" for i in range(1100)], lowers, uppers)
        return index, [(random_query(rng, 8), 10) for _ in range(3)], RHO5
    return make


def far_query_gallery():
    # The query's own bounds near 1e30: their float32 rounding alone passes the band.
    rng = np.random.default_rng(54)
    index = BoxIndex.build(random_table(rng, 1100, 8))
    q = random_query(rng, 8)
    return index, [(box(q.lower + 1e30, q.upper + 1e30), 10), (box(q.lower, q.upper + 1e30), 10)], RHO5


def faint_gallery():
    # Random D=32 boxes at rho 0.5: these queries' k-th scores, about 2^-104
    # to 2^-109, are too close to 0 for float32 products to keep every
    # factor normal, yet not so close that the threshold rounds to 0.
    rng = np.random.default_rng(55)
    table = random_table(rng, 1100, 32)
    return (BoxIndex.build(table), [(table.box(table.ids[i]), 10) for i in (0, 100, 400)],
            SmoothingConfig(0.5))


def wide_query_gallery():
    # D=200 at rho 0.5: the query's product of softplus factors, about
    # 2^1092, passes the float32 range and even float64's, though its volume
    # is finite.
    rng = np.random.default_rng(58)
    lowers = rng.normal(0.0, 1.0, (1100, 200))
    index = BoxIndex([f"b{i:04d}" for i in range(1100)], lowers, lowers + 1.0)
    return index, [(box([-11.0] * 200, [11.0] * 200), 10)], SmoothingConfig(0.5)


def tied_gallery():
    # 1100 equal boxes tie at every place: the filter would keep every row.
    index = BoxIndex([f"b{i:04d}" for i in range(1100)], np.zeros((1100, 3)), np.ones((1100, 3)))
    return index, [(box([0.5] * 3, [2.0] * 3), 10)], RHO5


def wide_k_gallery():
    rng = np.random.default_rng(56)
    index = BoxIndex.build(random_table(rng, 1100, 8))
    return index, [(random_query(rng, 8), retrieval._BLOCK + 1)], RHO5


@pytest.mark.parametrize("gallery", [far_bound_gallery(1e30), far_bound_gallery(np.inf),
                                     far_query_gallery, faint_gallery, wide_query_gallery,
                                     tied_gallery, wide_k_gallery],
                         ids=["bound-1e30", "bound-inf", "query-1e30", "faint-kth",
                              "query-volume", "tied", "k-past-block"])
def test_filter_falls_back_where_it_cannot_certify(monkeypatch, gallery):
    index, queries, cfg = gallery()
    taken = filter_routes(monkeypatch, index)
    for q, k in queries:
        assert_index_equals_exhaustive_scan(index, q, k, cfg)
    assert taken == [False] * len(queries)


def test_softplus32_error_within_the_filter_constant():
    # The filter trusts boxes.softplus32 on the x of every row it may keep:
    # from ln(0.5 / _F32_RANGE), below which a factor is under 1 /
    # _F32_RANGE, up to _WIDTH_MAX. A dense grid, the float32 neighbours of
    # both ends and random float32 bit patterns between them (every binade
    # near 0) are checked against float64 sigma at rho 1, which is softplus
    # within a few 2^-53.
    lo = np.float32(math.log(0.5 / retrieval._F32_RANGE))
    hi = np.float32(retrieval._WIDTH_MAX)
    rng = np.random.default_rng(57)
    bits = np.concatenate([rng.integers(0, lo.view(np.int32) & 0x7FFFFFFF, 500_000),
                           rng.integers(0, hi.view(np.int32), 500_000)]).astype(np.int32)
    bits[:500_000] |= np.int32(-2 ** 31)
    x = np.concatenate([np.linspace(lo, hi, 2_000_001, dtype=np.float32), bits.view(np.float32),
                        np.nextafter([lo, lo, hi, hi], [-np.inf, np.inf, -np.inf, np.inf],
                                     dtype=np.float32)])
    assert x.min() < lo and x.max() > hi
    got = boxes.softplus32(x.copy()).astype(np.float64)
    want = boxes.sigma(x.astype(np.float64), SmoothingConfig(1.0))
    rel = np.abs(got / want - 1.0)
    assert 0.0 < rel.max() <= retrieval._SOFTPLUS32_ERR


def test_filter_memory_at_gallery_scale():
    # n=5000, D=32. The first smoothed query stores the filter's float32
    # data: the bounds over rho, two (D, n) arrays, and one (n,) array. A
    # filtered query then peaks at two (D, _BLOCK) float32 arrays, an edge
    # block and its temporary, with the (n,) float32 scores, argpartition's
    # (n,) indices and 64 KiB for the rest.
    n, dim = 5000, 32
    table = random_table(np.random.default_rng(47), n, dim)
    q = random_query(np.random.default_rng(48), dim)
    tracemalloc.start()
    try:
        index = BoxIndex.build(table)
        index._stored_volumes(RHO5)
        before = tracemalloc.get_traced_memory()[0]
        index.query_topk(q, 10, RHO5)
        filled = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        index.query_topk(q, 10, RHO5)
        query_peak = tracemalloc.get_traced_memory()[1] - filled
    finally:
        tracemalloc.stop()
    assert index._filtered(q, RHO5, index._check_query(q, 10, RHO5), 10) is not None
    assert filled - before <= 2 * dim * n * 4 + n * 4 + 8192
    assert query_peak <= 2 * dim * retrieval._BLOCK * 4 + n * (4 + 8) + 65536


def test_stored_volumes_score_as_the_exhaustive_scan():
    # Every query keeps the whole gallery, so each is scored by the scan over
    # stored volumes. Hard, "z" has zero width in dimension 1 and touches the
    # queries at -0.0 in dimension 0, so its volume is 0 and its intersection
    # -0.0: the masked rule gives it a concentration of +0.0, where dividing
    # by 0 would give NaN and by inf -0.0. "w" has an infinite volume at
    # every smoothing. Smoothed, every volume is positive.
    index = BoxIndex(["a", "w", "z"],
                     [[0.0, 0.0], [-np.inf, 0.5], [-1.0, 0.5]],
                     [[1.0, 1.0], [0.5, np.inf], [-0.0, 0.5]])
    queries = [box([0.0, 0.0], [1.0, 1.0]), box([0.0, 0.25], [2.0, 0.75])]
    assert all(len(index._candidates(q)) == len(index) for q in queries)
    for rho in (0.0, 0.5, 5.0, 0.0, 5.0, 0.5):
        cfg = SmoothingConfig(rho)
        for q in queries:
            via_index = index.query_topk(q, 3, cfg)
            via_scan = index.query_topk_exhaustive(q, 3, cfg)
            assert [bits(r) for r in via_index] == [bits(r) for r in via_scan]
            assert via_index == via_scan
    assert {cfg.rho: masked for cfg, (_, masked) in index._volumes.items()} == {
        0.0: True, 0.5: False, 5.0: False}
    z = [r for r in index.query_topk(queries[0], 3) if r.id == "z"]
    assert [bits(r) for r in z] == [("-0.0", "0.0", "0.0")]


def test_index_bounds_read_only():
    table = random_table(np.random.default_rng(46), 10, 3)
    lowers, uppers = table.bounds()
    index = BoxIndex(table.ids, lowers, uppers)
    for bounds in (index.lowers, index.uppers):
        with pytest.raises(ValueError, match="read-only"):
            bounds[0, 0] = 0.0
    lowers[0, 0] = 0.0  # the caller's arrays stay writable


def test_query_k_validation():
    table = random_table(np.random.default_rng(0), 5, 3)
    with pytest.raises(ValueError):
        BoxIndex.build(table).query_topk(random_query(np.random.default_rng(1), 3), 0)


def test_index_insertion_order_independent():
    rng = np.random.default_rng(5)
    table = random_table(rng, 40, 6)
    perm = rng.permutation(40)
    lowers, uppers = table.bounds()
    a = BoxIndex(table.ids, lowers, uppers)
    b = BoxIndex([table.ids[i] for i in perm], lowers[perm], uppers[perm])
    q = random_query(rng, 6)
    assert a.query_topk(q, 10, HARD) == b.query_topk(q, 10, HARD)


def core_gallery():
    # Wide boxes that all meet one another, as in trained tables. Dimensions
    # 0-5 are the key dimensions and 6-7 are not; dimension j spreads over
    # 8 - j units.
    # b00's upper bound in dimension 0 is -0.0, the smallest there; b01's
    # lower bound in dimension 1, 0.75, is the largest there.
    rng = np.random.default_rng(48)
    n, dim = 20, 8
    scale = 8.0 - np.arange(dim)
    lowers = -rng.uniform(1.0, 3.0, size=(n, dim)) * scale
    uppers = rng.uniform(1.0, 3.0, size=(n, dim)) * scale
    lowers[0, 0], uppers[0, 0] = -5.0, -0.0
    lowers[1, 1] = 0.75
    return BoxIndex([f"b{i:02d}" for i in range(n)], lowers, uppers)


def edge_query(dim, lower=None, upper=None):
    """A query box meeting every box of core_gallery, one edge moved."""
    lo, hi = np.full(8, -0.5), np.full(8, 1.0)
    if lower is not None:
        lo[dim], hi[dim] = lower, lower + 1.0
    else:
        lo[dim], hi[dim] = upper - 1.0, upper
    return box(lo, hi)


def spy_meets(monkeypatch):
    """The shape of the boxes' lower bounds in each retrieval._meets call."""
    tested, real = [], retrieval._meets

    def spy(lowers, uppers, q_lo, q_hi, axis=1):
        tested.append(np.shape(lowers))
        return real(lowers, uppers, q_lo, q_hi, axis)

    monkeypatch.setattr(retrieval, "_meets", spy)
    return tested


@pytest.mark.parametrize("touch, past, dropped", [
    # The query's lower bound +0.0 touches b00's upper bound -0.0; one ulp up it
    # lies past it.
    (edge_query(0, lower=0.0), edge_query(0, lower=np.nextafter(0.0, 1.0)), "b00"),
    # The query's upper bound touches b01's lower bound; one ulp down it lies short.
    (edge_query(1, upper=0.75), edge_query(1, upper=np.nextafter(0.75, 0.0)), "b01"),
], ids=["lower-touches-smallest-upper", "upper-touches-largest-lower"])
def test_core_shortcut_edges(monkeypatch, touch, past, dropped):
    # A query that meets the key dimensions' core, edges included, keeps every
    # row untested and takes the whole-gallery scan; one ulp past the core it
    # takes the key test and scores only its rows. Both answer as the
    # exhaustive scan, bit for bit.
    index = core_gallery()
    tested, routes = spy_meets(monkeypatch), []
    real_rows = BoxIndex._rows

    def rows_spy(self, *args):
        rows = real_rows(self, *args)
        routes.append(rows is not None)
        return rows

    monkeypatch.setattr(BoxIndex, "_rows", rows_spy)
    n = len(index)
    rest = [r for r in range(n) if index.ids[r] != dropped]
    for q, candidates, key_tests, scored_rows in [(touch, list(range(n)), [(6,)], False),
                                                  (past, rest, [(6,), (6, n), (n - 1, 8)], True)]:
        assert index._candidates(q).tolist() == candidates
        tested.clear()
        routes.clear()
        results = index.query_topk(q, n, HARD)
        assert tested == key_tests and routes == [scored_rows]
        exhaustive = index.query_topk_exhaustive(q, n, HARD)
        assert results == exhaustive
        assert [bits(r) for r in results] == [bits(r) for r in exhaustive]


def test_whole_gallery_hard_query_makes_no_key_test(monkeypatch):
    # On a table whose boxes all meet one another, as trained tables' do, a
    # hard query meets the key dimensions' core: it compares its 6 key bounds
    # with the core's and never the gallery's (6, n) key rows.
    index, queries = overlapping_gallery(np.random.default_rng(42))
    tested = spy_meets(monkeypatch)
    for q in queries:
        assert index.query_topk(q, 10, HARD) == index.query_topk_exhaustive(q, 10, HARD)
    assert tested == [(6,)] * len(queries)


def test_result_records_are_immutable_values():
    result = QueryResult("b01", 0.5, 0.25, 0.375)
    label = classify_relation(0.152, 0.831)
    assert QueryResult._fields == ("id", "enclosure", "concentration", "score")
    assert RelationLabel._fields == ("label",)
    for record, field in ((result, "score"), (label, "label")):
        with pytest.raises(AttributeError):
            setattr(record, field, "x")
        with pytest.raises(AttributeError):
            record.extra = 1
    same = QueryResult("b01", 0.5, 0.25, 0.375)
    assert result == same and hash(result) == hash(same)
    assert result != QueryResult("b01", 0.5, 0.25, 0.0)
    assert label == RelationLabel(ZOOM_IN) and hash(label) == hash(RelationLabel(ZOOM_IN))
    assert label != RelationLabel(ZOOM_OUT)
    assert len({result, same, label, RelationLabel(ZOOM_IN)}) == 2


# sha256 of `boxoverlap query` output over two checkpoints, hard and smoothed,
# taken from the code whose results were frozen dataclasses; it must not move.
QUERY_LINES = "c6966ec7f459b2a4fdd0f48a642297de141e46da95a1100c738f4f26f32ee968"


def test_query_json_lines_pinned(tmp_path):
    # One table keeps ascending ids and its hard queries take the candidate
    # path; the other lists its ids in reverse and every query keeps every row.
    rng = np.random.default_rng(49)
    n, dim = 40, 8
    sparse = random_table(rng, n, dim)
    wide = EmbeddingTable("box", [f"w{i:02d}" for i in reversed(range(n))],
                          np.hstack([rng.normal(0.0, 0.3, size=(n, dim)),
                                     rng.normal(4.0, 0.3, size=(n, dim))]))
    digest = hashlib.sha256()
    for name, table in (("sparse", sparse), ("wide", wide)):
        ckpt = tmp_path / f"{name}.npz"
        training.save_checkpoint(ckpt, table, TrainConfig(dim=dim), step=0)
        for hard in ([], ["--hard"]):
            out = tmp_path / f"{name}{len(hard)}.jsonl"
            assert cli.main(["query", "--checkpoint", str(ckpt), "--query-id", table.ids[7],
                             "--k", str(n), "--output", str(out), *hard]) == 0
            digest.update(out.read_bytes())
    assert digest.hexdigest() == QUERY_LINES

import numpy as np
import pytest

from kduda.data import (
    DomainPair,
    batches,
    gen_blob_shift,
    simplex_vertices,
    stack_pairs,
    standardize,
)
from kduda.errors import ParameterError, ShapeError


class TestSimplexVertices:
    def test_unit_circumradius_and_centering(self):
        for c, d in ((2, 2), (3, 2), (4, 5)):
            v = simplex_vertices(c, d)
            assert v.shape == (c, d)
            np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(v.mean(axis=0), 0.0, rtol=0, atol=1e-12)

    def test_all_pairwise_distances_equal(self):
        v = simplex_vertices(4, 6)
        dists = [np.linalg.norm(v[i] - v[j])
                 for i in range(4) for j in range(i + 1, 4)]
        np.testing.assert_allclose(dists, dists[0], rtol=1e-9)

    def test_extra_dimensions_stay_zero(self):
        v = simplex_vertices(3, 5)
        np.testing.assert_array_equal(v[:, 2:], 0.0)

    def test_too_many_vertices(self):
        with pytest.raises(ParameterError):
            simplex_vertices(4, 2)


class TestBlobShift:
    def test_shapes_and_class_counts(self):
        pair = gen_blob_shift(400, 3, 2, 3.0, 1.0, seed=0)
        assert pair.xs.shape == (400, 2)
        assert pair.xt.shape == (400, 2)
        np.testing.assert_array_equal(np.bincount(pair.ys), [134, 133, 133])
        np.testing.assert_array_equal(np.bincount(pair.yt_eval), [134, 133, 133])

    def test_source_class_means_match_construction(self):
        pair = gen_blob_shift(2000, 3, 2, 3.0, 1.0, seed=1)
        expected = simplex_vertices(3, 2) * 3.0
        for c in range(3):
            rows = pair.xs[pair.ys == c]
            se = 1.0 / np.sqrt(rows.shape[0])
            np.testing.assert_allclose(rows.mean(axis=0), expected[c],
                                       rtol=0, atol=5 * se)

    def test_target_offset_is_shared_and_has_requested_norm(self):
        pair = gen_blob_shift(3000, 3, 2, 2.5, 1.0, seed=2)
        diffs = []
        for c in range(3):
            src = pair.xs[pair.ys == c].mean(axis=0)
            tgt = pair.xt[pair.yt_eval == c].mean(axis=0)
            diffs.append(tgt - src)
        diffs = np.stack(diffs)
        np.testing.assert_allclose(diffs - diffs.mean(axis=0), 0.0, rtol=0, atol=0.2)
        np.testing.assert_allclose(np.linalg.norm(diffs.mean(axis=0)), 2.5,
                                   rtol=0, atol=0.1)

    def test_zero_shift_keeps_class_means_in_place(self):
        pair = gen_blob_shift(3000, 3, 2, 0.0, 1.0, seed=3)
        for c in range(3):
            src = pair.xs[pair.ys == c].mean(axis=0)
            tgt = pair.xt[pair.yt_eval == c].mean(axis=0)
            np.testing.assert_allclose(src, tgt, rtol=0, atol=0.2)

    def test_scale_widens_target_classes(self):
        pair = gen_blob_shift(3000, 2, 2, 0.0, 2.0, seed=4)
        for c in range(2):
            sd = pair.xt[pair.yt_eval == c].std(axis=0)
            np.testing.assert_allclose(sd, 2.0, rtol=0, atol=0.2)

    def test_shift_degrades_a_source_fit_classifier(self):
        # nearest class mean stands in for any source-only decision rule
        def acc(means, x, y):
            d = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
            return float((d.argmin(axis=1) == y).mean())

        drops = []
        for seed in range(10):
            pair = gen_blob_shift(400, 3, 2, 3.0, 1.0, seed=seed)
            means = np.stack([pair.xs[pair.ys == c].mean(axis=0) for c in range(3)])
            src = acc(means, pair.xs, pair.ys)
            assert src >= 0.95
            drops.append(src - acc(means, pair.xt, pair.yt_eval))
        assert float(np.mean(drops)) > 0.10

    def test_determinism(self):
        a = gen_blob_shift(100, 3, 4, 1.0, 1.5, seed=5)
        b = gen_blob_shift(100, 3, 4, 1.0, 1.5, seed=5)
        assert a.xs.tobytes() == b.xs.tobytes()
        assert a.xt.tobytes() == b.xt.tobytes()

    def test_validation(self):
        with pytest.raises(ParameterError):
            gen_blob_shift(2, 3, 2, 1.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            gen_blob_shift(100, 1, 2, 1.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            gen_blob_shift(100, 3, 1, 1.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            gen_blob_shift(100, 3, 2, 1.0, 0.0, seed=0)


class TestDomainPair:
    def test_empty_eval_labels_are_rejected(self):
        # every trainer evaluates the target domain, so a pair without its
        # labels would fail there after a whole epoch of training
        with pytest.raises(ShapeError, match="target eval labels"):
            DomainPair(np.zeros((4, 2)), np.zeros(4, dtype=np.intp),
                       np.zeros((5, 2)), np.array([], dtype=np.intp))

    def test_validation(self):
        with pytest.raises(ShapeError):
            DomainPair(np.zeros((4, 2)), np.zeros(4, dtype=np.intp),
                       np.zeros((5, 3)), np.zeros(5, dtype=np.intp))
        with pytest.raises(ShapeError):
            DomainPair(np.zeros((4, 2)), np.zeros(3, dtype=np.intp),
                       np.zeros((5, 2)), np.zeros(5, dtype=np.intp))
        # eval labels for all but one target row fail here, not after an
        # epoch of training in the evaluation
        with pytest.raises(ShapeError, match="target eval labels"):
            DomainPair(np.zeros((40, 2)), np.zeros(40, dtype=np.intp),
                       np.zeros((40, 2)), np.zeros(39, dtype=np.intp))


class TestStandardize:
    def test_source_moments_after_transform(self):
        pair = gen_blob_shift(500, 3, 2, 2.0, 1.5, seed=6)
        std = standardize(pair)
        np.testing.assert_allclose(std.xs.mean(axis=0), 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(std.xs.std(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_target_uses_source_statistics(self):
        pair = gen_blob_shift(500, 3, 2, 2.0, 1.5, seed=6)
        std = standardize(pair)
        mu = pair.xs.mean(axis=0)
        sd = pair.xs.std(axis=0)
        np.testing.assert_array_equal(std.xt, (pair.xt - mu) / sd)

    def test_original_pair_is_untouched(self):
        pair = gen_blob_shift(100, 2, 2, 1.0, 1.0, seed=7)
        before = pair.xs.copy()
        standardize(pair)
        np.testing.assert_array_equal(pair.xs, before)

    def test_constant_coordinate_keeps_scale(self):
        xs = np.column_stack([np.arange(6, dtype=float), np.full(6, 2.0)])
        xt = np.column_stack([np.arange(4, dtype=float), np.full(4, 3.0)])
        pair = DomainPair(xs, np.zeros(6, dtype=np.intp), xt,
                          np.zeros(4, dtype=np.intp))
        std = standardize(pair)
        np.testing.assert_allclose(std.xs[:, 1], 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(std.xt[:, 1], 1.0, rtol=0, atol=1e-12)

    def test_each_stacked_cell_is_standardized_on_its_own(self):
        pairs = [gen_blob_shift(100, 3, 2, 2.0, 1.5, seed=s) for s in (8, 9)]
        std = standardize(stack_pairs(pairs))
        for cell, pair in enumerate(pairs):
            one = standardize(pair)
            assert std.xs[cell].tobytes() == one.xs.tobytes()
            assert std.xt[cell].tobytes() == one.xt.tobytes()


def _indexed_pair(ns, nt):
    """Inputs carry their own index so batch membership is easy to audit."""
    xs = np.arange(ns, dtype=float).reshape(ns, 1)
    xt = np.arange(nt, dtype=float).reshape(nt, 1) + 1000.0
    ys = np.arange(ns, dtype=np.intp) % 3
    yt = np.zeros(nt, dtype=np.intp)
    return DomainPair(xs, ys, xt, yt)


class TestBatches:
    def test_counts_and_shapes(self):
        pair = _indexed_pair(100, 100)
        out = batches(pair, 10, epoch=0, seed=1)
        assert len(out) == 10
        for xb, yb, tb in out:
            assert xb.shape == (10, 1)
            assert yb.shape == (10,)
            assert tb.shape == (10, 1)

    def test_every_source_sample_appears_exactly_once(self):
        pair = _indexed_pair(37, 20)
        out = batches(pair, 5, epoch=3, seed=1)
        seen = np.concatenate([xb[:, 0] for xb, _, _ in out])
        np.testing.assert_array_equal(np.sort(seen), np.arange(37, dtype=float))

    def test_labels_travel_with_their_rows(self):
        pair = _indexed_pair(30, 30)
        for xb, yb, _ in batches(pair, 7, epoch=0, seed=2):
            np.testing.assert_array_equal(yb, xb[:, 0].astype(np.intp) % 3)

    def test_partial_final_batch(self):
        pair = _indexed_pair(10, 10)
        out = batches(pair, 4, epoch=0, seed=3)
        assert [xb.shape[0] for xb, _, _ in out] == [4, 4, 2]
        assert [tb.shape[0] for _, _, tb in out] == [4, 4, 2]

    def test_target_wraps_cyclically_when_smaller(self):
        pair = _indexed_pair(8, 3)
        out = batches(pair, 4, epoch=0, seed=4)
        tgt = np.concatenate([tb[:, 0] for _, _, tb in out])
        counts = {v: int((tgt == v).sum()) for v in np.unique(tgt)}
        assert len(counts) == 3
        assert sorted(counts.values()) == [2, 3, 3]

    @pytest.mark.parametrize("ns,nt,batch", [(8, 3, 4), (37, 20, 5), (20, 37, 6),
                                             (10, 10, 10), (9, 1, 2)])
    def test_target_indices_match_the_per_sample_wrap(self, ns, nt, batch):
        # reference: the target index of the k-th sample of the batch at
        # `start` is tgt_order[(start + k) % nt], taken one sample at a time
        pair = _indexed_pair(ns, nt)
        rng = np.random.default_rng([7, 2])
        rng.permutation(ns)
        tgt_order = rng.permutation(nt)
        out = batches(pair, batch, epoch=2, seed=7)
        for b_idx, (_, _, tb) in enumerate(out):
            start = b_idx * batch
            expected = [tgt_order[(start + k) % nt] for k in range(tb.shape[0])]
            np.testing.assert_array_equal(tb[:, 0], np.asarray(expected) + 1000.0)

    def test_same_epoch_reproduces_same_batches(self):
        pair = _indexed_pair(50, 40)
        a = batches(pair, 8, epoch=5, seed=9)
        b = batches(pair, 8, epoch=5, seed=9)
        for (xa, ya, ta), (xb, yb, tb) in zip(a, b):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)
            np.testing.assert_array_equal(ta, tb)

    def test_successive_epochs_reshuffle(self):
        pair = _indexed_pair(50, 40)
        a = batches(pair, 8, epoch=5, seed=9)
        b = batches(pair, 8, epoch=6, seed=9)
        assert any(not np.array_equal(xa, xb)
                   for (xa, _, _), (xb, _, _) in zip(a, b))

    def test_validation(self):
        pair = _indexed_pair(10, 10)
        with pytest.raises(ParameterError):
            batches(pair, 11, epoch=0, seed=0)
        with pytest.raises(ParameterError):
            batches(pair, 0, epoch=0, seed=0)
        with pytest.raises(ParameterError):
            batches(pair, 5, epoch=-1, seed=0)


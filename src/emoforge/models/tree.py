"""CART-style decision trees over flat node arrays.

Classification trees split on Gini impurity and keep class distributions at
the leaves; regression trees split on variance and keep means. Candidate
thresholds are midpoints between consecutive distinct sorted feature values
a < b, or a itself where the midpoint 0.5 * (a + b) is not in [a, b) (NaN
for -inf and +inf, +inf when the sum overflows, b for adjacent floats), so no
split empties a child. Equal-gain ties resolve to the lowest feature index,
then the lowest threshold, and a split needs a strictly positive gain.

Boosting grows its regression trees one at a time with ``grow_tree`` on
``presort(X)``, computed once per fit: per column, the row indices in stable
sorted order and the values in that order. Each node carries its share down
the tree, a split hands each child the entries of its own rows in the same
order, and a child at ``max_depth`` gets none, as it is never searched.
(Filtering each node's rows out of the whole presort reads all of X at every
node: boosting on a 1000 x 2000 matrix fitted 1.1x slower at depth 3, 1.7x
at depth 6.) A random forest grows its classification trees in lockstep with
``grow_forest``: each tree reads X through its sample indices and keeps its
own depth-first stack, so its node numbering and its generator's draws are
those of growing it alone, and each step sorts the columns that the next
node of every unfinished tree draws, all at once. A lone node costs dozens
of small numpy calls, whatever its size: grown node by node, the forest
fitted about 2x slower on a 96 x 44 matrix. Batching a boosting round's
trees was not faster, as their nodes are bound by data.

The search scores only the valid positions of a column: those between two
distinct sorted values that leave ``min_samples_leaf`` (at least 1) rows on
each side (a small share of a TFIDF column with two to four distinct
values), and scatters their gains into a -inf (columns x positions) matrix
for the first-max rules. Every sum runs in the order a one-column search
would use, so trees match it bit for bit: class counts are exact integers
(the forest's are bit fields of one integer cumulative sum), a position's
class terms are summed along the last axis, each column's regression parent
variance is reduced over its contiguous sorted row, and a node's mean and
variance are the ``np.add.reduce`` sums of ``np.mean`` and ``np.var``.

Memory: a presort takes 1.5 x X.nbytes (int32 row indices), built a block
of columns at a time, and a growing tree adds at most 3 x X.nbytes of
carried shares (pending nodes hold disjoint rows, and a split fills its
children before its own share goes). A forest holds one transposed copy of
X, whatever its tree count. Each search or partition handles at most
``_BLOCK_ELEMENTS`` (nodes x rows x columns x classes) entries at a time, in
about twenty arrays. On a 300 x 2000 TFIDF-like matrix with 2**14-entry
blocks, a presort peaks at 1.56 x X.nbytes, a depth-3 boosting fit at 4.5 x
and a depth-3 100-tree forest at 1.6 x.

A model keeps its trees once, in the packed arrays that the growers return
(``concat_trees`` joins boosting's one-tree sets) and a model file stores,
and ``leaf_values`` is the one traversal of them: it holds a (rows x trees)
matrix of node indices and moves every entry one level per pass, to the
left child where the row's value is <= the threshold and to the right child
otherwise (NaN included), so the loop runs once per level instead of once
per tree and level. It relies on the invariant that ``check_trees`` checks
on every set of arrays a model takes: each split node's children lie inside
its own tree after itself, so every walk moves forward and ends at a leaf.
``sum_leaf_values`` adds the leaf values up over the trees with
``np.cumsum``, which adds strictly in tree order (``np.sum`` may add
pairwise), and adds that sum to zeros: it therefore rounds exactly like a
loop of ``total += value`` from zero.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..errors import ParameterError
from .base import ProbabilisticClassifier

_NO_FEATURE = -1
# Upper bound on the elements of one (nodes x rows x columns x classes) block
# that a split search scores or a split partitions at once, so no temporary
# grows with a TFIDF matrix's width; a traversal block holds as many (row, tree,
# value) leaf entries. On a 2-core Xeon 2**16 fits 96 x 44 to 300 x 2000
# matrices as fast as 2**18 or faster, and keeps a forest fit's traced peak
# (1.5 MB on 96 x 44) under a boosting fit's (2.0 MB).
_BLOCK_ELEMENTS = 1 << 16


def presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's row indices in stable sorted order and its values in that
    order, both (columns x rows) with one column per contiguous row; the
    indices are int32 while the row count allows it. Columns are sorted a
    block of at most _BLOCK_ELEMENTS entries at a time."""
    X = np.asarray(X, dtype=np.float64)
    order = np.empty(X.T.shape, dtype=np.int32 if X.shape[0] < 2**31 else np.int64)
    values = np.empty(X.T.shape)
    width = max(1, _BLOCK_ELEMENTS // max(1, X.shape[0]))
    for block in (slice(start, start + width) for start in range(0, X.shape[1], width)):
        order[block] = np.argsort(X.T[block], axis=1, kind="stable")
        values[block] = np.take_along_axis(X.T[block], order[block], axis=1)
    return order, values


def _best_splits(
    idx: np.ndarray, carried: tuple[np.ndarray, np.ndarray], targets: np.ndarray,
    min_samples_leaf: int,
) -> tuple[float, float, int]:
    """Best (gain, threshold, feature) of the regression node holding rows
    ``idx``, whose share of ``presort(X)`` is ``carried``; gain 0.0 means no
    split. ``targets`` holds every row's target; a column's parent variance is
    taken in that column's sorted order."""
    n = idx.size
    width = max(1, _BLOCK_ELEMENTS // n)
    # split after sorted position p: the left child takes the first p + 1 rows;
    # only p in [lo, hi) leave min_samples_leaf rows on each side
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    best = (0.0, 0.0, _NO_FEATURE)
    for start in range(0, carried[0].shape[0], width):
        rows, sv = (share[start : start + width] for share in carried)
        # score only the positions between two distinct values: window
        # entry (c, q) is the split after sorted position p = lo + q of column c
        valid = sv[:, lo:hi] < sv[:, lo + 1 : hi + 1]
        flat = np.flatnonzero(valid)
        if not flat.size:
            continue
        c, q = np.divmod(flat, hi - lo)
        sizes_left = q + min_samples_leaf  # p + 1
        sizes_right = n - sizes_left
        at = c * n + (q + lo)  # (c, p) in a columns x rows matrix
        ys = targets[rows]  # columns x rows
        cum = np.cumsum(ys, axis=1)
        cum2 = np.square(ys)
        np.cumsum(cum2, axis=1, out=cum2)
        sum_left, sq_left = cum.take(at), cum2.take(at)
        last = c * n + (n - 1)
        sum_right, sq_right = cum.take(last) - sum_left, cum2.take(last) - sq_left
        impurity_left = sq_left / sizes_left - (sum_left / sizes_left) ** 2
        impurity_right = sq_right / sizes_right - (sum_right / sizes_right) ** 2
        # np.var of each sorted column, reduced over its contiguous row;
        # ys turns into the squared deviations from each column's mean
        ys -= np.add.reduce(ys, axis=1, keepdims=True) / n
        column_parent = (np.add.reduce(np.square(ys, out=ys), axis=1) / n).take(c)
        weighted = (sizes_left * impurity_left + sizes_right * impurity_right) / n
        gains = np.full(valid.shape, -np.inf)
        gains.ravel()[flat] = column_parent - weighted
        rows_best = np.argmax(gains, axis=1)  # first max: lowest threshold wins ties
        col_gains = gains[np.arange(rows.shape[0]), rows_best]
        col_gains = np.where(np.isfinite(col_gains) & (col_gains > 0.0), col_gains, 0.0)
        col = int(np.argmax(col_gains))  # first max: lowest feature wins ties
        if col_gains[col] > best[0]:
            r = lo + rows_best[col]
            best = (float(col_gains[col]), _threshold(sv[col, r], sv[col, r + 1]), start + col)
    return best


def _threshold(a: float, b: float) -> float:
    """The threshold between sorted neighbours a < b: their midpoint, or a
    where it is not in [a, b) (-inf/+inf, an overflowing sum, adjacent floats)."""
    a, b = float(a), float(b)
    threshold = 0.5 * (a + b)
    return threshold if a <= threshold < b else a


def grow_tree(X: np.ndarray, y: np.ndarray, presorted: tuple[np.ndarray, np.ndarray],
              max_depth: int | None = None, min_samples_leaf: int = 1,
              leaves: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Grow one variance-splitting regression tree on targets ``y``, given
    ``presort(X)``, which a caller growing many trees on one X computes once;
    return it packed. ``leaves``, an (n_samples, 1) array, receives each
    row's leaf value."""
    X = np.asarray(X, dtype=np.float64)
    n_samples, n_features = X.shape
    depth_cap = np.inf if max_depth is None else max_depth
    targets = np.asarray(y, dtype=np.float64)
    if min_samples_leaf < 1:
        raise ParameterError("min_samples_leaf must be >= 1")

    feature, threshold, left, right, value = [], [], [], [], []
    importances = np.zeros(n_features, dtype=np.float64)
    goes_left = np.zeros(n_samples, dtype=bool)  # per row of X, set at each split

    # (rows in ascending order, their share of presorted, depth, parent id, is left child)
    stack = [(np.arange(n_samples), presorted, 0, -1, False)]
    while stack:
        idx, carried, depth, parent, is_left = stack.pop()
        n = idx.size
        node_id = len(feature)
        if parent >= 0:
            (left if is_left else right)[parent] = node_id

        yn = targets[idx]  # the node's residuals, gathered once
        mean = np.atleast_1d(np.add.reduce(yn, axis=0) / n)
        best_gain, best_thr, best_feat = 0.0, 0.0, _NO_FEATURE
        # a node at max_depth is never searched, so it needs no impurity
        if (n >= 2 * min_samples_leaf and depth < depth_cap
                and float(np.add.reduce((yn - mean[0]) ** 2) / n) > 0.0):  # np.var(yn)
            best_gain, best_thr, best_feat = _best_splits(idx, carried, targets, min_samples_leaf)

        feature.append(best_feat)
        threshold.append(best_thr)
        left.append(-1)
        right.append(-1)
        value.append(mean)
        if best_feat == _NO_FEATURE:
            if leaves is not None:
                leaves[idx] = mean
            continue
        importances[best_feat] += (n / n_samples) * best_gain
        mask = X[idx, best_feat] <= best_thr
        searched = depth + 1 < depth_cap  # a capped child is a leaf
        shares = _partition(carried, goes_left, idx, mask) if searched else [None, None]
        # push right first so the left child is processed (and numbered) next;
        # popping the shares leaves no reference that outlives a child
        stack.append((idx[~mask], shares.pop(), depth + 1, node_id, False))
        stack.append((idx[mask], shares.pop(), depth + 1, node_id, True))

    return {"offsets": np.array([0, len(feature)], dtype=np.int64),
            "feature": np.asarray(feature, dtype=np.int64),
            "threshold": np.asarray(threshold, dtype=np.float64),
            "left": np.asarray(left, dtype=np.int64), "right": np.asarray(right, dtype=np.int64),
            "value": np.vstack(value), "importances": importances[None, :]}


def grow_forest(X: np.ndarray, y: np.ndarray, samples: np.ndarray, rngs: list, n_classes: int,
                max_depth: int | None = None, min_samples_leaf: int = 1,
                max_features: int | None = None) -> dict[str, np.ndarray]:
    """Grow in lockstep a Gini tree for class indices ``y`` on the rows of X
    that each row of ``samples`` lists, and return them packed; a searched
    node draws ``max_features`` candidate columns (None: all) from its tree's
    generator in ``rngs``. Each step pops the next node of every unfinished
    tree and scores the searched ones together (``_gini_splits``)."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)
    n_rows, n_features = X.shape
    depth_cap = np.inf if max_depth is None else max_depth
    draw, every = max_features is not None and max_features < n_features, np.arange(n_features)
    # a NaN after each column pads short nodes: it sorts last and compares false
    columns = np.full((n_features, n_rows + 1), np.nan)
    columns[:, :-1] = X.T
    labels = np.append(y, -1)  # the padding row has no class
    n_nodes = np.zeros(len(rngs), dtype=np.int64)
    importances = np.zeros((len(rngs), n_features))
    steps, popped = [], 0  # per step: its nodes' trees, ids, parents, sides, splits, values
    # (rows of X in sample order, depth, parent's place in pop order, is left child)
    stacks = [[(sample, 0, -1, False)] for sample in samples]
    while any(stacks):
        live = [t for t, stack in enumerate(stacks) if stack]
        rows, depths, parents, sides = zip(*[stacks[t].pop() for t in live])
        sizes = np.array([r.size for r in rows])
        # class counts are exact integers, so they equal the one-hot sums
        cells = n_classes * np.repeat(np.arange(len(live)), sizes) + y.take(np.concatenate(rows))
        counts = np.bincount(cells, minlength=len(live) * n_classes).reshape(-1, n_classes)
        means = counts / sizes[:, None]  # class distributions
        ids = n_nodes[live]
        n_nodes[live] += 1
        search, impurities, candidates = [], [], []
        # a node that is never searched needs no impurity
        for j in np.flatnonzero((sizes >= 2 * min_samples_leaf)
                                & (np.array(depths) < depth_cap)).tolist():
            impurity = 1.0 - float(np.dot(means[j], means[j]))  # Gini
            if impurity > 0.0:
                search.append(j)
                impurities.append(impurity)
                candidates.append(np.sort(rngs[live[j]].choice(
                    n_features, size=max_features, replace=False)) if draw else every)
        feature, threshold = np.full(len(live), _NO_FEATURE), np.zeros(len(live))
        splits = _gini_splits(columns, labels, [rows[j] for j in search], counts[search],
                              np.array(impurities), np.array(candidates), min_samples_leaf)
        for j, (gain, thr, feat) in zip(search, splits):
            if feat != _NO_FEATURE:
                feature[j], threshold[j] = feat, thr
                importances[live[j], feat] += (rows[j].size / n_rows) * gain
                mask = columns[feat].take(rows[j]) <= thr
                # push right first so the left child is processed (and numbered) next
                stacks[live[j]] += [(rows[j][~mask], depths[j] + 1, popped + j, False),
                                    (rows[j][mask], depths[j] + 1, popped + j, True)]
        steps.append((live, ids, parents, sides, feature, threshold, means))
        popped += len(live)

    tree, ids, parents, sides, feature, threshold, value = map(np.concatenate, zip(*steps))
    left, right, child = np.full(tree.size, -1), np.full(tree.size, -1), parents >= 0
    left[parents[sides]] = ids[sides]  # a root is no left child
    right[parents[child & ~sides]] = ids[child & ~sides]
    # each tree's nodes were popped in the order of their ids
    order = np.argsort(tree, kind="stable")
    return {"offsets": np.cumsum(np.append(0, n_nodes)), "feature": feature[order],
            "threshold": threshold[order], "left": left[order], "right": right[order],
            "value": value[order], "importances": importances}


def _gini_splits(columns: np.ndarray, labels: np.ndarray, rows: list, counts: np.ndarray,
                 parents: np.ndarray, candidates: np.ndarray, min_samples_leaf: int) -> list:
    """Best (gain, threshold, feature) of each node i, with rows ``rows[i]``
    of X (in sample order), class ``counts[i]`` and Gini impurity
    ``parents[i]``, among columns ``candidates[i]``; gain 0.0 means no split.
    ``columns`` is X transposed with a NaN after each column and ``labels``
    the rows' classes, -1 for that padding row. Each block of nodes, largest
    first, is padded to its largest node's rows, so one stable sort and one
    integer cumulative sum (a bit field per class) serve all its rows."""
    stride, n_classes = columns.shape[1], counts.shape[1]
    sizes = np.array([r.size for r in rows], dtype=np.int64)
    bits = int(sizes.max(initial=1)).bit_length()  # a field holds any count in a node
    per_word = 63 // bits
    word, place = np.divmod(labels, per_word)  # the padding row is in no word
    codes = [np.where(word == w, np.left_shift(1, bits * place), 0)
             for w in range(-(-n_classes // per_word))]
    class_word, class_place = np.divmod(np.arange(n_classes), per_word)
    lo = min_samples_leaf - 1
    best = [(0.0, 0.0, _NO_FEATURE)] * len(rows)
    by_size, done = np.argsort(-sizes, kind="stable"), 0
    while done < len(rows):
        m = int(sizes[by_size[done]])  # the block's largest node
        per_node = candidates.shape[1] * m * n_classes
        group = by_size[done : done + max(1, _BLOCK_ELEMENTS // per_node)]
        done += group.size
        n, group_counts, group_parents = sizes[group], counts[group], parents[group]
        padded = np.full((group.size, m), stride - 1)
        padded[np.arange(m) < n[:, None]] = np.concatenate([rows[i] for i in group])
        # split after sorted position p = lo + q, valid for q < n - 2 * min_samples_leaf + 1
        hi = m - min_samples_leaf
        window = np.arange(hi - lo) < (n - 2 * min_samples_leaf + 1)[:, None, None]
        width = max(1, _BLOCK_ELEMENTS // (group.size * m * n_classes))
        for start in range(0, candidates.shape[1], width):
            cols = candidates[group, start : start + width]
            g, w = cols.shape
            values = columns.take(cols[:, :, None] * stride + padded[:, None, :])
            order = np.argsort(values, axis=2, kind="stable")
            sv = values.take(order + (np.arange(g * w) * m).reshape(g, w, 1))
            flat = np.flatnonzero((sv[:, :, lo:hi] < sv[:, :, lo + 1 : hi + 1]) & window)
            if not flat.size:
                continue
            row, q = np.divmod(flat, hi - lo)  # row: the (node, column) pair
            node, at = row // w, row * m + (q + lo)
            sorted_rows = padded.take(order + (np.arange(g) * m).reshape(g, 1, 1))
            packed = np.stack([np.cumsum(code.take(sorted_rows), axis=2).take(at)
                               for code in codes], axis=1)
            left = (packed[:, class_word] >> bits * class_place) & ((1 << bits) - 1)
            right = group_counts[node] - left
            sizes_left = q + min_samples_leaf
            sizes_right = n[node] - sizes_left
            impurity_left = 1.0 - np.add.reduce((left / sizes_left[:, None]) ** 2, axis=1)
            impurity_right = 1.0 - np.add.reduce((right / sizes_right[:, None]) ** 2, axis=1)
            weighted = (sizes_left * impurity_left + sizes_right * impurity_right) / n[node]
            gains = np.full((g * w, hi - lo), -np.inf)
            gains.ravel()[flat] = group_parents[node] - weighted
            rows_best = np.argmax(gains, axis=1)  # first max: lowest threshold wins ties
            col_gains = gains[np.arange(g * w), rows_best].reshape(g, w)
            col_gains = np.where(np.isfinite(col_gains) & (col_gains > 0.0), col_gains, 0.0)
            col = np.argmax(col_gains, axis=1)  # first max: lowest feature wins ties
            gain, feat = col_gains[np.arange(g), col], cols[np.arange(g), col]
            r = lo + rows_best.reshape(g, w)[np.arange(g), col]
            a, b = sv[np.arange(g), col, r], sv[np.arange(g), col, r + 1]
            for k, i in enumerate(group.tolist()):
                if gain[k] > best[i][0]:
                    best[i] = (float(gain[k]), _threshold(a[k], b[k]), int(feat[k]))
    return best


def _partition(carried, goes_left, idx, mask):
    """The presorted (rows, values) shares of a node's left and right
    children: each column keeps its sorted order. Columns move in blocks of
    at most _BLOCK_ELEMENTS entries, so no temporary outgrows a block."""
    rows, sv = carried
    goes_left[idx] = mask
    n_left = int(np.count_nonzero(mask))
    shares = [(np.empty((rows.shape[0], size), rows.dtype), np.empty((rows.shape[0], size)))
              for size in (n_left, idx.size - n_left)]
    width = max(1, _BLOCK_ELEMENTS // idx.size)
    for start in range(0, rows.shape[0], width):
        block = slice(start, start + width)
        side = goes_left[rows[block]].ravel()
        for (child_rows, child_sv), keep in zip(shares, (side, ~side)):
            keep = np.flatnonzero(keep)
            child_rows[block].ravel()[:] = rows[block].take(keep)
            child_sv[block].ravel()[:] = sv[block].take(keep)
    return shares


def concat_trees(trees: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Join packed one-tree dicts, as ``grow_tree`` returns them, in order."""
    return {"offsets": np.cumsum([0] + [int(t["offsets"][-1]) for t in trees]),
            **{name: np.concatenate([t[name] for t in trees])
               for name in ("feature", "threshold", "left", "right", "value", "importances")}}


def check_trees(arrays: dict[str, np.ndarray], width: int) -> int:
    """The number of packed trees in ``arrays``; raise ValueError unless each
    is a tree that ``leaf_values`` walks to an end.

    Tree t holds nodes ``offsets[t]:offsets[t + 1]`` (at least one), each
    with a ``width``-entry value, and counts its child indices from its own
    first node. A leaf has feature -1 and children -1/-1. Any other node
    splits on a column of ``importances`` and has both children inside its
    own tree after itself, so every step of a walk moves forward and every
    walk ends at a leaf."""
    offsets, feature, left, right = (arrays[k] for k in ("offsets", "feature", "left", "right"))
    threshold, value, importances = arrays["threshold"], arrays["value"], arrays["importances"]
    if any(a.ndim != 1 or a.dtype.kind != "i" for a in (offsets, feature, left, right)):
        raise ValueError("tree offsets, features and children must be 1-D integer arrays")
    n, sizes = feature.size, np.diff(offsets)
    if (offsets[:1].tolist() != [0] or offsets[-1] != n or (sizes < 1).any()
            or not threshold.shape == left.shape == right.shape == (n,)
            or value.shape != (n, width) or importances.shape[:-1] != sizes.shape):
        raise ValueError("tree arrays disagree with their offsets")
    local = np.arange(n) - np.repeat(offsets[:-1], sizes)
    size = np.repeat(sizes, sizes)
    inner = (feature >= 0) & (feature < importances.shape[-1])
    inner &= (local < left) & (left < size) & (local < right) & (right < size)
    leaf = (feature == _NO_FEATURE) & (left == -1) & (right == -1)
    if not (inner | leaf).all():
        raise ValueError("a tree node has a feature or child out of range")
    return sizes.size


def leaf_values(arrays: dict[str, np.ndarray], X: np.ndarray) -> np.ndarray:
    """The value of the leaf that each packed tree routes each row of X to,
    shape (rows, trees, value_dim). ``arrays`` must have passed
    ``check_trees``."""
    offsets, feature, threshold = arrays["offsets"], arrays["feature"], arrays["threshold"]
    left, right = arrays["left"], arrays["right"]
    roots = offsets[:-1]
    node = np.repeat(roots[None, :], X.shape[0], axis=0)  # (rows, trees) global node ids
    rows = np.arange(X.shape[0])[:, None]
    while True:
        feat = feature[node]
        split = feat != _NO_FEATURE
        if not split.any():
            return arrays["value"][node]
        # a leaf's feature -1 reads the last column; the result is discarded
        go_left = X[rows, feat] <= threshold[node]
        child = np.where(go_left, left[node], right[node])  # counted from the tree's root
        node = np.where(split, roots + child, node)


def sum_leaf_values(
    arrays: dict[str, np.ndarray], X: np.ndarray, n_groups: int, scale: float
) -> np.ndarray:
    """Per row of X, the sum over rounds of ``scale`` x the leaf value of each
    group's tree, shape (rows, n_groups x value_dim); tree t is the tree of
    group t % n_groups in round t // n_groups. ``arrays`` hold at least one
    tree."""
    X = np.asarray(X, dtype=np.float64)
    n_trees, width = arrays["offsets"].size - 1, arrays["value"].shape[1]
    total = np.zeros((X.shape[0], n_groups * width), dtype=np.float64)
    step = max(1, _BLOCK_ELEMENTS // (n_trees * width))
    for lo in range(0, X.shape[0], step):
        leaves = scale * leaf_values(arrays, X[lo : lo + step])
        rounds = leaves.reshape(leaves.shape[0], -1, n_groups * width)
        # adding to the zeros makes a -0.0 sum +0.0, as a loop starting at zero would
        total[lo : lo + step] += np.cumsum(rounds, axis=1)[:, -1]
    return total


class TreeModel(ProbabilisticClassifier):
    """A classifier whose fitted state is its packed trees (None until a
    fit): rf and xgb."""

    packed_: dict[str, np.ndarray] | None = None

    def _set_tree_params(self, max_depth: int | None, min_samples_leaf: int) -> None:
        if max_depth is not None and max_depth < 1:
            raise ParameterError("max_depth must be >= 1 or None")
        if min_samples_leaf < 1:
            raise ParameterError("min_samples_leaf must be >= 1")
        self.max_depth, self.min_samples_leaf = max_depth, min_samples_leaf

    def _packed(self) -> dict[str, np.ndarray]:
        if self.packed_ is None:
            raise ParameterError(f"{type(self).__name__} is not fitted")
        return self.packed_

    @property
    def feature_importances_(self) -> np.ndarray:
        """Each feature's impurity decrease, summed over the trees."""
        return np.sum(self._packed()["importances"], axis=0)

    @property
    def trees_(self) -> list:
        """Each tree's node count as ``n_nodes``, an int: only the benchmark's
        node counters read it, and it goes once they read ``offsets``."""
        return [SimpleNamespace(n_nodes=n) for n in np.diff(self._packed()["offsets"]).tolist()]

    def _arrays(self) -> dict[str, np.ndarray]:
        return self.packed_

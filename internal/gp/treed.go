package gp

import (
	"errors"
	"fmt"
	"math"

	"alamr/internal/kernel"
	"alamr/internal/mat"
	"alamr/internal/obs"
)

// Model is the surrogate interface the active-learning loop consumes. *GP
// implements it; Treed provides the partitioned variant the paper's future
// work proposes ("train multiple local performance models simultaneously",
// §VI; cf. the treed GPR of its related work §II-B).
type Model interface {
	Fit(x *mat.Dense, y []float64) error
	// Predict returns the posterior mean and standard deviation at each
	// row of xs, fanning the rows out over the mat worker pool.
	Predict(xs *mat.Dense) (mean, std []float64)
	// PredictInto is Predict writing into caller-owned buffers of
	// xs.Rows() entries, on the calling goroutine, with bitwise-equal
	// output: the streamed pool's lanes are the parallelism, so each calls
	// it once per shard. It reads model state only, and never writes xs
	// (the pool may lend rows of a shared matrix), so any number of calls
	// may run at once on a fitted model (Fit, Append and Refit must not
	// overlap them).
	PredictInto(xs *mat.Dense, mean, std []float64)
	Append(x []float64, y float64) error
	Refit() error
	Hyperparams() []float64
	SetRestarts(n int)
	// Generation is the posterior generation: a counter that advances on
	// every change that can raise the predictive σ at some input — Fit,
	// Refit, a sparse re-projection, a treed re-split, a multi-fidelity
	// level's first fit. Append alone leaves it unchanged: absorbing an
	// observation under fixed hyperparameters never raises σ, so a caller
	// holding per-candidate σ upper bounds may keep them while the
	// generation stays put.
	Generation() uint64
}

var (
	_ Model = (*GP)(nil)
	_ Model = (*Treed)(nil)
	_ Model = (*Sparse)(nil)
)

// Treed is a partitioned Gaussian process: the input space is recursively
// split (widest-spread dimension, at the median) until every leaf holds at
// most LeafSize training points, and an independent GP is fitted per leaf.
// Predictions route to the covering leaf. This trades the O(n³) global fit
// for several small fits — the standard answer to GPR's cubic scaling — at
// the cost of discontinuities across leaf boundaries.
//
// Appends are amortized end to end: the sample rides the leaf GP's own
// incremental Append (rank-1 Cholesky border extension) and the training
// mirror grows through mat.Dense.AppendRow (amortized doubling), so no
// refit and no O(n_leaf) re-copy happens on the hot path. A leaf grown
// past rebalance×LeafSize is re-split, with the children warm-started from
// the parent leaf's learned hyperparameters (a single local optimization
// instead of a cold multi-restart search) so pathological insert orders
// cannot degenerate into one giant leaf without bounded, amortized cost.
type Treed struct {
	proto    kernel.Kernel
	cfg      Config
	leafSize int
	// rebalance is the re-split trigger factor: a leaf is split when it
	// exceeds rebalance×leafSize rows. Minimum 1 (split as soon as the
	// capacity is exceeded); default 2.
	rebalance int
	root      *treeNode
	gen       uint64 // posterior generation (see Model.Generation)

	caches []*TreedScoringCache
}

type treeNode struct {
	dim       int
	threshold float64
	left      *treeNode
	right     *treeNode

	// Leaf state (left == nil).
	model *GP
	x     *mat.Dense
	y     []float64
}

// NewTreed creates a treed GP with the given kernel prototype, per-leaf GP
// configuration, and leaf capacity (minimum 8).
func NewTreed(k kernel.Kernel, cfg Config, leafSize int) *Treed {
	if leafSize < 8 {
		leafSize = 8
	}
	return &Treed{proto: k.Clone(), cfg: cfg, leafSize: leafSize, rebalance: 2}
}

// SetRebalance sets the leaf re-split trigger factor: a leaf splits once
// it holds more than f×LeafSize rows. Values below 1 clamp to 1.
func (t *Treed) SetRebalance(f int) {
	if f < 1 {
		f = 1
	}
	t.rebalance = f
}

// LeafSize reports the configured leaf capacity.
func (t *Treed) LeafSize() int { return t.leafSize }

// Fit builds the partition tree and fits every leaf GP.
func (t *Treed) Fit(x *mat.Dense, y []float64) error {
	if x == nil || x.Rows() == 0 {
		return ErrNoData
	}
	if x.Rows() != len(y) {
		return fmt.Errorf("gp: treed fit with %d rows and %d targets", x.Rows(), len(y))
	}
	root, err := t.buildWith(t.proto, t.cfg, x.Clone(), append([]float64(nil), y...), 0)
	if err != nil {
		return err
	}
	t.root = root
	t.gen++
	for _, c := range t.caches {
		c.onReset()
	}
	return nil
}

// buildWith recursively partitions (x, y) fitting each leaf with the given
// kernel prototype and config. Fit passes the Treed's own proto/cfg;
// resplit passes a warm-started prototype carrying the parent leaf's
// learned hyperparameters.
func (t *Treed) buildWith(proto kernel.Kernel, cfg Config, x *mat.Dense, y []float64, depth int) (*treeNode, error) {
	n := x.Rows()
	if n <= t.leafSize || depth >= 12 {
		return t.fitLeaf(proto, cfg, x, y)
	}
	dim, threshold, ok := splitPlane(x)
	if !ok {
		return t.fitLeaf(proto, cfg, x, y)
	}
	var li, ri []int
	for i := 0; i < n; i++ {
		if x.At(i, dim) < threshold {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	lx, ly := subset(x, y, li)
	rx, ry := subset(x, y, ri)
	left, err := t.buildWith(proto, cfg, lx, ly, depth+1)
	if err != nil {
		return nil, err
	}
	right, err := t.buildWith(proto, cfg, rx, ry, depth+1)
	if err != nil {
		return nil, err
	}
	return &treeNode{dim: dim, threshold: threshold, left: left, right: right}, nil
}

func (t *Treed) fitLeaf(proto kernel.Kernel, cfg Config, x *mat.Dense, y []float64) (*treeNode, error) {
	leaf := &treeNode{x: x, y: y, model: New(proto, cfg)}
	if err := leaf.model.Fit(x, y); err != nil {
		return nil, err
	}
	return leaf, nil
}

// splitPlane picks the dimension with the largest spread and splits at its
// median. Returns ok=false when every dimension is constant (no useful
// split exists).
func splitPlane(x *mat.Dense) (dim int, threshold float64, ok bool) {
	n, d := x.Dims()
	bestSpread := 0.0
	for j := 0; j < d; j++ {
		lo, hi := x.At(0, j), x.At(0, j)
		for i := 1; i < n; i++ {
			v := x.At(i, j)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if s := hi - lo; s > bestSpread {
			bestSpread = s
			dim = j
		}
	}
	if bestSpread == 0 {
		return 0, 0, false
	}
	col := make([]float64, n)
	for i := 0; i < n; i++ {
		col[i] = x.At(i, dim)
	}
	threshold = medianOf(col)
	// Guard: a median equal to the minimum would put everything on one
	// side; nudge to the midpoint of the range instead.
	lo, hi := col[0], col[0]
	for _, v := range col {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	left := 0
	for _, v := range col {
		if v < threshold {
			left++
		}
	}
	if left == 0 || left == n {
		threshold = (lo + hi) / 2
		left = 0
		for _, v := range col {
			if v < threshold {
				left++
			}
		}
		if left == 0 || left == n {
			return 0, 0, false
		}
	}
	return dim, threshold, true
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	// Insertion sort: leaf sizes are small.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func subset(x *mat.Dense, y []float64, idx []int) (*mat.Dense, []float64) {
	out := mat.NewDense(len(idx), x.Cols(), nil)
	oy := make([]float64, len(idx))
	for r, i := range idx {
		copy(out.Row(r), x.Row(i))
		oy[r] = y[i]
	}
	return out, oy
}

// leafFor routes a point to its covering leaf.
func (t *Treed) leafFor(x []float64) *treeNode {
	node := t.root
	for node.left != nil {
		if x[node.dim] < node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node
}

// Predict implements Model: each row routes to its leaf GP. Rows are
// independent, so the pool fans out over candidates (routing is read-only
// and PredictOne uses local scratch).
func (t *Treed) Predict(xs *mat.Dense) (mean, std []float64) {
	if t.root == nil {
		panic("gp: Treed.Predict before Fit")
	}
	m := xs.Rows()
	mean = make([]float64, m)
	std = make([]float64, m)
	mat.ParallelFor(m, mat.ChunkFor(4*t.leafSize+16), func(lo, hi int) {
		t.predictRange(xs, mean, std, lo, hi)
	})
	return mean, std
}

// predictRange scores rows [lo, hi) with one growable scratch pair shared
// across the whole range — scratch is sized to the largest leaf seen so
// far, so a range allocates O(distinct leaf-size increases) rather than the
// O(rows) a per-candidate PredictOne would. Routing and the leaf models are
// read-only during prediction, so concurrent predictRange calls are
// race-free.
func (t *Treed) predictRange(xs *mat.Dense, mean, std []float64, lo, hi int) {
	var scratch []float64
	for i := lo; i < hi; i++ {
		leaf := t.leafFor(xs.Row(i))
		n := leaf.model.NumTrain()
		if cap(scratch) < 2*n {
			scratch = make([]float64, 2*n)
		}
		s := scratch[:2*n]
		mean[i], std[i] = leaf.model.predictOneInto(xs.Row(i), s[:n], s[n:])
	}
}

// PredictInto implements Model: Predict into caller-owned buffers, on the
// calling goroutine — bitwise-equal output (each row goes through the same
// predictOneInto its leaf's PredictOne uses), no worker-pool dispatch.
func (t *Treed) PredictInto(xs *mat.Dense, mean, std []float64) {
	if t.root == nil {
		panic("gp: Treed.Predict before Fit")
	}
	m := xs.Rows()
	if len(mean) != m || len(std) != m {
		panic(fmt.Sprintf("gp: PredictInto buffers %d/%d for %d rows", len(mean), len(std), m))
	}
	t.predictRange(xs, mean, std, 0, m)
}

// Append implements Model: the sample joins its covering leaf through the
// leaf GP's amortized incremental Append (rank-1 border extension — no
// refit), and the training mirror grows by AppendRow (amortized doubling —
// no O(n_leaf) copy). A leaf grown past rebalance×LeafSize re-splits with
// warm-started children.
func (t *Treed) Append(x []float64, y float64) error {
	if t.root == nil {
		return errors.New("gp: Treed.Append before Fit")
	}
	leaf := t.leafFor(x)
	if err := leaf.model.Append(x, y); err != nil {
		return err
	}
	leaf.x = leaf.x.AppendRow(x)
	leaf.y = append(leaf.y, y)
	if len(t.caches) > 0 {
		// The leaf's attached ScoringCaches extended themselves inside
		// leaf.model.Append; this counter attributes the work to the treed
		// family for the extend-vs-rebuild ledger.
		obs.ModelCacheOps.Inc(obs.ModelCacheTreedExtend)
	}

	if leaf.x.Rows() > t.rebalance*t.leafSize {
		return t.resplit(leaf)
	}
	return nil
}

// resplit rebuilds the subtree under an over-full leaf. The children are
// warm-started: the split subtree is built with a kernel prototype carrying
// the leaf's learned hyperparameters and a single local optimization
// (Restarts=0) instead of the cold multi-restart search a full Fit runs —
// the leaf already sits near good hyperparameters, so the split costs
// O(children · leafSize³) and no hyperparameter search restarts. Attached
// pool caches re-route the dead leaf's candidates to the new leaves.
func (t *Treed) resplit(leaf *treeNode) error {
	// Children fit on fewer rows, so σ can rise anywhere the dead leaf
	// covered.
	t.gen++
	old := leaf.model
	h := old.Hyperparams()
	proto := t.proto.Clone()
	proto.SetParams(h[:len(h)-1])
	cfg := t.cfg
	cfg.Noise = math.Exp(h[len(h)-1])
	cfg.Restarts = 0
	sub, err := t.buildWith(proto, cfg, leaf.x, leaf.y, 0)
	if err != nil {
		return err
	}
	*leaf = *sub
	for _, c := range t.caches {
		c.onResplit(old)
	}
	return nil
}

// Refit implements Model: every leaf re-optimizes its hyperparameters.
func (t *Treed) Refit() error {
	if t.root == nil {
		return ErrNoData
	}
	t.gen++
	return walkLeaves(t.root, func(n *treeNode) error { return n.model.Refit() })
}

// Generation implements Model: it advances on Fit, Refit, and every leaf
// re-split.
func (t *Treed) Generation() uint64 { return t.gen }

// Hyperparams implements Model: the concatenation of all leaf
// hyperparameters (leaf order is deterministic: left before right).
func (t *Treed) Hyperparams() []float64 {
	var out []float64
	if t.root == nil {
		return nil
	}
	_ = walkLeaves(t.root, func(n *treeNode) error {
		out = append(out, n.model.Hyperparams()...)
		return nil
	})
	return out
}

// SetRestarts implements Model.
func (t *Treed) SetRestarts(n int) {
	t.cfg.Restarts = n
	if t.root == nil {
		return
	}
	_ = walkLeaves(t.root, func(node *treeNode) error {
		node.model.SetRestarts(n)
		return nil
	})
}

// NumLeaves reports the number of local models.
func (t *Treed) NumLeaves() int {
	if t.root == nil {
		return 0
	}
	count := 0
	_ = walkLeaves(t.root, func(*treeNode) error { count++; return nil })
	return count
}

func walkLeaves(n *treeNode, f func(*treeNode) error) error {
	if n.left == nil {
		return f(n)
	}
	if err := walkLeaves(n.left, f); err != nil {
		return err
	}
	return walkLeaves(n.right, f)
}

package ml

import (
	"math/rand"
	"sort"
)

// TreeConfig configures a CART regression tree.
type TreeConfig struct {
	// MaxDepth bounds the tree depth (Table 3 uses max_depth=10).
	MaxDepth int
	// MinSamplesLeaf is the minimum number of samples in a leaf.
	MinSamplesLeaf int
	// MaxFeatures, when > 0, is the number of features considered per
	// split (random forests use d/3); 0 means all features.
	MaxFeatures int
	// Seed drives the feature subsampling.
	Seed int64
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 10
	}
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 2
	}
	return c
}

type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	value     float64 // leaf prediction
	leaf      bool
}

// DecisionTree is a CART regression tree split on variance reduction —
// the regression form of the Gini criterion (Table 3: criterion=gini).
type DecisionTree struct {
	Config TreeConfig

	// root is the pointer tree built by Fit; it is the construction-time
	// and reference representation.
	root *treeNode
	// tab is root laid out as a one-tree kernel table; every prediction
	// walks it.
	tab         nodeTable
	importances []float64
	fitted      bool
}

// NewDecisionTree builds an unfitted tree with cfg.
func NewDecisionTree(cfg TreeConfig) *DecisionTree {
	return &DecisionTree{Config: cfg.withDefaults()}
}

// Name implements Regressor.
func (t *DecisionTree) Name() string { return "DTR" }

// Fit implements Regressor.
func (t *DecisionTree) Fit(X [][]float64, y []float64) error {
	if err := validate(X, y); err != nil {
		return err
	}
	// The feature-subsampling RNG lives for this fit only: a fitted tree
	// keeps no generator state.
	rng := rand.New(rand.NewSource(t.Config.Seed))
	t.importances = make([]float64, len(X[0]))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(rng, X, y, idx, 0)
	// Normalize importances to sum to 1.
	var sum float64
	for _, v := range t.importances {
		sum += v
	}
	if sum > 0 {
		for i := range t.importances {
			t.importances[i] /= sum
		}
	}
	// Lay the pointer tree out as the table every prediction walks
	// (bit-identical by construction — same comparisons, same order). It
	// must pass the validator LoadFlat runs, so a tree no artifact could
	// carry — a NaN split or an infinite leaf from non-finite training
	// data, or a height past maxTreeDepth — fails here, not at restore.
	t.tab = nodeTable{}
	t.tab.appendTree(t.root)
	if err := validateNodeTable(t.tab.nodes, t.tab.roots, t.tab.depth); err != nil {
		return err
	}
	t.fitted = true
	return nil
}

// Predict implements Regressor through one walk of the tree's table;
// an unfitted tree predicts 0. A lone tree has no batch predictor:
// PredictBatch calls Predict row by row.
func (t *DecisionTree) Predict(x []float64) float64 {
	if !t.fitted {
		return 0
	}
	return t.tab.walk(0, t.tab.depth[0], x)
}

// Importances implements Importancer.
func (t *DecisionTree) Importances() []float64 {
	return append([]float64(nil), t.importances...)
}

// sse returns sum, sum of squares and count over the index set.
func sums(y []float64, idx []int) (s, s2 float64) {
	for _, i := range idx {
		s += y[i]
		s2 += y[i] * y[i]
	}
	return s, s2
}

func (t *DecisionTree) build(rng *rand.Rand, X [][]float64, y []float64, idx []int, depth int) *treeNode {
	s, s2 := sums(y, idx)
	n := float64(len(idx))
	mean := s / n
	impurity := s2 - s*s/n // n * variance

	if depth >= t.Config.MaxDepth || len(idx) < 2*t.Config.MinSamplesLeaf || impurity <= 1e-12 {
		return &treeNode{leaf: true, value: mean}
	}

	d := len(X[0])
	features := t.candidateFeatures(rng, d)

	bestGain := 0.0
	bestFeature := -1
	bestThreshold := 0.0
	// Reusable sorted index buffer.
	sorted := make([]int, len(idx))
	for _, f := range features {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return X[sorted[a]][f] < X[sorted[b]][f] })
		// Scan split points left to right maintaining prefix sums.
		var ls, ls2 float64
		for k := 0; k < len(sorted)-1; k++ {
			v := y[sorted[k]]
			ls += v
			ls2 += v * v
			// Can't split between equal feature values.
			if X[sorted[k]][f] == X[sorted[k+1]][f] {
				continue
			}
			nl := float64(k + 1)
			nr := n - nl
			if int(nl) < t.Config.MinSamplesLeaf || int(nr) < t.Config.MinSamplesLeaf {
				continue
			}
			rs := s - ls
			rs2 := s2 - ls2
			childImpurity := (ls2 - ls*ls/nl) + (rs2 - rs*rs/nr)
			gain := impurity - childImpurity
			if gain > bestGain {
				a, b := X[sorted[k]][f], X[sorted[k+1]][f]
				mid := a + (b-a)/2
				// Adjacent float values can round the midpoint up to b,
				// which would leave the right child empty; fall back to
				// the left value, which still separates (≤ a | > a).
				if mid >= b {
					mid = a
				}
				bestGain = gain
				bestFeature = f
				bestThreshold = mid
			}
		}
	}
	if bestFeature < 0 {
		return &treeNode{leaf: true, value: mean}
	}

	t.importances[bestFeature] += bestGain

	var leftIdx, rightIdx []int
	for _, i := range idx {
		if X[i][bestFeature] <= bestThreshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return &treeNode{leaf: true, value: mean}
	}
	return &treeNode{
		feature:   bestFeature,
		threshold: bestThreshold,
		left:      t.build(rng, X, y, leftIdx, depth+1),
		right:     t.build(rng, X, y, rightIdx, depth+1),
	}
}

func (t *DecisionTree) candidateFeatures(rng *rand.Rand, d int) []int {
	if t.Config.MaxFeatures <= 0 || t.Config.MaxFeatures >= d {
		all := make([]int, d)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return rng.Perm(d)[:t.Config.MaxFeatures]
}

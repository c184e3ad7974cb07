package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"alamr/internal/gp"
	"alamr/internal/mat"
)

// TestStreamTreedResplitResetsBounds: once a treed leaf outgrows
// rebalance×leaf_size it re-splits, and its children — fit on fewer rows —
// can raise σ anywhere the old leaf covered. The re-split moves the model's
// posterior generation, so the streamed pool must drop its stale bounds;
// kept, they prune the candidate that is now the maxsigma winner (the first
// Select after the re-split diverges from the full scan).
func TestStreamTreedResplitResetsBounds(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		// Leaf 24, rebalance 2: the single 20-row leaf re-splits on the
		// append that takes it past 48 rows.
		cost, mem, pool := streamFamilyFixture(t, "treed", seed, 20, 160)
		st := newStreamState(DenseSource{X: pool}, cost, mem, 16)
		removed := map[int]bool{}
		rng := rand.New(rand.NewSource(seed))
		leaves, resplits := cost.(*gp.Treed).NumLeaves(), 0
		for round := 0; round < 34; round++ {
			c, pick := st.Select()
			checkWinner(t, fmt.Sprintf("seed %d round %d (after %d re-splits)", seed, round, resplits),
				c, pick, bruteTopK(cost, mem, pool, removed, 1))
			st.Remove(pick)
			removed[pick] = true
			y := rng.NormFloat64()
			if err := cost.Append(pool.Row(pick), y); err != nil {
				t.Fatal(err)
			}
			if err := mem.Append(pool.Row(pick), 0.5*y); err != nil {
				t.Fatal(err)
			}
			if l := cost.(*gp.Treed).NumLeaves(); l != leaves {
				leaves = l
				resplits++
			}
		}
		if resplits == 0 {
			t.Fatalf("seed %d: the campaign never re-split a leaf", seed)
		}
	}
}

// TestStreamPerCandidateBoundsExact pins the per-candidate prune bounds
// against the full scan for every surrogate family at workers {1, 2,
// GOMAXPROCS}: a schedule of appends, removals (the pick plus one random
// non-winner), a hyperparameter refit, and — for treed — leaf re-splits
// must leave every round's winner equal to the full scan's in id and all
// four scores, bitwise. The test also requires that pruning actually fired,
// so a bound that never prunes cannot pass. The one-shard case isolates
// the seed bound: a lane reads the threshold before it scores a shard, so
// with the whole pool in one shard every prune there comes from the
// re-scored previous best two.
func TestStreamPerCandidateBoundsExact(t *testing.T) {
	const poolSize = 300
	type layout struct{ workers, shard int }
	layouts := []layout{{1, poolSize}, {1, 32}, {2, 32}}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		layouts = append(layouts, layout{p, 32})
	}
	for _, family := range []string{"exact", "sparse", "treed"} {
		for _, l := range layouts {
			t.Run(fmt.Sprintf("%s/workers=%d/shard=%d", family, l.workers, l.shard), func(t *testing.T) {
				prev := mat.SetWorkers(l.workers)
				defer mat.SetWorkers(prev)
				// Hyperparameter optimization on (warm start only on
				// refit), so the refit really moves the posterior.
				cfg := gp.Config{Noise: 0.1, FixedNoise: true, Restarts: -1}
				cost, mem, pool := streamFamilyFixtureCfg(t, family, cfg, 91, 40, poolSize)
				if tr, ok := cost.(*gp.Treed); ok {
					tr.SetRebalance(1)
					mem.(*gp.Treed).SetRebalance(1)
				}
				st := newStreamState(DenseSource{X: pool}, cost, mem, l.shard)
				removed := map[int]bool{}
				rng := rand.New(rand.NewSource(92))
				gen := cost.Generation()
				var resets, candPruned int64
				for round := 0; round < 14; round++ {
					c, pick := st.Select()
					checkWinner(t, fmt.Sprintf("round %d", round), c, pick,
						bruteTopK(cost, mem, pool, removed, 1))
					candPruned += laneTotals(st).candPruned
					drop := []int{pick}
					for {
						id := rng.Intn(pool.Rows())
						if !removed[id] && id != pick {
							drop = append(drop, id)
							break
						}
					}
					for _, id := range drop {
						st.Remove(id)
						removed[id] = true
					}
					y := rng.NormFloat64()
					if err := cost.Append(pool.Row(pick), y); err != nil {
						t.Fatal(err)
					}
					if err := mem.Append(pool.Row(pick), 0.5*y); err != nil {
						t.Fatal(err)
					}
					if round == 6 {
						if err := cost.Refit(); err != nil {
							t.Fatal(err)
						}
						if err := mem.Refit(); err != nil {
							t.Fatal(err)
						}
					}
					if g := cost.Generation(); g != gen {
						gen = g
						resets++
					}
				}
				switch {
				case family == "treed" && resets < 2:
					t.Fatalf("treed: %d generation moves, want the refit plus at least one re-split", resets)
				case family != "treed" && resets != 1:
					t.Fatalf("%d generation moves, want exactly the refit's", resets)
				}
				if candPruned == 0 {
					t.Fatal("no candidate was ever pruned")
				}
			})
		}
	}
}

// TestStreamRefitResetsBounds: a refit under new hyperparameters can raise
// σ everywhere at once — here the length-scale shrinks to a third, so σ
// climbs away from the data. The stream must notice through the model's
// posterior generation alone, with no caller resetting it, and re-score
// instead of trusting bounds recorded under the old posterior.
func TestStreamRefitResetsBounds(t *testing.T) {
	cost, mem, pool := streamFixture(t, 93, 40, 300)
	st := newStreamState(DenseSource{X: pool}, cost, mem, 32)
	removed := map[int]bool{}
	for round := 0; round < 4; round++ {
		c, pick := st.Select()
		checkWinner(t, fmt.Sprintf("round %d", round), c, pick, bruteTopK(cost, mem, pool, removed, 1))
		st.Remove(pick)
		removed[pick] = true
		if err := cost.Append(pool.Row(pick), 0.1*float64(round)); err != nil {
			t.Fatal(err)
		}
		if round == 2 {
			g := cost.(*gp.GP)
			h := g.Hyperparams()
			h[0] -= math.Log(3) // RBF log length-scale
			g.SetHyperparams(h)
			if err := g.Refit(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// countingModel wraps a surrogate and counts the rows it is asked to
// predict. Predict is the winner's entry point; PredictInto is the one
// every lane calls, so each call through it is recorded as a lane call.
type countingModel struct {
	gp.Model
	calls, rows, laneCalls atomic.Int64
}

func (m *countingModel) reset() {
	m.calls.Store(0)
	m.rows.Store(0)
	m.laneCalls.Store(0)
}

func (m *countingModel) Predict(xs *mat.Dense) ([]float64, []float64) {
	m.calls.Add(1)
	m.rows.Add(int64(xs.Rows()))
	return m.Model.Predict(xs)
}

func (m *countingModel) PredictInto(xs *mat.Dense, mean, std []float64) {
	m.laneCalls.Add(1)
	m.rows.Add(int64(xs.Rows()))
	m.Model.PredictInto(xs, mean, std)
}

// TestStreamMemoryWinnerOnly: the pass ranks through the cost surrogate
// alone, so across appends, removals and a refit each Select asks the
// memory surrogate for the winner's row alone, in one call, never from
// inside a lane — for every surrogate family at workers {1, 2, GOMAXPROCS}
// — while the winner's memory scores stay bitwise those of a full-pool
// Predict. Each round also removes a fixed non-winner.
func TestStreamMemoryWinnerOnly(t *testing.T) {
	workers := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		workers = append(workers, p)
	}
	for _, family := range []string{"exact", "sparse", "treed"} {
		for _, w := range workers {
			t.Run(fmt.Sprintf("%s/workers=%d", family, w), func(t *testing.T) {
				prev := mat.SetWorkers(w)
				defer mat.SetWorkers(prev)
				cfg := gp.Config{Noise: 0.1, FixedNoise: true, Restarts: -1}
				cost, mem, pool := streamFamilyFixtureCfg(t, family, cfg, 94, 40, 300)
				probe := &countingModel{Model: mem}
				st := newStreamState(DenseSource{X: pool}, cost, probe, 32)
				removed := map[int]bool{}
				rng := rand.New(rand.NewSource(95))
				for round := 0; round < 8; round++ {
					probe.reset()
					c, pick := st.Select()
					if n := probe.laneCalls.Load(); n != 0 {
						t.Fatalf("round %d: a lane predicted the memory surrogate %d times", round, n)
					}
					if calls, rows := probe.calls.Load(), probe.rows.Load(); calls != 1 || rows != 1 {
						t.Fatalf("round %d: memory surrogate asked for %d rows in %d calls, want 1 row in 1",
							round, rows, calls)
					}
					checkWinner(t, fmt.Sprintf("round %d", round), c, pick,
						bruteTopK(cost, mem, pool, removed, 1))
					for _, id := range []int{pick, nextLive(removed, pool.Rows(), 37*round, pick)} {
						st.Remove(id)
						removed[id] = true
					}
					y := rng.NormFloat64()
					if err := cost.Append(pool.Row(pick), y); err != nil {
						t.Fatal(err)
					}
					if err := mem.Append(pool.Row(pick), 0.5*y); err != nil {
						t.Fatal(err)
					}
					if round == 3 {
						if err := cost.Refit(); err != nil {
							t.Fatal(err)
						}
						if err := mem.Refit(); err != nil {
							t.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// TestStreamMemoryRefitKeepsBounds: the prune bounds are cost σ, so a
// refit of the memory surrogate alone — which moves only the memory
// generation — must leave them in force: the next Select still prunes, and
// its winner, memory scores included, equals the full scan bitwise.
func TestStreamMemoryRefitKeepsBounds(t *testing.T) {
	for _, family := range []string{"exact", "sparse", "treed"} {
		t.Run(family, func(t *testing.T) {
			cfg := gp.Config{Noise: 0.1, FixedNoise: true, Restarts: -1}
			cost, mem, pool := streamFamilyFixtureCfg(t, family, cfg, 96, 40, 300)
			st := newStreamState(DenseSource{X: pool}, cost, mem, 32)
			removed := map[int]bool{}
			for round := 0; round < 3; round++ {
				c, pick := st.Select()
				checkWinner(t, fmt.Sprintf("round %d", round), c, pick, bruteTopK(cost, mem, pool, removed, 1))
				st.Remove(pick)
				removed[pick] = true
				if err := cost.Append(pool.Row(pick), 0.2*float64(round)); err != nil {
					t.Fatal(err)
				}
				if err := mem.Append(pool.Row(pick), 0.1*float64(round)); err != nil {
					t.Fatal(err)
				}
			}
			costGen, memGen := cost.Generation(), mem.Generation()
			if err := mem.Refit(); err != nil {
				t.Fatal(err)
			}
			if mem.Generation() == memGen || cost.Generation() != costGen {
				t.Fatalf("memory refit moved generations cost %d→%d, mem %d→%d; want only mem's",
					costGen, cost.Generation(), memGen, mem.Generation())
			}
			c, pick := st.Select()
			checkWinner(t, "after memory refit", c, pick, bruteTopK(cost, mem, pool, removed, 1))
			if scored := laneTotals(st).candScored; scored >= int64(st.Live()) {
				t.Fatalf("Select after a memory-only refit scored %d of %d live candidates, want pruning", scored, st.Live())
			}
		})
	}
}

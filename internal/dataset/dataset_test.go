package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"alamr/internal/cluster"
	"alamr/internal/mat"
)

func TestAllCombosSize(t *testing.T) {
	combos := AllCombos()
	if len(combos) != 1920 {
		t.Fatalf("grid size = %d want 1920", len(combos))
	}
	seen := make(map[Combo]bool, len(combos))
	for _, c := range combos {
		if seen[c] {
			t.Fatalf("duplicate combo %+v", c)
		}
		seen[c] = true
	}
}

func testJob() Job {
	return Job{P: 8, Mx: 16, MaxLevel: 4, R0: 0.3, RhoIn: 0.1, WallSec: 100, CostNH: 0.25, MemMB: 8}
}

func TestScaleFeaturesUnitCube(t *testing.T) {
	lo := Job{P: 4, Mx: 8, MaxLevel: 3, R0: 0.2, RhoIn: 0.02, WallSec: 1, CostNH: 1, MemMB: 1}
	hi := Job{P: 32, Mx: 32, MaxLevel: 6, R0: 0.5, RhoIn: 0.5, WallSec: 1, CostNH: 1, MemMB: 1}
	for i, v := range ScaleFeatures(lo) {
		if v != 0 {
			t.Fatalf("lo feature %d = %g want 0", i, v)
		}
	}
	for i, v := range ScaleFeatures(hi) {
		if v != 1 {
			t.Fatalf("hi feature %d = %g want 1", i, v)
		}
	}
	mid := ScaleFeatures(testJob())
	for i, v := range mid {
		if v < 0 || v > 1 {
			t.Fatalf("feature %d = %g outside unit cube", i, v)
		}
	}
}

// scaleFeaturesLog2P is one row of FeaturesLog2P: ScaleFeatures with
// log2(p) as the node-count feature.
func scaleFeaturesLog2P(j Job) [NumFeatures]float64 {
	out := ScaleFeatures(j)
	lo := math.Log2(float64(GridP[0]))
	hi := math.Log2(float64(GridP[len(GridP)-1]))
	out[0] = (math.Log2(float64(j.P)) - lo) / (hi - lo)
	return out
}

func TestScaleFeaturesLog2P(t *testing.T) {
	j := testJob()
	j.P = 8 // log2 8 = 3 → (3-2)/(5-2) = 1/3
	f := scaleFeaturesLog2P(j)
	if math.Abs(f[0]-1.0/3.0) > 1e-12 {
		t.Fatalf("log2 p feature = %g want 1/3", f[0])
	}
	// Other features unchanged from linear scaling.
	lin := ScaleFeatures(j)
	for i := 1; i < NumFeatures; i++ {
		if f[i] != lin[i] {
			t.Fatalf("feature %d changed by log2 transform", i)
		}
	}
}

func smallDataset() *Dataset {
	return &Dataset{Jobs: []Job{
		{P: 4, Mx: 8, MaxLevel: 3, R0: 0.2, RhoIn: 0.02, WallSec: 2, CostNH: 0.002, MemMB: 0.02},
		{P: 8, Mx: 16, MaxLevel: 4, R0: 0.3, RhoIn: 0.1, WallSec: 100, CostNH: 0.25, MemMB: 8},
		{P: 32, Mx: 32, MaxLevel: 6, R0: 0.5, RhoIn: 0.5, WallSec: 4000, CostNH: 11.8, MemMB: 32},
		{P: 8, Mx: 16, MaxLevel: 4, R0: 0.3, RhoIn: 0.1, WallSec: 105, CostNH: 0.26, MemMB: 8.1},
	}}
}

func TestResponsesAndTransforms(t *testing.T) {
	d := smallDataset()
	lc := d.LogCost(nil)
	if math.Abs(lc[1]-math.Log10(0.25)) > 1e-12 {
		t.Fatalf("LogCost = %v", lc)
	}
	lm := d.LogMem([]int{2})
	if math.Abs(lm[0]-math.Log10(32)) > 1e-12 {
		t.Fatalf("LogMem = %v", lm)
	}
	if d.Cost([]int{0})[0] != 0.002 || d.Mem([]int{0})[0] != 0.02 || d.Wall([]int{0})[0] != 2 {
		t.Fatal("raw responses wrong")
	}
}

func TestFeaturesMatrixShape(t *testing.T) {
	d := smallDataset()
	x := d.Features(nil)
	r, c := x.Dims()
	if r != 4 || c != NumFeatures {
		t.Fatalf("features dims %dx%d", r, c)
	}
	x2 := d.Features([]int{2})
	if x2.Rows() != 1 || x2.At(0, 0) != 1 {
		t.Fatalf("subset features wrong: %v", x2.Row(0))
	}
	xl := d.FeaturesLog2P([]int{1})
	if math.Abs(xl.At(0, 0)-1.0/3.0) > 1e-12 {
		t.Fatal("log2p matrix wrong")
	}
}

func TestValidate(t *testing.T) {
	d := smallDataset()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Dataset{Jobs: []Job{{P: 5, Mx: 8, MaxLevel: 3, R0: 0.2, RhoIn: 0.02, WallSec: 1, CostNH: 1, MemMB: 1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("off-grid p accepted")
	}
	bad2 := &Dataset{Jobs: []Job{{P: 4, Mx: 8, MaxLevel: 3, R0: 0.2, RhoIn: 0.02, WallSec: 0, CostNH: 1, MemMB: 1}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero wallclock accepted")
	}
}

func TestUniqueCombos(t *testing.T) {
	d := smallDataset()
	if got := d.UniqueCombos(); got != 3 {
		t.Fatalf("UniqueCombos = %d want 3", got)
	}
}

func TestSplitSizes(t *testing.T) {
	d := &Dataset{Jobs: make([]Job, 600)}
	rng := rand.New(rand.NewSource(1))
	p, err := Split(d, 50, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Init) != 50 || len(p.Test) != 200 || len(p.Active) != 350 {
		t.Fatalf("sizes %d/%d/%d", len(p.Init), len(p.Test), len(p.Active))
	}
	if err := p.Validate(600); err != nil {
		t.Fatal(err)
	}
}

func TestSplitValidation(t *testing.T) {
	d := &Dataset{Jobs: make([]Job, 10)}
	rng := rand.New(rand.NewSource(1))
	if _, err := Split(d, 0, 2, rng); err == nil {
		t.Fatal("nInit 0 accepted")
	}
	if _, err := Split(d, 2, 0, rng); err == nil {
		t.Fatal("nTest 0 accepted")
	}
	if _, err := Split(d, 5, 5, rng); err == nil {
		t.Fatal("no-active split accepted")
	}
}

func TestPartitionValidateCatchesCorruption(t *testing.T) {
	p := Partition{Init: []int{0}, Active: []int{1}, Test: []int{1}}
	if err := p.Validate(3); err == nil {
		t.Fatal("duplicate index accepted")
	}
	p2 := Partition{Init: []int{0}, Active: []int{1}, Test: []int{5}}
	if err := p2.Validate(3); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	p3 := Partition{Init: []int{0}, Active: []int{1}}
	if err := p3.Validate(3); err == nil {
		t.Fatal("incomplete cover accepted")
	}
}

// Property: Split always yields a valid exact partition.
func TestSplitPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		d := &Dataset{Jobs: make([]Job, n)}
		nTest := 1 + rng.Intn(n/3)
		nInit := 1 + rng.Intn(n/3)
		p, err := Split(d, nInit, nTest, rng)
		if err != nil {
			return nInit+nTest >= n
		}
		return p.Validate(n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := smallDataset()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Fatalf("round trip length %d want %d", back.Len(), d.Len())
	}
	for i := range d.Jobs {
		if d.Jobs[i] != back.Jobs[i] {
			t.Fatalf("job %d mismatch: %+v vs %+v", i, d.Jobs[i], back.Jobs[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := ReadCSV(strings.NewReader("p,mx,maxlevel,r0,rhoin,wall_sec,cost_nh,mem_mb\nx,8,3,0.2,0.02,1,1,1\n")); err == nil {
		t.Fatal("non-integer p accepted")
	}
	if _, err := ReadCSV(strings.NewReader("p,mx,maxlevel,r0,rhoin,wall_sec,cost_nh,mem_mb\n4,8,3,zz,0.02,1,1,1\n")); err == nil {
		t.Fatal("non-float r0 accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	d := smallDataset()
	path := t.TempDir() + "/ds.csv"
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Fatal("file round trip length mismatch")
	}
}

func TestTableI(t *testing.T) {
	d := smallDataset()
	rows := d.TableI()
	if len(rows) != 8 {
		t.Fatalf("TableI rows = %d want 8", len(rows))
	}
	if rows[0].Name != "p, # of nodes" || rows[0].Min != 4 || rows[0].Max != 32 {
		t.Fatalf("row 0 = %+v", rows[0])
	}
	if rows[6].Max != 11.8 {
		t.Fatalf("cost max = %g", rows[6].Max)
	}
}

// TestGenerateSmallCampaign is the integration test of the full generation
// pipeline at reduced scale (coarse reference, 40 unique + repeats).
func TestGenerateSmallCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("generation pipeline in -short mode")
	}
	ds, err := Generate(GenConfig{
		Seed:      11,
		NumJobs:   50,
		NumUnique: 40,
		RefNx:     48,
		RefTEnd:   0.08,
		RefSnaps:  4,
		Machine:   cluster.Edison(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 50 {
		t.Fatalf("jobs = %d want 50", ds.Len())
	}
	if got := ds.UniqueCombos(); got != 40 {
		t.Fatalf("unique combos = %d want 40", got)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Costs must vary substantially across the grid.
	costs := ds.Cost(nil)
	lo, hi := costs[0], costs[0]
	for _, c := range costs {
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	if hi/lo < 10 {
		t.Fatalf("cost dynamic range only %g", hi/lo)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("generation pipeline in -short mode")
	}
	gen := func() *Dataset {
		ds, err := Generate(GenConfig{
			Seed: 5, NumJobs: 12, NumUnique: 10, RefNx: 32, RefTEnd: 0.05, RefSnaps: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	a, b := gen(), gen()
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("non-deterministic generation at job %d", i)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{NumUnique: 5000, NumJobs: 6000}); err == nil {
		t.Fatal("oversized NumUnique accepted")
	}
	if _, err := Generate(GenConfig{NumUnique: 100, NumJobs: 50}); err == nil {
		t.Fatal("NumJobs < NumUnique accepted")
	}
}

// gridDataset is every combo of the feature grid with its continuous
// features jittered off the grid values, and responses drawn at random.
func gridDataset(rng *rand.Rand) *Dataset {
	d := &Dataset{}
	for _, c := range AllCombos() {
		d.Jobs = append(d.Jobs, Job{
			P: c.P, Mx: c.Mx, MaxLevel: c.MaxLevel,
			R0:      GridR0[0] + rng.Float64()*(GridR0[len(GridR0)-1]-GridR0[0]),
			RhoIn:   GridRhoIn[0] + rng.Float64()*(GridRhoIn[len(GridRhoIn)-1]-GridRhoIn[0]),
			WallSec: 1 + rng.Float64(), CostNH: 1 + rng.Float64(), MemMB: 1 + rng.Float64(),
		})
	}
	return d
}

// The batched design matrices must carry, bit for bit, the per-job
// scalings they replace, for every job and under any index order.
func TestFeaturesMatchPerJobBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d := gridDataset(rng)
	idx := rng.Perm(d.Len())
	for _, tc := range []struct {
		name  string
		batch func([]int) *mat.Dense
		job   func(Job) [NumFeatures]float64
	}{
		{"linear", d.Features, ScaleFeatures},
		{"log2p", d.FeaturesLog2P, scaleFeaturesLog2P},
		{"checked linear", checked(t, d, false), ScaleFeatures},
		{"checked log2p", checked(t, d, true), scaleFeaturesLog2P},
	} {
		for _, order := range [][]int{nil, idx} {
			x := tc.batch(order)
			if x.Rows() != d.Len() {
				t.Fatalf("%s: %d rows for %d jobs", tc.name, x.Rows(), d.Len())
			}
			for r := 0; r < x.Rows(); r++ {
				i := r
				if order != nil {
					i = order[r]
				}
				want := tc.job(d.Jobs[i])
				for c, v := range x.Row(r) {
					if math.Float64bits(v) != math.Float64bits(want[c]) {
						t.Fatalf("%s: row %d (job %d) feature %d = %v, per-job %v", tc.name, r, i, c, v, want[c])
					}
				}
			}
		}
	}
}

// checked adapts CheckedFeatures to the unchecked signature, failing the
// test on an error.
func checked(t *testing.T, d *Dataset, log2p bool) func([]int) *mat.Dense {
	return func(idx []int) *mat.Dense {
		x, err := d.CheckedFeatures(idx, log2p)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
}

// A bad response anywhere in the index, the last position included, is
// reported with its job index and classified as ErrBadResponse, by
// CheckResponses and by the design-row pass of CheckedFeatures alike; with
// two bad jobs, the first in index order is named.
func TestCheckResponsesReportsJobIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	d := gridDataset(rng)
	idx := rng.Perm(d.Len())
	if err := d.CheckResponses(idx); err != nil {
		t.Fatal(err)
	}
	last := idx[len(idx)-1]
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 3; field++ {
			j := d.Jobs[last]
			switch field {
			case 0:
				d.Jobs[last].WallSec = bad
			case 1:
				d.Jobs[last].CostNH = bad
			case 2:
				d.Jobs[last].MemMB = bad
			}
			for _, order := range [][]int{idx, nil} {
				checks := map[string]func([]int) error{
					"CheckResponses": d.CheckResponses,
					"CheckedFeatures": func(idx []int) error {
						x, err := d.CheckedFeatures(idx, false)
						if x != nil {
							t.Fatal("design matrix returned alongside a bad response")
						}
						return err
					},
					"CheckedFeatures log2p": func(idx []int) error {
						_, err := d.CheckedFeatures(idx, true)
						return err
					},
				}
				for name, check := range checks {
					err := check(order)
					if !errors.Is(err, ErrBadResponse) {
						t.Fatalf("%s: response %v in field %d: err = %v, want ErrBadResponse", name, bad, field, err)
					}
					if want := fmt.Sprintf("job %d: ", last); !strings.HasPrefix(err.Error(), want) {
						t.Fatalf("%s: response %v in field %d: %q does not start with %q", name, bad, field, err, want)
					}
				}
			}
			d.Jobs[last] = j
		}
	}

	// Two bad jobs: each pass names the one it reaches first.
	first, second := idx[len(idx)/3], idx[2*len(idx)/3]
	d.Jobs[first].MemMB, d.Jobs[second].CostNH = 0, math.NaN()
	for _, tc := range []struct {
		order []int
		want  int
	}{{idx, first}, {nil, min(first, second)}} {
		for _, err := range []error{d.CheckResponses(tc.order), func() error { _, err := d.CheckedFeatures(tc.order, false); return err }()} {
			if want := fmt.Sprintf("job %d: ", tc.want); !errors.Is(err, ErrBadResponse) || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("two bad jobs: %v, want %q... wrapping ErrBadResponse", err, want)
			}
		}
	}
}

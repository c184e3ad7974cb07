package amr

import (
	"fmt"
	"math"
)

// Reference is a resolved reference solution of the shock-bubble problem:
// snapshots of the relative density-gradient field |∇ρ|/ρ (per unit length)
// plus the maximum wave speed at a sequence of times. The physics depends
// only on the problem's physical parameters (r0, rhoin), so one Reference
// drives the performance emulation for every (p, mx, maxlevel) combination —
// this is what makes regenerating the paper's 600-job campaign tractable on
// a workstation.
type Reference struct {
	Nx, Ny         int
	X0, Y0, X1, Y1 float64
	TEnd           float64
	Snapshots      []RefSnapshot
}

// RefSnapshot is the gradient field and wave speed at one instant. A
// snapshot never changes after ReferenceRun returns, so concurrent
// emulations (dataset.Generate's workers, campaigns sharing a reference)
// read it without a lock.
type RefSnapshot struct {
	T        float64
	Grad     []float64 // Nx*Ny, row-major, |∇ρ|/ρ per unit length
	MaxSpeed float64
}

// ReferenceRun solves the shock-bubble problem on a uniform nx×(nx/2) grid
// (2×1 root layout) to tEnd, capturing nsnap evenly spaced snapshots
// (including t=0 and t=tEnd).
func ReferenceRun(prob ShockBubble, nx int, tEnd float64, nsnap int) (*Reference, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if nx%2 != 0 || nx < 16 {
		return nil, fmt.Errorf("amr: reference nx = %d must be even and >= 16", nx)
	}
	if nsnap < 2 {
		return nil, fmt.Errorf("amr: need at least 2 snapshots, got %d", nsnap)
	}
	cfg := prob.DefaultDomain(nx/2, 1)
	cfg.RegridInterval = 1 << 30 // uniform: never regrid
	mesh, err := NewMesh(cfg)
	if err != nil {
		return nil, err
	}
	ref := &Reference{
		Nx: nx, Ny: nx / 2,
		X0: cfg.X0, Y0: cfg.Y0, X1: cfg.X1, Y1: cfg.Y1,
		TEnd: tEnd,
	}
	snapAt := func() {
		ref.Snapshots = append(ref.Snapshots, takeSnapshot(mesh, nx, nx/2))
	}
	snapAt()
	for s := 1; s < nsnap; s++ {
		target := tEnd * float64(s) / float64(nsnap-1)
		for mesh.Time() < target {
			dt := mesh.MaxStableDt()
			if mesh.Time()+dt > target {
				dt = target - mesh.Time()
			}
			if err := mesh.Step(dt); err != nil {
				return nil, err
			}
		}
		snapAt()
	}
	return ref, nil
}

func takeSnapshot(m *Mesh, nx, ny int) RefSnapshot {
	rho := m.SampleDensity(nx, ny)
	dx := (m.cfg.X1 - m.cfg.X0) / float64(nx)
	dy := (m.cfg.Y1 - m.cfg.Y0) / float64(ny)
	grad := make([]float64, nx*ny)
	at := func(i, j int) float64 {
		i = clampInt(i, 0, nx-1)
		j = clampInt(j, 0, ny-1)
		return rho[j*nx+i]
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			c := at(i, j)
			if c <= 0 {
				continue
			}
			gx := (at(i+1, j) - at(i-1, j)) / (2 * dx)
			gy := (at(i, j+1) - at(i, j-1)) / (2 * dy)
			grad[j*nx+i] = math.Hypot(gx, gy) / c
		}
	}
	var smax float64
	for j := 0; j < ny; j++ {
		y := m.cfg.Y0 + (m.cfg.Y1-m.cfg.Y0)*(float64(j)+0.5)/float64(ny)
		for i := 0; i < nx; i++ {
			x := m.cfg.X0 + (m.cfg.X1-m.cfg.X0)*(float64(i)+0.5)/float64(nx)
			if c, ok := m.Sample(x, y); ok {
				sx, sy := c.ToPrim().MaxWaveSpeed()
				if sx > smax {
					smax = sx
				}
				if sy > smax {
					smax = sy
				}
			}
		}
	}
	return RefSnapshot{T: m.Time(), Grad: grad, MaxSpeed: smax}
}

// quadMax returns the maximum of the snapshot's gradient field over the
// reference cells overlapping quadrant (pi, pj) of the given level in a
// rootsX×rootsY forest. The cell ranges hold both when quadrants are
// coarser than reference cells and when they are finer (then the
// containing cell's value is used).
func (s *RefSnapshot) quadMax(nx, ny, level, rootsX, rootsY, pi, pj int) float64 {
	i0, i1 := cellSpan(pi, nx, rootsX<<(level-1))
	j0, j1 := cellSpan(pj, ny, rootsY<<(level-1))
	var mx float64
	for j := j0; j < j1; j++ {
		for i := i0; i < i1; i++ {
			if g := s.Grad[j*nx+i]; g > mx {
				mx = g
			}
		}
	}
	return mx
}

// cellSpan returns the half-open range [lo, hi) of the n reference cells
// along one axis that overlap quadrant q of the nq quadrants there; it is
// never empty.
func cellSpan(q, n, nq int) (lo, hi int) {
	lo = q * n / nq
	hi = ((q+1)*n + nq - 1) / nq
	if hi > n {
		hi = n
	}
	if hi <= lo {
		hi = lo + 1
	}
	return lo, hi
}

// EmulateConfig selects the grid/machine-independent solver parameters for a
// performance emulation of one job.
type EmulateConfig struct {
	Mx             int
	MaxLevel       int
	RootsX, RootsY int     // default 2×1
	CFL            float64 // default 0.4
	RefineTol      float64 // default 0.02
	RegridInterval int     // default 4
	Subcycle       bool    // level-subcycled time stepping (ForestClaw style)
}

func (c *EmulateConfig) setDefaults() {
	if c.RootsX == 0 {
		c.RootsX = 2
	}
	if c.RootsY == 0 {
		c.RootsY = 1
	}
	if c.CFL <= 0 {
		c.CFL = 0.4
	}
	if c.RefineTol <= 0 {
		c.RefineTol = 0.02
	}
	if c.RegridInterval <= 0 {
		c.RegridInterval = 4
	}
}

// EmulationStats reports the work and footprint a configuration would incur
// over the reference run, in machine-independent units. The cluster package
// converts these into wall-clock seconds and bytes.
type EmulationStats struct {
	CellUpdates         float64 // total interior cell updates
	Steps               float64 // time steps (finest level when subcycling)
	GhostCells          float64 // ghost cells filled
	Regrids             float64 // regrid events
	RegridCells         float64 // cells touched while regridding
	PeakPatches         int     // maximum concurrent quadrants
	MeanPatches         float64 // time-averaged quadrant count
	PatchesPerLevelPeak []int
}

// Emulate computes the work a given configuration performs on the reference
// problem: at each snapshot the adaptive hierarchy the gradient-tagging
// criterion would build is reconstructed (at quadrant granularity, exactly
// as Regrid would), and the cell updates between snapshots are integrated
// using CFL-limited step counts.
func Emulate(ref *Reference, cfg EmulateConfig) (EmulationStats, error) {
	cfg.setDefaults()
	if cfg.Mx < 4 {
		return EmulationStats{}, fmt.Errorf("amr: emulate Mx = %d, need >= 4", cfg.Mx)
	}
	if cfg.MaxLevel < 1 {
		return EmulationStats{}, fmt.Errorf("amr: emulate MaxLevel = %d, need >= 1", cfg.MaxLevel)
	}
	if len(ref.Snapshots) < 2 {
		return EmulationStats{}, fmt.Errorf("amr: reference has %d snapshots, need >= 2", len(ref.Snapshots))
	}

	var st EmulationStats
	st.PatchesPerLevelPeak = make([]int, cfg.MaxLevel)
	width := ref.X1 - ref.X0

	var meanAccum, timeAccum float64
	prevLeaves := overlayLeaves(ref, &ref.Snapshots[0], cfg)
	for s := 1; s < len(ref.Snapshots); s++ {
		snap := &ref.Snapshots[s]
		leaves := overlayLeaves(ref, snap, cfg)
		// Work over the interval [t_{s-1}, t_s] uses the mesh built at the
		// interval's start and the wave speed prevailing over the interval.
		interval := snap.T - ref.Snapshots[s-1].T
		speed := math.Max(snap.MaxSpeed, ref.Snapshots[s-1].MaxSpeed)
		if speed <= 0 || interval <= 0 {
			prevLeaves = leaves
			continue
		}

		active := prevLeaves
		total := 0
		finest := 1
		for l, n := range active {
			total += n
			if n > 0 {
				finest = l + 1
			}
		}
		if total > st.PeakPatches {
			st.PeakPatches = total
		}
		for l, n := range active {
			if n > st.PatchesPerLevelPeak[l] {
				st.PatchesPerLevelPeak[l] = n
			}
		}
		meanAccum += float64(total) * interval
		timeAccum += interval

		cellsPerPatch := float64(cfg.Mx * cfg.Mx)
		ghostPerPatch := float64(4 * (cfg.Mx + 2*NG) * NG)
		dxAt := func(level int) float64 {
			return width / float64((cfg.RootsX<<(level-1))*cfg.Mx)
		}
		if cfg.Subcycle {
			// Each level advances with its own CFL step.
			for l, n := range active {
				if n == 0 {
					continue
				}
				level := l + 1
				steps := interval * speed / (cfg.CFL * dxAt(level))
				st.CellUpdates += float64(n) * cellsPerPatch * steps
				st.GhostCells += float64(n) * ghostPerPatch * steps
				if level == finest {
					st.Steps += steps
				}
			}
		} else {
			// Global time step from the finest occupied level.
			steps := interval * speed / (cfg.CFL * dxAt(finest))
			st.Steps += steps
			st.CellUpdates += float64(total) * cellsPerPatch * steps
			st.GhostCells += float64(total) * ghostPerPatch * steps
		}
		// Regridding every RegridInterval finest-level steps; each event
		// retags every patch and rebuilds the changed fraction.
		stepsFinest := interval * speed / (cfg.CFL * dxAt(finest))
		regrids := stepsFinest / float64(cfg.RegridInterval)
		st.Regrids += regrids
		st.RegridCells += regrids * float64(total) * cellsPerPatch

		prevLeaves = leaves
	}
	if timeAccum > 0 {
		st.MeanPatches = meanAccum / timeAccum
	}
	return st, nil
}

// overlayLeaves reconstructs the leaf counts per level (index level-1) that
// gradient tagging would produce for the snapshot: a quadrant refines when
// the maximum relative gradient within it, scaled by the quadrant's cell
// size, exceeds RefineTol — the same criterion Mesh.Regrid applies.
func overlayLeaves(ref *Reference, snap *RefSnapshot, cfg EmulateConfig) []int {
	counts := make([]int, cfg.MaxLevel)
	width := ref.X1 - ref.X0
	var descend func(level, pi, pj int)
	descend = func(level, pi, pj int) {
		dx := width / float64((cfg.RootsX<<(level-1))*cfg.Mx)
		g := snap.quadMax(ref.Nx, ref.Ny, level, cfg.RootsX, cfg.RootsY, pi, pj)
		if level < cfg.MaxLevel && g*dx > cfg.RefineTol {
			for _, c := range (Key{Level: level, PI: pi, PJ: pj}).Children() {
				descend(c.Level, c.PI, c.PJ)
			}
			return
		}
		counts[level-1]++
	}
	for pj := 0; pj < cfg.RootsY; pj++ {
		for pi := 0; pi < cfg.RootsX; pi++ {
			descend(1, pi, pj)
		}
	}
	return counts
}

package online

import (
	"context"
	"errors"
	"fmt"

	"alamr/internal/dataset"
	"alamr/internal/engine"
)

// The online package contributes the simulation-backed lab and the
// online-mode spec runner to the engine's registries, so online campaigns
// are fully describable as CampaignSpec data and executable through
// engine.RunCampaignSpec:
// {"mode": "online", "online": {"lab": {"name": "sim"}}, ...}.
func init() {
	engine.RegisterLab("sim", func(s engine.LabSpec, _ engine.LabDeps) (engine.Lab, error) {
		return NewSimLab(SimLabConfig{
			RefNx:    s.RefNx,
			RefTEnd:  s.RefTEnd,
			RefSnaps: s.RefSnaps,
			Seed:     s.Seed,
		}), nil
	})
	engine.RegisterModeRunner(engine.ModeOnline,
		func(ctx context.Context, spec engine.CampaignSpec, ds *dataset.Dataset, scope *engine.CampaignObs) (any, error) {
			return RunSpecCtx(ctx, spec, ds, scope)
		})
}

// RunSpec materializes and executes an online-mode campaign spec. The
// dataset is only needed for mem_limit_paper_rule calibration (and for the
// "replay" lab); it may be nil otherwise.
func RunSpec(spec engine.CampaignSpec, ds *dataset.Dataset) (*Result, error) {
	return RunSpecCtx(nil, spec, ds, nil)
}

// RunSpecCtx is RunSpec with a per-campaign obs scope attached (nil records
// into the shared campaign gauges only) and cooperative cancellation: a
// cancelled context ends the campaign with StopCancelled at the next round
// boundary.
func RunSpecCtx(ctx context.Context, spec engine.CampaignSpec, ds *dataset.Dataset, scope *engine.CampaignObs) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Mode != engine.ModeOnline {
		return nil, fmt.Errorf("online: RunSpec needs an online spec, got mode %q", spec.Mode)
	}
	o := spec.Online
	lab, err := engine.BuildLab(o.Lab, engine.LabDeps{Dataset: ds})
	if err != nil {
		return nil, err
	}
	// The lab is this call's own: close it on every return, so a remote
	// dispatcher's listener never outlives its campaign.
	if c, ok := lab.(interface{ Close() }); ok {
		defer c.Close()
	}
	pol, err := engine.BuildPolicy(spec.Policy)
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Policy:          pol,
		InitDesign:      o.InitDesign,
		Budget:          o.Budget,
		MaxExperiments:  o.MaxExperiments,
		Seed:            spec.Seed,
		Model:           spec.Model,
		Fidelity:        spec.Fidelity,
		CheckpointPath:  o.CheckpointPath,
		CheckpointEvery: o.CheckpointEvery,
		Campaign:        scope,
	}
	if ctx != nil && ctx.Done() != nil {
		cfg.Stop = func() bool { return ctx.Err() != nil }
	}
	if spec.Kernel != nil {
		if cfg.Kernel, err = engine.BuildKernel(*spec.Kernel); err != nil {
			return nil, err
		}
	}
	if o.MaxAttempts > 0 {
		cfg.Retry.MaxAttempts = o.MaxAttempts
	}
	switch {
	case spec.MemLimitPaperRule:
		if ds == nil {
			return nil, errors.New("online: mem_limit_paper_rule needs the offline dataset for calibration")
		}
		cfg.MemLimitMB = engine.PaperMemLimitMB(ds)
	case spec.MemLimitMB > 0:
		cfg.MemLimitMB = spec.MemLimitMB
	}
	return Run(lab, cfg)
}

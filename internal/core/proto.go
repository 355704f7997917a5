package core

// Scale selects which variant of an experiment's protocol a registry Run
// uses. The concrete numbers for each scale live with the experiment's
// ConfigFor function, so cmd/azbench and cmd/azvalidate no longer carry
// their own (drifting) copies of the reduced protocols.
type Scale int

const (
	// PaperScale is the full protocol as published (1-192 client ladders,
	// 1 GB blobs, 431 lifecycle runs, …).
	PaperScale Scale = iota
	// QuickScale is the reduced protocol behind azbench -quick: fast
	// local runs that still show every qualitative effect.
	QuickScale
	// ValidateScale is the calibrated reduced protocol cmd/azvalidate
	// checks anchors against; its tolerances are tuned to these shapes.
	ValidateScale
)

func (s Scale) String() string {
	switch s {
	case QuickScale:
		return "quick"
	case ValidateScale:
		return "validate"
	default:
		return "paper"
	}
}

// Proto is the block of scale knobs shared by every experiment config:
// the root seed, the concurrency ladder, the repetition count, and the
// scheduler width. Experiment configs embed it, so existing field access
// (cfg.Seed, cfg.Clients, cfg.Runs) keeps working; the registry entry
// points take a bare Proto and expand it into the experiment's concrete
// config via its ConfigFor function.
//
// Scale and Size are consulted only on the registry path: direct RunX
// callers pass fully-specified configs and may leave them zero.
type Proto struct {
	Seed    uint64
	Clients []int // concurrency ladder, where the experiment sweeps one
	Runs    int   // repetitions, where the experiment repeats
	Workers int   // scheduler width for independent cells; ≤1 = serial

	Scale Scale // which protocol variant a registry Run expands to
	Size  int   // payload-size override in bytes (blob/entity/message); 0 = scale default
}

// Defaults returns the Proto block the paper-scale protocols start from:
// the paper's seed, serial execution. Experiments layer their own ladder
// and repetition defaults on top.
func Defaults() Proto {
	return Proto{Seed: 42, Workers: 1}
}

// Apply merges the caller's explicit knobs into a scale-derived base
// block: Workers always transfers, Seed when set (0 keeps the scale
// default of 42 usable as "unspecified"), Clients and Runs only when the
// caller overrode them.
func (p Proto) Apply(base Proto) Proto {
	if p.Seed != 0 {
		base.Seed = p.Seed
	}
	base.Workers = p.Workers
	if p.Clients != nil {
		base.Clients = p.Clients
	}
	if p.Runs != 0 {
		base.Runs = p.Runs
	}
	base.Scale = p.Scale
	base.Size = p.Size
	return base
}

package soak

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pok/internal/check"
	"pok/internal/check/inject"
	"pok/internal/check/reduce"
	"pok/internal/gen"
)

// Bundle is the self-contained description of one minimized repro: the
// repro.json half of a bundle directory (prog.s is the other half).
// Everything needed to re-run the failure standalone is here — seed,
// generator options, machine config, injection options and
// the expected failure signature — plus a ready-made pok-check command
// line.
type Bundle struct {
	Name   string      `json:"name"`
	Seed   uint64      `json:"seed"`
	Gen    gen.Options `json:"gen"`
	Config string      `json:"config"`
	// Inject is nil for clean-config findings.
	Inject *inject.Options `json:"inject,omitempty"`

	// Expected failure signature (the reducer verified the minimized
	// program still produces exactly this).
	Kind   string `json:"kind"`
	Field  string `json:"field,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Want/Got carry the expected-vs-actual commit diff for
	// divergences.
	Want string `json:"want,omitempty"`
	Got  string `json:"got,omitempty"`

	// BodyInsts is the minimized body instruction count.
	BodyInsts int    `json:"body_insts"`
	MaxInsts  uint64 `json:"max_insts,omitempty"`

	// PokCheck is a copy-pasteable command that replays the repro
	// standalone from the bundle directory.
	PokCheck string `json:"pok_check"`
}

// WriteBundle writes a repro bundle (prog.s + repro.json) for finding f
// under outDir and returns the bundle path relative to outDir.
func WriteBundle(outDir string, f *Finding, prog *gen.Program, minBody []string,
	injOpts *inject.Options, maxInsts uint64, res reduce.RunResult) (string, error) {
	rel := bundleDirName(f)
	dir := filepath.Join(outDir, rel)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	src := gen.Render(prog.Prologue, minBody, prog.Epilogue)
	if err := os.WriteFile(filepath.Join(dir, "prog.s"), []byte(src), 0o644); err != nil {
		return "", err
	}
	b := &Bundle{
		Name:      filepath.Base(rel),
		Seed:      f.Seed,
		Gen:       prog.Opts,
		Config:    f.Config,
		Inject:    injOpts,
		Kind:      f.Kind,
		Field:     f.Field,
		Detail:    f.Detail,
		BodyInsts: gen.InstCount(minBody),
		MaxInsts:  maxInsts,
		PokCheck:  pokCheckCommand(f, injOpts, maxInsts),
	}
	if res.Report != nil && res.Report.Divergence != nil {
		b.Want = res.Report.Divergence.Want
		b.Got = res.Report.Divergence.Got
	}
	js, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	js = append(js, '\n')
	if err := os.WriteFile(filepath.Join(dir, "repro.json"), js, 0o644); err != nil {
		return "", err
	}
	return rel, nil
}

// pokCheckCommand renders the standalone replay command for a bundle.
func pokCheckCommand(f *Finding, injOpts *inject.Options, maxInsts uint64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "go run ./cmd/pok-check -prog prog.s -config %s", f.Config)
	if maxInsts > 0 {
		fmt.Fprintf(&sb, " -insts %d", maxInsts)
	} else {
		sb.WriteString(" -insts 0")
	}
	if injOpts != nil {
		switch {
		case injOpts.CorruptOn:
			fmt.Fprintf(&sb, " -corrupt %d", injOpts.CorruptAt)
		case injOpts.WedgeOn:
			fmt.Fprintf(&sb, " -wedge %d", injOpts.WedgeSeq)
		}
		if injOpts.SliceFlipRate > 0 || injOpts.WayMissRate > 0 ||
			injOpts.ConflictRate > 0 || injOpts.StormEvery > 0 {
			fmt.Fprintf(&sb,
				" -inject -seed %d -flip-rate %g -waymiss-rate %g -conflict-rate %g -storm-every %d -storm-len %d",
				injOpts.Seed, injOpts.SliceFlipRate, injOpts.WayMissRate,
				injOpts.ConflictRate, injOpts.StormEvery, injOpts.StormLen)
		}
	}
	return sb.String()
}

// LoadBundle reads a bundle directory's repro.json and prog.s.
func LoadBundle(dir string) (*Bundle, string, error) {
	js, err := os.ReadFile(filepath.Join(dir, "repro.json"))
	if err != nil {
		return nil, "", err
	}
	var b Bundle
	if err := json.Unmarshal(js, &b); err != nil {
		return nil, "", fmt.Errorf("bundle %s: %w", dir, err)
	}
	src, err := os.ReadFile(filepath.Join(dir, "prog.s"))
	if err != nil {
		return nil, "", err
	}
	return &b, string(src), nil
}

// ReplayBundle re-executes a repro bundle exactly as recorded and
// returns the observed outcome alongside the bundle's expectation. The
// repro reproduces iff result.Outcome.Matches(bundle's signature) —
// which Reproduces checks for you.
func ReplayBundle(dir string) (*Bundle, reduce.RunResult, error) {
	b, src, err := LoadBundle(dir)
	if err != nil {
		return nil, reduce.RunResult{}, err
	}
	cfg, err := ConfigByName(b.Config)
	if err != nil {
		return nil, reduce.RunResult{}, err
	}
	opts := checkOptionsFor(b)
	res := reduce.CheckRunner(cfg, opts, 2*time.Minute)(src)
	return b, res, nil
}

// Reproduces reports whether a replay observation matches the bundle's
// recorded failure signature.
func (b *Bundle) Reproduces(res reduce.RunResult) bool {
	return res.Outcome.Matches(reduce.Outcome{Kind: b.Kind, Field: b.Field})
}

func checkOptionsFor(b *Bundle) check.Options {
	opts := check.Options{Benchmark: b.Name, MaxInsts: b.MaxInsts}
	if b.Inject != nil {
		opts.Injector = inject.New(*b.Inject)
	}
	return opts
}

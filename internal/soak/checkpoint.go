package soak

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// Checkpoint is the resumable frontier of a soak campaign. Because a
// program's generator seed is a pure function of (BaseSeed, index)
// (gen.ProgramSeed), the only RNG state the snapshot needs is the
// cursor: resuming at NextProgram regenerates exactly the programs an
// uninterrupted run would have produced.
type Checkpoint struct {
	Version int `json:"version"`
	// Sig fingerprints the campaign options that affect coverage; a
	// resume with a different campaign is refused rather than silently
	// mixing seed spaces.
	Sig         string    `json:"sig"`
	BaseSeed    uint64    `json:"base_seed"`
	NextProgram int       `json:"next_program"`
	Runs        int       `json:"runs"`
	Findings    []Finding `json:"findings"`

	// NextCell / CellSnap extend the cursor to instruction granularity
	// (Options.CkptInsts): when present, program NextProgram was
	// interrupted mid-matrix — cells with flat index below NextCell
	// (config-major, then injection seed) are already covered by
	// Runs/Findings, and CellSnap is cell NextCell's latest
	// architectural snapshot (ckpt.Encode bytes; base64 in the JSON).
	// Program-boundary checkpoints omit both, so version 1 files stay
	// readable in either direction.
	NextCell int    `json:"next_cell,omitempty"`
	CellSnap []byte `json:"cell_snap,omitempty"`
}

const checkpointVersion = 1

// optionsSig fingerprints every option that changes which (program,
// config, injection) cells the campaign covers. Output and
// pacing knobs (OutDir, Watchdog, CheckpointEvery, Log, Duration,
// Programs) are deliberately excluded: extending a time box or raising
// the program target is a valid resume.
func optionsSig(o Options) string {
	h := fnv.New64a()
	// CkptInsts is part of the signature even though it looks like a
	// pacing knob: checkpoint drains perturb run timing
	// deterministically, so cycle-dependent finding details are
	// reproducible only under the same cadence.
	fmt.Fprintf(h, "%d|%v|%d|%+v|%d|%+v|%+v|%d",
		o.BaseSeed, o.Configs, o.InjectSeeds, o.Inject,
		o.MaxInsts, o.Gen, o.Hook, o.CkptInsts)
	return fmt.Sprintf("%016x", h.Sum64())
}

// SaveCheckpoint writes cp atomically (temp file + rename) so a soak
// killed mid-snapshot never leaves a truncated checkpoint behind.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	b, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("checkpoint %s: version %d, want %d",
			path, cp.Version, checkpointVersion)
	}
	return &cp, nil
}

func saveProgress(opts Options, next int, rep *Report) error {
	return SaveCheckpoint(opts.Checkpoint, &Checkpoint{
		Version:     checkpointVersion,
		Sig:         optionsSig(opts),
		BaseSeed:    opts.BaseSeed,
		NextProgram: next,
		Runs:        rep.Runs,
		Findings:    rep.Findings,
	})
}

// saveCursor writes a mid-program checkpoint: the campaign is inside
// cell `cell` of program `program`, whose latest architectural snapshot
// is snapBytes. Runs/Findings cover everything before that point.
func saveCursor(opts Options, program, cell int, snapBytes []byte, rep *Report) error {
	return SaveCheckpoint(opts.Checkpoint, &Checkpoint{
		Version:     checkpointVersion,
		Sig:         optionsSig(opts),
		BaseSeed:    opts.BaseSeed,
		NextProgram: program,
		NextCell:    cell,
		CellSnap:    snapBytes,
		Runs:        rep.Runs,
		Findings:    rep.Findings,
	})
}

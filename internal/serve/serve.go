// Package serve is the distributed-simulation fleet: a coordinator
// that accepts jobs (soak campaigns, bench sweeps) over HTTP/JSON,
// shards them into cells, and hands cells to worker processes through
// a pull-based work queue with leases, heartbeats and
// requeue-on-worker-death. It is the scaling layer the ROADMAP's soak
// campaigns, bench sweeps and CI gates run on.
//
// The design leans entirely on determinism already built below it:
//
//   - a soak program's seed is a pure function of (BaseSeed, index)
//     (gen.ProgramSeed), so a campaign shards into [start, end) index
//     ranges whose union covers exactly what a single process covers;
//   - the soak cursor (soak.Options.StartProgram + the per-program
//     Progress hook) is the same resumable frontier the checkpoint
//     files use, so a killed worker's cell resumes exactly where its
//     last heartbeat left it;
//   - findings dedupe by the shared failure signature (internal/sig) —
//     the identical matcher the ddmin reducer uses — so the
//     coordinator's dedupe can never disagree with a local soak's.
//
// Work stealing: an idle worker that finds the queue empty splits the
// tail off the running cell with the most remaining programs. The
// split point is chosen at least two programs past the victim's last
// reported cursor; because workers heartbeat after every program, the
// victim always learns its shrunken end before crossing it, so stolen
// ranges never overlap and never leave a gap.
//
// The coordinator keeps all state in memory and trusts its workers
// (it is a lab fleet, not a public service); jobs lost to a
// coordinator crash are simply resubmitted — every job is
// deterministic and idempotent.
//
// cmd/pok-serve is the CLI (coordinator, worker, submit and status
// modes); pok-soak and pok-bench gain -submit to run existing
// campaigns as fleet jobs unchanged.
package serve

import (
	"fmt"
	"time"

	"pok/internal/check/inject"
	"pok/internal/gen"
	"pok/internal/soak"
)

// JobSpec is a submitted job: exactly one of Soak / Bench is set,
// matching Kind.
type JobSpec struct {
	Kind  string     `json:"kind"` // "soak" | "bench"
	Soak  *SoakSpec  `json:"soak,omitempty"`
	Bench *BenchSpec `json:"bench,omitempty"`
	// SubmitKey, when non-empty, makes submission idempotent: the
	// coordinator remembers the key and a retried (or transport-
	// duplicated) submission returns the existing job instead of
	// creating a second one. Client.Submit fills one in automatically.
	SubmitKey string `json:"submit_key,omitempty"`
}

// SoakSpec is a differential soak campaign as a fleet job — the
// JSON-serializable subset of soak.Options (paths, logging and pacing
// stay per-worker). The campaign covers program indices [0, Programs)
// of BaseSeed, sharded into cells of CellPrograms.
type SoakSpec struct {
	BaseSeed    uint64          `json:"base_seed"`
	Programs    int             `json:"programs"`
	Configs     []string        `json:"configs,omitempty"`
	InjectSeeds int             `json:"inject_seeds,omitempty"`
	Inject      inject.Options  `json:"inject,omitempty"`
	Hook        *inject.Options `json:"hook,omitempty"`
	MaxInsts    uint64          `json:"max_insts,omitempty"`
	Watchdog    time.Duration   `json:"watchdog,omitempty"`
	Retries     int             `json:"retries,omitempty"`
	NoReduce    bool            `json:"no_reduce,omitempty"`
	// ReduceMaxTests caps candidate evaluations per reduction.
	ReduceMaxTests int `json:"reduce_max_tests,omitempty"`
	// MaxFindings, when set, stops an individual cell early after this
	// many findings. Unlike a single-process soak it applies per cell,
	// not per campaign — a campaign-wide early stop would make the
	// merged findings depend on cell scheduling order. 0 = no cap.
	MaxFindings int         `json:"max_findings,omitempty"`
	Gen         gen.Options `json:"gen,omitempty"`
	// InstCkpt arms instruction-granular checkpointing inside every
	// detection run (soak.Options.CkptInsts): workers heartbeat a
	// mid-program ResumeCursor so a reaped lease requeues at the last
	// drained snapshot instead of the last program boundary. Coverage
	// -affecting (drains perturb timing deterministically), so all
	// cells and any solo run being compared must use the same cadence.
	InstCkpt uint64 `json:"inst_ckpt,omitempty"`
	// CellPrograms is the shard size in programs (0 = Programs/8,
	// rounded up, minimum 1).
	CellPrograms int `json:"cell_programs,omitempty"`
}

// BenchSpec is a benchmark sweep as a fleet job: every benchmark ×
// config cell simulated with the workload's standard fast-forward and
// the given instruction budget. Cells shard per benchmark.
type BenchSpec struct {
	Benchmarks []string `json:"benchmarks"`
	Configs    []string `json:"configs,omitempty"`
	MaxInsts   uint64   `json:"max_insts,omitempty"`
}

// BenchRow is one (benchmark, config) result of a bench job.
type BenchRow struct {
	Benchmark string  `json:"benchmark"`
	Config    string  `json:"config"`
	IPC       float64 `json:"ipc"`
	Cycles    int64   `json:"cycles"`
	Insts     uint64  `json:"insts"`
}

// JobResult is a completed job's merged outcome. For soak jobs the
// report is byte-identical (same JSON) to the report a single-process
// run of the same campaign writes, provided no early-stop cap was hit:
// cells partition the program index space and merge in index order.
type JobResult struct {
	Soak  *soak.Report `json:"soak,omitempty"`
	Bench []BenchRow   `json:"bench,omitempty"`
}

// normalize applies the soak harness's coverage defaults so the merged
// report echoes the same Configs a single-process run records, and
// validates the spec.
func (s *JobSpec) normalize() error {
	switch s.Kind {
	case "soak":
		if s.Soak == nil {
			return fmt.Errorf("serve: soak job without soak spec")
		}
		return s.Soak.normalize()
	case "bench":
		if s.Bench == nil {
			return fmt.Errorf("serve: bench job without bench spec")
		}
		return s.Bench.normalize()
	default:
		return fmt.Errorf("serve: unknown job kind %q (soak, bench)", s.Kind)
	}
}

func (s *SoakSpec) normalize() error {
	if s.Programs <= 0 {
		return fmt.Errorf("serve: soak job needs programs > 0 (fleet cells are program-count sharded, not time-boxed)")
	}
	if len(s.Configs) == 0 {
		s.Configs = []string{"simple4", "slice2", "slice4"}
	}
	for _, name := range s.Configs {
		if _, err := soak.ConfigByName(name); err != nil {
			return err
		}
	}
	return nil
}

func (s *BenchSpec) normalize() error {
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("serve: bench job needs at least one benchmark")
	}
	if len(s.Configs) == 0 {
		s.Configs = []string{"simple4", "slice2", "slice4"}
	}
	for _, name := range s.Configs {
		if _, err := soak.ConfigByName(name); err != nil {
			return err
		}
	}
	return nil
}

// cellSize is the shard size in programs.
func (s *SoakSpec) cellSize() int {
	if s.CellPrograms > 0 {
		return s.CellPrograms
	}
	return max(1, (s.Programs+7)/8)
}

// Options maps the spec onto worker-side soak options for one cell;
// the caller sets StartProgram/Programs to the cell's range. A zero
// MaxFindings becomes effectively-unbounded rather than the soak
// harness's campaign default of 20: fleet cells must not early-stop
// behind the coordinator's back.
func (s *SoakSpec) Options(outDir string) soak.Options {
	maxF := s.MaxFindings
	if maxF == 0 {
		maxF = 1 << 30
	}
	return soak.Options{
		BaseSeed:       s.BaseSeed,
		Programs:       s.Programs,
		Configs:        s.Configs,
		InjectSeeds:    s.InjectSeeds,
		Inject:         s.Inject,
		Hook:           s.Hook,
		MaxInsts:       s.MaxInsts,
		Watchdog:       s.Watchdog,
		Retries:        s.Retries,
		NoReduce:       s.NoReduce,
		ReduceMaxTests: s.ReduceMaxTests,
		MaxFindings:    maxF,
		OutDir:         outDir,
		Gen:            s.Gen,
		CkptInsts:      s.InstCkpt,
	}
}

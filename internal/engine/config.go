// Package engine executes programs under the paper's three execution
// models: sequential (the correctness ground truth and the uniprocessor
// baseline for speedups), HOSE (hardware-only speculative execution,
// Definition 2) and CASE (compiler-assisted speculative execution,
// Definition 4).
//
// The speculative engine is a deterministic discrete-event simulator of a
// Multiplex-style chip multiprocessor: P processors, one in-flight segment
// per processor, per-segment speculative buffers, an L1/L2/DRAM hierarchy
// as non-speculative storage, in-order segment commit, flow- and
// control-violation detection with rollback, and speculative-storage
// overflow that stalls a segment until it becomes the oldest (which
// serializes execution — the bottleneck the paper attacks). Speculation is
// simulated for real: segments execute eagerly on stale values, write
// temporarily incorrect results, get squashed and re-execute, so the final
// memory state genuinely validates Lemmas 1 and 2 against the sequential
// engine.
package engine

import (
	"refidem/internal/obs"
	"refidem/internal/specmem"
)

// Mode selects the execution model.
type Mode uint8

const (
	// Sequential executes the program serially on one processor; all
	// references access the non-speculative hierarchy.
	Sequential Mode = iota
	// HOSE is hardware-only speculative execution: every reference is
	// tracked in speculative storage (Definition 2).
	HOSE
	// CASE is compiler-assisted speculative execution: references labeled
	// idempotent bypass speculative storage (Definition 4).
	CASE
)

func (m Mode) String() string {
	switch m {
	case Sequential:
		return "sequential"
	case HOSE:
		return "HOSE"
	default:
		return "CASE"
	}
}

// Config carries the machine parameters. The defaults model a 4-processor
// chip multiprocessor with kilobyte-scale speculative storage, in the
// spirit of the paper's Multiplex evaluation.
type Config struct {
	// Processors is the number of processors (and the size of the
	// in-flight segment window).
	Processors int
	// SpecCapacity is the per-segment speculative storage capacity in
	// entries (tracked locations). The paper's systems use small (KB)
	// structures; 128 eight-byte entries is 1 KB of data.
	SpecCapacity int
	// SpecSets organizes the speculative storage set-associatively with
	// SpecSets address-indexed sets of SpecCapacity/SpecSets ways each
	// (like the speculative versioning cache); a set conflict overflows
	// even when total capacity remains. 0 means fully associative.
	SpecSets int
	// Hier configures the non-speculative memory hierarchy.
	Hier specmem.HierarchyConfig
	// SpecLatency is the access latency of speculative storage.
	SpecLatency int64
	// CommitPerEntry is the commit cost per written entry.
	CommitPerEntry int64
	// RollbackPenalty is charged to a squashed segment before restart.
	RollbackPenalty int64
	// DispatchCost is charged when a segment is assigned to a processor.
	DispatchCost int64
	// StackSetupCost is charged per segment that uses privatized
	// variables (the per-segment private stack setup the paper observes
	// in the private category, §5.1).
	StackSetupCost int64
	// OpCost is the cost of one non-memory instruction.
	OpCost int64
	// Seed fills the initial memory image deterministically.
	Seed int64
	// MaxEvents bounds the simulation as a livelock guard.
	MaxEvents int64
	// Timeline, when non-nil, receives the run's speculation timeline:
	// segment spawn/commit/squash events with their causes and the refs
	// involved, and overflow stalls, all stamped with simulated cycles
	// (obs.WriteChromeTrace exports the log as Perfetto-loadable Chrome
	// trace JSON). Purely observational: cycle counts, memory and
	// statistics are identical with a timeline attached, and the nil
	// default costs the event loop one pointer check. RunSequential
	// ignores it — spawn, squash and commit are speculation concepts. A
	// Timeline must not be shared by concurrent runs.
	Timeline *obs.Timeline
	// SpecThreshold enables confidence-driven speculation under CASE: a
	// reference whose ensemble-derived P(idempotent) (idem.Result.Prob)
	// is at least the threshold bypasses speculative storage even when
	// Algorithm 2 could not prove it idempotent; below it, the reference
	// follows the conservative speculative protocol as usual. 0 disables
	// the policy, and 1.0 is an exact no-op (P reaches 1 only for proved
	// references). Promotion trades guard traffic for misspeculation
	// risk — the threshold is the knob the ensemble ablation sweeps.
	SpecThreshold float64
}

// DefaultConfig returns the baseline machine used by the experiments.
func DefaultConfig() Config {
	return Config{
		Processors:      4,
		SpecCapacity:    128,
		Hier:            specmem.DefaultHierarchy(),
		SpecLatency:     1,
		CommitPerEntry:  2,
		RollbackPenalty: 12,
		DispatchCost:    4,
		StackSetupCost:  16,
		OpCost:          1,
		Seed:            0x9E3779B9,
		MaxEvents:       500_000_000,
	}
}

// PressureConfig returns the baseline machine shrunk to a tiny
// speculative storage and a narrow processor window. Overflow, stall and
// bypass paths dominate under it, which is exactly what the pressure
// property tests and the fuzzer's pressure probe want to exercise.
func PressureConfig() Config {
	c := DefaultConfig()
	c.SpecCapacity = 3
	c.Processors = 3
	return c
}

// Stats aggregates what happened during a run.
type Stats struct {
	// DynRefs counts dynamic references in retired (final) executions.
	DynRefs int64
	// IdemRefs counts retired references that bypassed speculative
	// storage (CASE only).
	IdemRefs int64
	// SpecPromotedRefs counts retired references that bypassed only
	// because Config.SpecThreshold promoted them (their label stayed
	// Speculative but P(idempotent) cleared the threshold).
	SpecPromotedRefs int64
	// RefsByCategory counts retired references per idempotency category
	// (indexed by idem.Category converted to int).
	RefsByCategory [8]int64
	// FlowViolations counts data-dependence violations detected.
	FlowViolations int64
	// ControlViolations counts mispredicted segment successors.
	ControlViolations int64
	// SquashedSegments counts segment executions thrown away.
	SquashedSegments int64
	// Overflows counts speculative storage overflow events.
	Overflows int64
	// OverflowStallCycles accumulates cycles segments spent stalled on
	// overflow.
	OverflowStallCycles int64
	// CommittedEntries counts entries moved to non-speculative storage.
	CommittedEntries int64
	// PeakSpecOccupancy is the maximum entries observed in any segment
	// buffer.
	PeakSpecOccupancy int
	// SegmentsRetired counts committed segment executions.
	SegmentsRetired int64
	// Instructions counts non-memory instructions in retired executions.
	Instructions int64
	// BusyCycles accumulates, over all processors, the cycles spent
	// executing segment instances (including squashed work); dividing by
	// Processors*Cycles gives machine utilization.
	BusyCycles int64
}

// Result of a run.
type Result struct {
	Mode   Mode
	Cycles int64
	Memory []int64
	Layout *Layout
	Stats  Stats
}

// SameRunAtCapacity reports whether a speculative run on cfg that ended
// with the given overflow count and peak occupancy (Stats.Overflows and
// Stats.PeakSpecOccupancy) is also, in cycles, memory and every Stats
// field, the run on cfg with SpecCapacity set to capacity. It is the rule
// that lets one run answer many capacities — the one-pass-for-all-sizes
// idea of Mattson et al.'s stack simulation of storage hierarchies.
//
// Capacity enters a run only through the speculative buffers' overflow
// check. A saturated run, one with zero overflows, passed every check
// with no buffer ever holding more than peak entries, so it passes each
// of them again at any capacity >= peak and cannot tell the capacities
// apart; at peak-1 its busiest buffer overflows. The rule needs a fully
// associative storage (SpecSets <= 1: with sets, capacity also sets the
// ways per set).
func SameRunAtCapacity(cfg Config, overflows int64, peak, capacity int) bool {
	return cfg.SpecSets <= 1 && overflows == 0 && capacity >= peak
}

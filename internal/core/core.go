// Package core is the top-level verification engine: it dispatches a k-AV
// query to the right algorithm (zone-based Gibbons–Korach test for k=1, FZF
// or LBT for k=2, the exact oracle for k >= 3 and for weighted queries) and
// implements the smallest-k search sketched in Section II-B of the paper.
package core

import (
	"errors"
	"fmt"

	"kat/internal/history"
	"kat/internal/oracle"
	"kat/internal/witness"
)

// Algorithm selects the verification algorithm.
type Algorithm int

const (
	// AlgoAuto picks the best algorithm for the given k: zones for k=1,
	// FZF for k=2, the exact oracle otherwise.
	AlgoAuto Algorithm = iota + 1
	// AlgoZones forces the Gibbons–Korach zone test (k=1 only).
	AlgoZones
	// AlgoLBT forces LBT (k=2 only).
	AlgoLBT
	// AlgoFZF forces FZF (k=2 only).
	AlgoFZF
	// AlgoOracle forces the exact search (any k; exponential worst case).
	AlgoOracle
)

var algoNames = [...]string{AlgoAuto: "auto", AlgoZones: "zones", AlgoLBT: "lbt", AlgoFZF: "fzf", AlgoOracle: "oracle"}

// String names the algorithm.
func (a Algorithm) String() string {
	if a >= AlgoAuto && int(a) < len(algoNames) {
		return algoNames[a]
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ErrAlgorithmMismatch is returned when a forced algorithm cannot decide the
// requested k (e.g., LBT with k=3).
var ErrAlgorithmMismatch = errors.New("core: algorithm cannot decide this k")

// Options tune verification.
type Options struct {
	// Algorithm forces a specific algorithm (default AlgoAuto).
	Algorithm Algorithm
	// OracleStates bounds the oracle's search (0 = package default).
	OracleStates int
	// Memo is ignored: the verdict cache it selected is gone (see Memo). The
	// field is a compile shim for bench/child.go, which only a benchmark PR
	// may edit; the next one drops that line and deletes field and type.
	Memo *Memo
	// MinParallelOps is the smallest history (in operations) whose units a
	// pool worker forks for other workers to claim; smaller histories run
	// the same units one after another on the calling worker, so tiny keys
	// don't pay fork overhead. 0 uses DefaultMinParallelOps; negative forks
	// regardless of size and worker count (equivalence tests and fuzzing).
	MinParallelOps int
}

// DefaultMinParallelOps is the Options.MinParallelOps default: below this
// many operations a single register's units are cheaper to run one after
// another than to schedule.
const DefaultMinParallelOps = 2048

// Report is the outcome of a verification run.
type Report struct {
	// K is the staleness bound that was checked.
	K int
	// Atomic is the decision.
	Atomic bool
	// Witness is a valid k-atomic total order over operation indices of
	// the prepared history, when Atomic.
	Witness []int
	// Algorithm records which algorithm decided.
	Algorithm Algorithm
	// Prepared is the normalized, sorted history the decision refers to
	// (witness indices point into it).
	Prepared *history.Prepared
}

// CheckWeighted decides the weighted k-AV problem of Section V with the
// exact oracle.
func CheckWeighted(h *history.History, bound int64, opts Options) (Report, error) {
	p, err := history.Build(h)
	if err != nil {
		return Report{}, fmt.Errorf("core: %w", err)
	}
	res, err := oracle.CheckWeighted(p, bound, oracle.Options{MaxStates: opts.OracleStates})
	if err != nil {
		return Report{}, fmt.Errorf("core: %w", err)
	}
	rep := Report{K: int(bound), Atomic: res.Atomic, Witness: res.Witness,
		Algorithm: AlgoOracle, Prepared: p}
	if rep.Atomic {
		if err := witness.ValidateWeighted(p, rep.Witness, bound); err != nil {
			return Report{}, fmt.Errorf("core: internal error, invalid witness: %w", err)
		}
	}
	return rep, nil
}

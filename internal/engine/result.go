package engine

import (
	"github.com/pardon-feddg/pardon/internal/fl"
)

// RoundStat is one evaluation snapshot of a run, mirroring fl.RoundStats
// in a JSON-stable form.
type RoundStat struct {
	Round   int     `json:"round"`
	ValAcc  float64 `json:"val_acc"`
	TestAcc float64 `json:"test_acc"`
}

// Timing is the per-phase wall-clock breakdown of a run (the paper's
// Fig. 4), serialized in seconds.
type Timing struct {
	SetupSec        float64 `json:"setup_sec"`
	LocalTrainSec   float64 `json:"local_train_sec"`
	LocalTrainCount int     `json:"local_train_count"`
	AggregateSec    float64 `json:"aggregate_sec"`
	AggregateCount  int     `json:"aggregate_count"`
}

// AvgLocalTrainSec returns mean local-training seconds per client per
// round.
func (t Timing) AvgLocalTrainSec() float64 {
	if t.LocalTrainCount == 0 {
		return 0
	}
	return t.LocalTrainSec / float64(t.LocalTrainCount)
}

// AvgAggregateSec returns mean aggregation seconds per round.
func (t Timing) AvgAggregateSec() float64 {
	if t.AggregateCount == 0 {
		return 0
	}
	return t.AggregateSec / float64(t.AggregateCount)
}

// Result is the memoized outcome of a job: the run's evaluation history
// and timing. The trained model is not part of it; it is stored as the
// checkpoint blob under the same content-address (Engine.ModelBlob).
// Results are stored by Spec content-address, so they must be fully
// reproducible from the Spec (wall-clock timing is informational and
// exempt).
type Result struct {
	// SpecHash is the content-address of the producing Spec.
	SpecHash string `json:"spec_hash,omitempty"`
	// Method echoes the Spec's method name.
	Method string `json:"method,omitempty"`
	// Stats holds the evaluation snapshots in round order.
	Stats []RoundStat `json:"stats,omitempty"`
	// Timing is the phase wall-clock breakdown of the producing run.
	Timing Timing `json:"timing"`
	// ElapsedSec is the producing run's total wall-clock (informational;
	// a cache hit returns the original run's value).
	ElapsedSec float64 `json:"elapsed_sec"`
}

// Final returns the last evaluation snapshot (zero value if none).
func (r *Result) Final() RoundStat {
	if len(r.Stats) == 0 {
		return RoundStat{}
	}
	return r.Stats[len(r.Stats)-1]
}

// resultFromHistory converts an fl.History into the serializable form.
func resultFromHistory(hash, method string, hist *fl.History) *Result {
	res := &Result{SpecHash: hash, Method: method}
	for _, st := range hist.Stats {
		res.Stats = append(res.Stats, RoundStat{Round: st.Round, ValAcc: st.ValAcc, TestAcc: st.TestAcc})
	}
	res.Timing = Timing{
		SetupSec:        hist.Timing.Setup.Seconds(),
		LocalTrainSec:   hist.Timing.LocalTrain.Seconds(),
		LocalTrainCount: hist.Timing.LocalTrainCount,
		AggregateSec:    hist.Timing.Aggregate.Seconds(),
		AggregateCount:  hist.Timing.AggregateCount,
	}
	return res
}

package perfrecup

import (
	"taskprov/internal/core"
	"taskprov/internal/live"
)

// PhaseBreakdown is the per-run decomposition behind Fig. 3: cumulative
// time spent in I/O, communication, and computation, plus the total wall
// time. As in the paper, the three phases are non-exclusive (they may
// overlap in time across threads) and the total additionally includes
// workflow coordination (connecting to the scheduler, waiting for workers,
// creating task graphs).
type PhaseBreakdown struct {
	Workflow string
	Seed     uint64

	// The three phase figures are per-thread-slot averages (cumulative
	// seconds divided by the job's worker-thread count), so they are
	// directly comparable to the wall time: a fully utilized job has
	// ComputeSeconds approaching TotalSeconds, and short workflows show
	// the paper's "disproportionately long total" from coordination.
	IOSeconds      float64
	CommSeconds    float64
	ComputeSeconds float64
	TotalSeconds   float64 // workflow wall time

	ThreadSlots int

	IOOps     int64
	Transfers int64
	Tasks     int64
}

// Phases computes the breakdown from one run's artifacts. The computation
// itself lives in internal/live (exec time includes I/O performed inside
// tasks, so computation = exec − I/O clamped at zero, all divided by the
// thread-slot count); PERFRECUP and the live monitor thereby share one
// implementation of the phase definitions, which is what makes the
// live/post-mortem equivalence invariant checkable at all.
//
// Only the topics the phase fields are computed from (live.PhaseTopics:
// executions and transfers) are replayed, with the Darshan logs and the
// run's meta: the same handlers fill the same lanes as LiveReplay's, so
// every figure here is bit for bit the full replay's. A corrupt event on
// another topic is therefore not reported here; LiveReplay reports it.
func Phases(art *core.RunArtifacts) (PhaseBreakdown, error) {
	sum, err := replay(art, live.AggregatorOptions{DisableAnomalies: true}, live.PhaseTopics())
	if err != nil {
		return PhaseBreakdown{Workflow: art.Meta.Workflow, Seed: art.Meta.Seed}, err
	}
	return PhaseBreakdown{
		Workflow:       art.Meta.Workflow,
		Seed:           art.Meta.Seed,
		IOSeconds:      sum.IOSeconds,
		CommSeconds:    sum.CommSeconds,
		ComputeSeconds: sum.ComputeSeconds,
		TotalSeconds:   sum.WallSeconds,
		ThreadSlots:    sum.ThreadSlots,
		IOOps:          sum.IOOps,
		Transfers:      sum.Transfers,
		Tasks:          sum.Tasks,
	}, nil
}

// PhaseStats aggregates breakdowns across runs of one workflow: mean and
// standard deviation per phase, both raw and normalized by the per-run
// total (the paper normalizes "for readability as workflows vary in total
// duration").
type PhaseStats struct {
	Workflow string
	Runs     int

	MeanIO, StdIO           float64
	MeanComm, StdComm       float64
	MeanCompute, StdCompute float64
	MeanTotal, StdTotal     float64

	// Normalized: each run's phases divided by that run's largest phase
	// value, then averaged.
	NormIO, NormIOStd           float64
	NormComm, NormCommStd       float64
	NormCompute, NormComputeStd float64
	NormTotal, NormTotalStd     float64
}

// AggregatePhases summarizes a set of per-run breakdowns (all from the same
// workflow).
func AggregatePhases(runs []PhaseBreakdown) PhaseStats {
	s := PhaseStats{Runs: len(runs)}
	if len(runs) == 0 {
		return s
	}
	s.Workflow = runs[0].Workflow
	var io, comm, comp, tot []float64
	var nio, ncomm, ncomp, ntot []float64
	for _, r := range runs {
		io = append(io, r.IOSeconds)
		comm = append(comm, r.CommSeconds)
		comp = append(comp, r.ComputeSeconds)
		tot = append(tot, r.TotalSeconds)
		top := max(r.IOSeconds, r.CommSeconds, r.ComputeSeconds, r.TotalSeconds)
		if top <= 0 {
			top = 1
		}
		nio = append(nio, r.IOSeconds/top)
		ncomm = append(ncomm, r.CommSeconds/top)
		ncomp = append(ncomp, r.ComputeSeconds/top)
		ntot = append(ntot, r.TotalSeconds/top)
	}
	s.MeanIO, s.StdIO = Mean(io), Std(io)
	s.MeanComm, s.StdComm = Mean(comm), Std(comm)
	s.MeanCompute, s.StdCompute = Mean(comp), Std(comp)
	s.MeanTotal, s.StdTotal = Mean(tot), Std(tot)
	s.NormIO, s.NormIOStd = Mean(nio), Std(nio)
	s.NormComm, s.NormCommStd = Mean(ncomm), Std(ncomm)
	s.NormCompute, s.NormComputeStd = Mean(ncomp), Std(ncomp)
	s.NormTotal, s.NormTotalStd = Mean(ntot), Std(ntot)
	return s
}

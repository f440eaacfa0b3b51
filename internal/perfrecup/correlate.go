package perfrecup

import (
	"fmt"
	"sort"
	"strings"

	"taskprov/internal/core"
	"taskprov/internal/dask"
	"taskprov/internal/provenance"
)

// CorrelationReport is the paper's §IV-D3 analysis: quantifying the
// relationships the parallel-coordinates chart shows visually — whether
// runtime warnings coincide in time with long-running tasks, and whether
// task duration tracks task output size.
type CorrelationReport struct {
	// WarningsVsLongTasks is the Pearson correlation, across time bins,
	// between warning counts and the number of concurrently executing
	// "long" tasks (duration above the 90th percentile). The paper
	// observes this "correlates perfectly" for XGBOOST's event-loop
	// warnings and read_parquet-fused-assign tasks.
	WarningsVsLongTasks float64
	// DurationVsOutputSize is the Spearman rank correlation between task
	// durations and output sizes across all tasks.
	DurationVsOutputSize float64
	// LongTaskPrefixes ranks task categories by their share of long-task
	// time, most culpable first.
	LongTaskPrefixes []PrefixShare
	// Bins used for the time-binned correlation.
	BinSeconds float64
	NumBins    int
}

// PrefixShare is one category's share of long-task execution time.
type PrefixShare struct {
	Prefix  string
	Share   float64 // 0..1 of total long-task seconds
	Seconds float64
}

// Correlate computes the report from one run's artifacts.
func Correlate(art *core.RunArtifacts, binSeconds float64) (CorrelationReport, error) {
	rep := CorrelationReport{BinSeconds: binSeconds}
	var dec provenance.Decoder
	execs, err := provenance.Drain(&dec, art.Broker, provenance.TopicExecutions, (*provenance.Decoder).Execution)
	if err != nil {
		return rep, err
	}
	if len(execs) == 0 {
		return rep, fmt.Errorf("perfrecup: no executions to correlate")
	}
	type taskRow struct {
		key         dask.TaskKey
		start, stop float64
		dur         float64
		size        float64
	}
	rows := make([]taskRow, 0, len(execs))
	end := art.Meta.WallSeconds
	var durs, sizes []float64
	for _, e := range execs {
		r := taskRow{
			key: e.Key, start: e.Start.Seconds(), stop: e.Stop.Seconds(),
			dur: (e.Stop - e.Start).Seconds(), size: float64(e.OutputSize),
		}
		rows = append(rows, r)
		durs = append(durs, r.dur)
		sizes = append(sizes, r.size)
		if r.stop > end {
			end = r.stop
		}
	}
	rep.DurationVsOutputSize = Spearman(durs, sizes)

	// Long tasks: above the 90th percentile duration.
	p90 := Percentile(durs, 90)
	nbins := int(end/binSeconds) + 1
	rep.NumBins = nbins
	// Per-bin long-task activity is duration-weighted (seconds of long-task
	// execution inside the bin), so a single dominant task is not diluted
	// by marginally-long ones merely touching a bin.
	longActive := make([]float64, nbins)
	totalLong := 0.0
	byPrefix := map[string]float64{}
	for _, r := range rows {
		if r.dur < p90 {
			continue
		}
		totalLong += r.dur
		byPrefix[dask.KeyPrefix(r.key)] += r.dur
		b0, b1 := int(r.start/binSeconds), int(r.stop/binSeconds)
		for b := b0; b <= b1 && b < nbins; b++ {
			longActive[b] += overlap(r.start, r.stop, float64(b)*binSeconds, float64(b+1)*binSeconds)
		}
	}
	warns, err := provenance.Drain(&dec, art.Broker, provenance.TopicWarnings, (*provenance.Decoder).Warning)
	if err != nil {
		return rep, err
	}
	warnBins := make([]float64, nbins)
	for _, w := range warns {
		b := int(w.At.Seconds() / binSeconds)
		if b >= 0 && b < nbins {
			warnBins[b]++
		}
	}
	rep.WarningsVsLongTasks = Pearson(warnBins, longActive)

	for p, s := range byPrefix {
		share := 0.0
		if totalLong > 0 {
			share = s / totalLong
		}
		rep.LongTaskPrefixes = append(rep.LongTaskPrefixes, PrefixShare{Prefix: p, Share: share, Seconds: s})
	}
	sort.Slice(rep.LongTaskPrefixes, func(i, j int) bool {
		return rep.LongTaskPrefixes[i].Seconds > rep.LongTaskPrefixes[j].Seconds
	})
	return rep, nil
}

// Render formats the report.
func (r CorrelationReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "correlations (%d bins of %.0fs):\n", r.NumBins, r.BinSeconds)
	fmt.Fprintf(&sb, "  warnings vs long-task activity (pearson):  %.3f\n", r.WarningsVsLongTasks)
	fmt.Fprintf(&sb, "  task duration vs output size (spearman):   %.3f\n", r.DurationVsOutputSize)
	sb.WriteString("  long-task time by category:\n")
	for i, p := range r.LongTaskPrefixes {
		if i == 6 {
			break
		}
		fmt.Fprintf(&sb, "    %-30s %5.1f%% (%.1fs)\n", p.Prefix, 100*p.Share, p.Seconds)
	}
	return sb.String()
}

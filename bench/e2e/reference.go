package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"taskprov/internal/core"
	"taskprov/internal/perfrecup"
	"taskprov/internal/workloads"
)

// The reference pins, for seeds 1 and 2 of each paper workflow, the numbers
// a run must reproduce exactly: events per topic, tasks, DXT operations,
// join coverage and virtual makespan. Other seeds are checked without stored
// numbers (cycle against cycle, collection on against off, loaded dir
// against producing session), so any -seed works.
//
//go:embed testdata/reference.json
var referenceJSON []byte

var referenceSeeds = []uint64{1, 2}

type refEntry struct {
	sessionStats
	JoinCoverage float64 `json:"join_coverage"`
}

type reference struct {
	// Seeds maps seed → workflow → pinned numbers.
	Seeds map[string]map[string]refEntry `json:"seeds"`
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("testdata/reference.json: %w", err)
	}
	return &r, nil
}

func (r *reference) entry(seed uint64, workflow string) (refEntry, bool) {
	e, ok := r.Seeds[strconv.FormatUint(seed, 10)][workflow]
	return e, ok
}

// diffStats describes how got differs from want ("" if it does not), leaving
// the named topics out.
func diffStats(got, want sessionStats, skipTopics []string) string {
	skip := make(map[string]bool, len(skipTopics))
	for _, t := range skipTopics {
		skip[t] = true
	}
	var diffs []string
	for topic, n := range want.Events {
		if !skip[topic] && got.Events[topic] != n {
			diffs = append(diffs, fmt.Sprintf("%s events %d, want %d", topic, got.Events[topic], n))
		}
	}
	if got.Tasks != want.Tasks {
		diffs = append(diffs, fmt.Sprintf("tasks %d, want %d", got.Tasks, want.Tasks))
	}
	if got.DXTOps != want.DXTOps {
		diffs = append(diffs, fmt.Sprintf("DXT ops %d, want %d", got.DXTOps, want.DXTOps))
	}
	if got.Makespan != want.Makespan {
		diffs = append(diffs, fmt.Sprintf("virtual makespan %v, want %v", got.Makespan, want.Makespan))
	}
	return strings.Join(diffs, "; ")
}

// checkReference compares each session's numbers with the pinned ones; a
// mismatch is a failed operation. Seeds without a reference pass.
func (h *harness) checkReference(specs []sessionSpec, stats []sessionStats) {
	for i, spec := range specs {
		ref, ok := h.ref.entry(h.cfg.seed, spec.workflow)
		if !ok || stats[i].Events == nil {
			continue
		}
		if diff := diffStats(stats[i], ref.sessionStats, spec.skipTopics); diff != "" {
			h.fail("session %s (seed %d) disagrees with testdata/reference.json: %s", spec.label, h.cfg.seed, diff)
		}
	}
}

// updateReference re-measures the pinned numbers and writes them to path.
func updateReference(path string) error {
	ref := reference{Seeds: make(map[string]map[string]refEntry)}
	for _, seed := range referenceSeeds {
		byWorkflow := make(map[string]refEntry)
		for _, name := range workloads.Names() {
			wf, err := workloads.New(name)
			if err != nil {
				return err
			}
			art, err := core.Run(workloads.DefaultSession(name, fmt.Sprintf("%s-%04d", name, seed), seed), wf)
			if err != nil {
				return err
			}
			attributed, err := perfrecup.AttributeIOToTasks(art)
			if err != nil {
				return err
			}
			byWorkflow[name] = refEntry{sessionStats: statsOf(art), JoinCoverage: joinCoverage(attributed)}
		}
		ref.Seeds[strconv.FormatUint(seed, 10)] = byWorkflow
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

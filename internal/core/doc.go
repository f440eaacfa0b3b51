// Package core is the paper's primary contribution: the layered
// characterization framework. It wires the WMS (internal/dask), the I/O
// characterization tool (internal/darshan), and the event streaming service
// (internal/mofka) into instrumented workflow runs, captures the provenance
// chart's metadata layers (Fig. 1), and produces the RunArtifacts that
// PERFRECUP analyzes.
//
// Collection follows the paper's architecture exactly: scheduler and worker
// plugins intercept WMS events and push them to Mofka topics ("Dask as the
// producer"), Darshan runtimes per worker collect I/O counters and DXT
// traces independently, and the two are only fused later, at analysis time,
// on shared identifiers (hostname, pthread ID, timestamps).
//
// The event schema itself — topic names and the typed codec — lives in
// internal/provenance so that stream consumers that core itself depends on
// (the live monitoring subsystem, internal/live) can share it without an
// import cycle.
package core

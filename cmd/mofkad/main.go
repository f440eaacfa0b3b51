// Command mofkad serves a finished Mofka event log over TCP, exposing the log
// service's four read RPCs (topics, topic_info, pull, partition_info) through
// the Mercury wire protocol. It is the deployment mode for consumers that run
// on different nodes than the instrumented workflow: `taskprov watch -broker
// ADDR` reads it once. A run writes its events into its own process's broker
// or cluster, never over the wire; mofkad serves what such a run left in its
// data directory, opened once, so the log it serves never grows.
//
// The directory is opened the way every other reader opens it
// (cluster.OpenLog): a standalone broker's data dir or a cluster's (`taskprov
// run -cluster N`) alike, detected from what it holds, and read-only — the
// daemon writes no byte under it, torn tails and lagging replicas included,
// so it can serve a log that perfrecup or resume reads at the same time.
//
// Usage:
//
//	mofkad -data-dir /path/to/log [-listen 127.0.0.1:7777]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"taskprov/internal/mochi/mercury"
	"taskprov/internal/mofka"
	"taskprov/internal/mofka/cluster"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7777", "TCP listen address")
	dataDir := flag.String("data-dir", "", "the event log to serve: a run's data dir, standalone or cluster (required)")
	flag.Parse()

	b, err := openLog(*dataDir)
	if err != nil {
		fatal(err)
	}
	ep := mercury.NewEndpoint(*listen)
	mofka.Serve(ep, b.Service())
	srv, err := mercury.Serve(ep, *listen)
	if err != nil {
		fatal(fmt.Errorf("listen %q: %w", *listen, err))
	}
	fmt.Printf("mofkad: serving on %s (%s read-only, %d topics)\n", srv.Addr(), *dataDir, len(b.Topics()))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("mofkad: shutting down")
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

// openLog opens the event log in dir read-only, refusing a dir that holds
// none rather than serving an empty log.
func openLog(dir string) (*mofka.Broker, error) {
	if dir == "" {
		return nil, fmt.Errorf("-data-dir is required: name the event log to serve")
	}
	if !cluster.IsLogDir(dir) {
		return nil, fmt.Errorf("%s is not an event log (no topics/ and no cluster.json)", dir)
	}
	return cluster.OpenLog(dir)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mofkad:", err)
	os.Exit(1)
}

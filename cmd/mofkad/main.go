// Command mofkad runs a Mofka broker over TCP, exposing the
// event-streaming RPCs (create_topic, push, pull, commit) through the
// Mercury wire protocol. It is the deployment mode for consumers that run
// on different nodes than the instrumented workflow.
//
// With -data-dir the broker is backed by the durable segmented event log:
// every topic, event, and committed cursor persists under the directory,
// survives restarts (including crashes — torn segment tails are truncated
// on reopen), and can later be analyzed post-mortem with
// `perfrecup <cmd> <data-dir>`.
//
// With -live the daemon additionally runs the live monitoring subsystem
// (internal/live) against its own broker: streaming aggregates and online
// anomaly detection over the provenance topics, served on -live-http.
//
// With -brokers N the daemon serves a sharded, replicated Mofka cluster of
// N broker replicas behind one RPC gateway (internal/mofka/cluster):
// partitions are placed by rendezvous hashing, appends are acknowledged
// after a replica quorum, and a background sweeper drives SSG failure
// detection and leader failover. Plain mofka clients work unchanged against
// the gateway. With -join ADDR the daemon instead runs a single broker and
// registers it as a remote replica member of the cluster behind ADDR.
//
// Usage:
//
//	mofkad -listen 127.0.0.1:7777 [-config bedrock.json]
//	       [-data-dir /path/to/log] [-fsync batch|interval|never]
//	       [-live] [-live-http 127.0.0.1:9090]
//	       [-brokers N [-replication N] [-quorum N]]
//	       [-join ADDR]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"taskprov/internal/live"
	"taskprov/internal/mochi/bedrock"
	"taskprov/internal/mofka"
	"taskprov/internal/mofka/cluster"
	"taskprov/internal/mofka/wal"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7777", "TCP listen address")
	configPath := flag.String("config", "", "optional bedrock JSON config (its address overrides -listen)")
	dataDir := flag.String("data-dir", "", "directory for the durable event log (empty = in-memory only)")
	fsync := flag.String("fsync", "batch", "durable log fsync policy: batch|interval|never")
	brokers := flag.Int("brokers", 0, "serve a sharded cluster of N broker replicas behind this gateway (0 = single broker)")
	replication := flag.Int("replication", 0, "with -brokers, replicas per partition (0 = cluster default)")
	quorum := flag.Int("quorum", 0, "with -brokers, append acknowledgement quorum (0 = majority of replication)")
	joinAddr := flag.String("join", "", "join the cluster behind this gateway address as a remote replica member")
	sweep := flag.Duration("sweep", time.Second, "with -brokers, failure-detector sweep interval")
	liveMon := flag.Bool("live", false, "run the live monitor against this broker")
	liveHTTP := flag.String("live-http", "", "with -live, serve /snapshot /metrics /events on this address")
	flag.Parse()

	if *brokers < 0 || *replication < 0 || *quorum < 0 {
		fatal(fmt.Errorf("-brokers/-replication/-quorum must be >= 0"))
	}
	if *brokers == 0 && (*replication != 0 || *quorum != 0) {
		fatal(fmt.Errorf("-replication/-quorum need -brokers N"))
	}
	if *brokers > 0 && *joinAddr != "" {
		fatal(fmt.Errorf("-brokers and -join are mutually exclusive: a gateway hosts replicas, a joiner is one"))
	}
	if *brokers > 0 && *liveMon {
		fatal(fmt.Errorf("-live needs single-broker mode; watch a cluster gateway with `taskprov watch -broker ADDR`"))
	}

	cfg := bedrock.DefaultConfig(*listen)
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fatal(err)
		}
		cfg, err = bedrock.ParseConfig(data)
		if err != nil {
			fatal(err)
		}
	}
	pol, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fatal(err)
	}
	dep, err := bedrock.Deploy(cfg)
	if err != nil {
		fatal(err)
	}
	defer dep.Shutdown()

	if *brokers > 0 {
		runCluster(dep, *brokers, *replication, *quorum, *dataDir, *fsync, pol, *sweep)
		return
	}

	broker, err := mofka.NewBrokerOptions(dep, mofka.Options{
		DataDir: *dataDir,
		WAL:     wal.Options{Sync: pol},
	})
	if err != nil {
		fatal(err)
	}
	mofka.Serve(dep.Endpoint(), broker.Service())
	durability := "in-memory"
	if *dataDir != "" {
		durability = fmt.Sprintf("durable log %s (fsync=%s, %d topics recovered)",
			*dataDir, *fsync, len(broker.Topics()))
	}
	fmt.Printf("mofkad: serving on %s (yokan dbs: %v, %s)\n",
		dep.Addr(), cfg.Yokan.Databases, durability)

	if *joinAddr != "" {
		node, err := cluster.JoinRemote(*joinAddr, dep.Addr(), 10*time.Second)
		if err != nil {
			fatal(fmt.Errorf("join %s: %w", *joinAddr, err))
		}
		fmt.Printf("mofkad: joined cluster at %s as broker node %d\n", *joinAddr, node)
	}

	var monitor *live.Monitor
	var sweeps <-chan time.Time // nil, so never ready, without -live
	if *liveMon {
		monitor = live.NewMonitor(broker, live.MonitorOptions{
			Logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, "mofkad: "+format+"\n", a...) },
		})
		// The producers are other processes, on no clock of this one: a host
		// ticker drives the monitor.
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		sweeps = tick.C
		if *liveHTTP != "" {
			srv, err := live.Serve(*liveHTTP, monitor)
			if err != nil {
				fatal(err)
			}
			defer func() { _ = srv.Close() }()
			fmt.Printf("mofkad: live monitor on http://%s (/snapshot /metrics /events)\n", srv.Addr())
		} else {
			fmt.Println("mofkad: live monitor attached")
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for running := true; running; {
		select {
		case <-sig:
			running = false
		case <-sweeps:
			if monitor.Sweep() > 0 {
				monitor.Commit()
			}
		}
	}
	fmt.Println("mofkad: shutting down")
	if monitor != nil {
		// The monitor takes what is left, partial chunks included, and
		// commits its cursors while the broker still takes writes.
		monitor.Finish(nil, 0)
	}
	// Flush and fsync every partition log before the process exits, so a
	// clean shutdown loses nothing regardless of the fsync policy.
	if err := broker.Close(); err != nil {
		fatal(err)
	}
}

// runCluster serves a sharded, replicated cluster behind the deployed
// endpoint until interrupted.
func runCluster(dep *bedrock.Deployment, brokers, replication, quorum int, dataDir, fsync string, pol wal.SyncPolicy, sweep time.Duration) {
	cl, err := cluster.New(cluster.Config{
		Brokers:           brokers,
		ReplicationFactor: replication,
		Quorum:            quorum,
		DataDir:           dataDir,
		WAL:               wal.Options{Sync: pol},
	})
	if err != nil {
		fatal(err)
	}
	cl.RegisterRPCs(dep.Endpoint())

	stop := make(chan struct{})
	go cl.RunSweeper(sweep, stop)

	durability := "in-memory"
	if dataDir != "" {
		durability = fmt.Sprintf("durable logs under %s (fsync=%s per node, %d topics recovered)", dataDir, fsync, len(cl.Topics()))
	}
	fmt.Printf("mofkad: cluster gateway on %s (%d brokers, %s)\n", dep.Addr(), cl.Brokers(), durability)
	fmt.Printf("mofkad: join more replicas with `mofkad -listen HOST:PORT -join %s`\n", dep.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("mofkad: shutting down cluster")
	close(stop)
	if err := cl.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mofkad:", err)
	os.Exit(1)
}

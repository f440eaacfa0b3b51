package dask

import (
	"fmt"
	"testing"

	"taskprov/internal/sim"
)

// proxyCfg enables the pass-by-reference data plane with the given
// threshold on top of the small test cluster.
func proxyCfg(threshold int64) Config {
	cfg := smallCfg()
	cfg.ProxyThresholdBytes = threshold
	return cfg
}

// gatherGraph builds width independent producers of size-byte outputs — the
// shape where pass-by-reference pays: the client gathers every output.
func gatherGraph(id, width int, size int64) (*Graph, []TaskKey) {
	g := NewGraph(id)
	var keys []TaskKey
	for i := 0; i < width; i++ {
		k := TaskKey(fmt.Sprintf("big-%02d", i))
		g.Add(&TaskSpec{Key: k, EstDuration: sim.Milliseconds(100), OutputSize: size})
		keys = append(keys, k)
	}
	return g, keys
}

// countProxyOps tallies the recorded proxy events per operation.
func countProxyOps(evs []ProxyEvent) map[string]int {
	ops := make(map[string]int)
	for _, ev := range evs {
		ops[ev.Op]++
	}
	return ops
}

// TestProxyTransferRecords runs the wide graph with a threshold below the
// intermediate output sizes: every src and mid output publishes as a blob,
// remote consumers fetch them peer-to-peer (transfers marked ViaProxy with
// a demand-to-arrival latency), and refcount drain returns the store to
// empty once the dependents finish.
func TestProxyTransferRecords(t *testing.T) {
	env := newEnv(1, proxyCfg(1<<10))
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, wideGraph(1, 16))
	})
	if len(env.rec.execs) != 33 {
		t.Fatalf("executions = %d, want 33", len(env.rec.execs))
	}

	// 16 srcs (1MB) and 16 mids (256KB) are proxied; the 256B sink is not.
	ops := countProxyOps(env.rec.proxyEvents)
	if ops[ProxyOpPublish] != 32 {
		t.Fatalf("publishes = %d, want 32 (ops %v)", ops[ProxyOpPublish], ops)
	}
	if ops[ProxyOpMiss] != 0 || ops[ProxyOpReclaim] != 0 {
		t.Fatalf("fault-free run recorded misses/reclaims: %v", ops)
	}

	var viaProxy int
	for _, tr := range env.rec.transfers {
		if tr.ViaProxy {
			viaProxy++
			if tr.ResolveLatency <= 0 {
				t.Fatalf("proxied transfer of %s has resolve latency %v", tr.Key, tr.ResolveLatency)
			}
			if tr.Bytes < 1<<10 {
				t.Fatalf("proxied transfer of %s below threshold: %d bytes", tr.Key, tr.Bytes)
			}
		}
	}
	if viaProxy == 0 {
		t.Fatal("no transfer went via the proxy store")
	}
	if ops[ProxyOpResolve] != viaProxy {
		t.Fatalf("resolve events = %d, via-proxy transfers = %d", ops[ProxyOpResolve], viaProxy)
	}

	// Every blob's refcount drained: the store is back to empty and every
	// publish has a matching free.
	st := env.c.ProxyStats()
	if st.Live != 0 || st.Resident != 0 {
		t.Fatalf("store not drained: %+v (keys %v)", st, env.c.ProxyStore().Keys())
	}
	if st.Frees != st.Publishes {
		t.Fatalf("frees = %d, publishes = %d", st.Frees, st.Publishes)
	}
	if env.c.ControlPathBytes() == 0 {
		t.Fatal("control-path accounting recorded nothing")
	}
}

// TestProxyPrefetchResolvesEagerly contrasts the two resolution modes: with
// prefetch the worker fetches proxied dependencies at assignment (no
// "proxy-resolve" fetch transition), while the lazy default defers them to
// first use (dispatch time), which shows up as proxy-resolve stimuli.
func TestProxyPrefetchResolvesEagerly(t *testing.T) {
	countResolveStims := func(trans []Transition) int {
		n := 0
		for _, tr := range trans {
			if tr.Stimulus == "proxy-resolve" {
				n++
			}
		}
		return n
	}
	run := func(prefetch bool) (*recorder, int) {
		cfg := proxyCfg(1 << 10)
		cfg.ProxyPrefetch = prefetch
		env := newEnv(3, cfg)
		env.runWorkflow(func(p *sim.Proc, cl *Client) {
			cl.SubmitAndWait(p, wideGraph(1, 16))
		})
		return env.rec, countResolveStims(env.rec.workerTrans)
	}

	recLazy, lazyStims := run(false)
	recEager, eagerStims := run(true)

	if eagerStims != 0 {
		t.Fatalf("prefetch mode recorded %d proxy-resolve transitions", eagerStims)
	}
	var lazyProxied, eagerProxied int
	for _, tr := range recLazy.transfers {
		if tr.ViaProxy {
			lazyProxied++
		}
	}
	for _, tr := range recEager.transfers {
		if tr.ViaProxy {
			eagerProxied++
		}
	}
	if lazyProxied == 0 || eagerProxied == 0 {
		t.Fatalf("proxied transfers: lazy %d, eager %d — want both > 0", lazyProxied, eagerProxied)
	}
	// Every lazy remote resolution was deferred to dispatch.
	if lazyStims == 0 {
		t.Fatalf("lazy mode resolved %d proxied transfers without proxy-resolve transitions", lazyProxied)
	}
}

// TestProxyCrashRecovers kills a worker mid-run with the proxy plane on:
// dangling references to the victim's blobs must fall back to the
// missing-data recovery path — the lost keys recompute and republish under
// new owners — and the run must still complete with the store drained back
// to empty.
func TestProxyCrashRecovers(t *testing.T) {
	env := newEnv(42, proxyCfg(1<<17))
	victim := 2
	env.k.At(sim.Seconds(4.2), func() { env.c.KillWorker(victim) })
	g := wideGraph(1, 16)
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
		if e := cl.GraphError(1); e != "" {
			t.Errorf("graph erred: %s", e)
		}
	})
	if !env.c.scheduler.HasInMemory("sink-00") {
		t.Fatal("sink result missing")
	}

	// Recomputed keys republished: more publishes than distinct proxied keys
	// (16 srcs + 16 mids; the 256B sink is below the 128KB threshold).
	ops := countProxyOps(env.rec.proxyEvents)
	if ops[ProxyOpPublish] <= 32 {
		t.Fatalf("publishes = %d, want > 32 (lost keys recomputed; ops %v)", ops[ProxyOpPublish], ops)
	}

	// No acknowledged result was lost and the refcounts drained: resident
	// bytes are back to the fault-free baseline (zero).
	st := env.c.ProxyStats()
	if st.Live != 0 || st.Resident != 0 {
		t.Fatalf("orphaned blobs leaked: %+v (keys %v)", st, env.c.ProxyStore().Keys())
	}

	// The per-event resident deltas reconcile with the final footprint:
	// published bytes equal freed+reclaimed bytes.
	var published, released int64
	for _, ev := range env.rec.proxyEvents {
		switch ev.Op {
		case ProxyOpPublish:
			published += ev.Bytes
		case ProxyOpFree, ProxyOpReclaim:
			released += ev.Bytes
		}
	}
	if published != released {
		t.Fatalf("resident delta stream unbalanced: published %d, released %d", published, released)
	}
}

// TestProxyEvictionReclaimsOrphans makes a worker die while owning blobs
// nothing fetches before the TTL sweep: retained graph outputs. Eviction
// must reclaim the orphans, emit reclaim provenance and the recovery
// warning, and keep the resident delta stream balanced.
func TestProxyEvictionReclaimsOrphans(t *testing.T) {
	env := newEnv(5, proxyCfg(1<<17))
	g := NewGraph(1)
	for i := 0; i < 12; i++ {
		g.Add(&TaskSpec{Key: TaskKey(fmt.Sprintf("out-%02d", i)),
			EstDuration: sim.Seconds(1), OutputSize: 1 << 20})
	}
	victim := 1
	env.runWorkflow(func(p *sim.Proc, cl *Client) {
		cl.SubmitAndWait(p, g)
		// All 12 outputs are retained in memory across the cluster. Kill a
		// worker and sit past WorkerTTL so the eviction sweep runs with the
		// victim's blobs still live.
		env.c.KillWorker(victim)
		p.Sleep(env.c.cfg.WorkerTTL + sim.Seconds(3))
	})

	ops := countProxyOps(env.rec.proxyEvents)
	if ops[ProxyOpReclaim] == 0 {
		t.Fatalf("no blobs reclaimed from the dead worker (ops %v)", ops)
	}
	if warningKinds(env.rec.warnings)[WarnBlobReclaimed] == 0 {
		t.Fatal("no blob-reclaimed recovery warning")
	}
	st := env.c.ProxyStats()
	if st.Reclaims == 0 {
		t.Fatalf("store stats show no reclaims: %+v", st)
	}

	// Balance: published == released + still-resident (outputs the survivors
	// hold, plus any the eviction recomputed and republished).
	var published, released int64
	for _, ev := range env.rec.proxyEvents {
		switch ev.Op {
		case ProxyOpPublish:
			published += ev.Bytes
		case ProxyOpFree, ProxyOpReclaim:
			released += ev.Bytes
		}
	}
	if published != released+st.Resident {
		t.Fatalf("resident delta stream unbalanced: published %d, released %d, resident %d",
			published, released, st.Resident)
	}
}

// TestGatherControlBytes is the acceptance bar for the tentpole: gathering
// large outputs through the proxy store must cut the scheduler's
// control-path bytes at least 10× versus direct relay, without changing the
// payload the client receives.
func TestGatherControlBytes(t *testing.T) {
	const width, size = 16, 64 << 20
	run := func(threshold int64) (controlBytes, gathered int64) {
		cfg := smallCfg()
		cfg.ProxyThresholdBytes = threshold
		env := newEnv(11, cfg)
		g, keys := gatherGraph(1, width, size)
		env.runWorkflow(func(p *sim.Proc, cl *Client) {
			cl.SubmitAndWait(p, g)
			gathered = cl.Gather(p, keys)
		})
		return env.c.ControlPathBytes(), gathered
	}

	direct, directBytes := run(0)
	proxy, proxyBytes := run(1 << 20)

	if want := int64(width) * size; directBytes != want || proxyBytes != want {
		t.Fatalf("gathered bytes: direct %d, proxy %d, want %d", directBytes, proxyBytes, want)
	}
	if direct < 10*proxy {
		t.Fatalf("control-path bytes: direct %d, proxy %d — want >= 10x reduction (got %.1fx)",
			direct, proxy, float64(direct)/float64(proxy))
	}
}

// BenchmarkProxyTransfer measures the simulated gather of 16 × 64MB outputs
// with and without the proxy store, reporting the scheduler control-path
// bytes each mode moves per run.
func BenchmarkProxyTransfer(b *testing.B) {
	const width, size = 16, 64 << 20
	bench := func(b *testing.B, threshold int64) {
		var control int64
		for i := 0; i < b.N; i++ {
			cfg := smallCfg()
			cfg.ProxyThresholdBytes = threshold
			env := newEnv(uint64(11+i), cfg)
			g, keys := gatherGraph(1, width, size)
			env.runWorkflow(func(p *sim.Proc, cl *Client) {
				cl.SubmitAndWait(p, g)
				cl.Gather(p, keys)
			})
			control = env.c.ControlPathBytes()
		}
		b.ReportMetric(float64(control), "control-B/op")
	}
	b.Run("direct", func(b *testing.B) { bench(b, 0) })
	b.Run("proxy", func(b *testing.B) { bench(b, 1<<20) })
}

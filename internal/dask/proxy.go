package dask

import (
	"fmt"

	"taskprov/internal/proxystore"
	"taskprov/internal/sim"
)

// proxyPlane binds a proxystore.Store to a cluster: it performs the store
// operations the scheduler and workers need and fans each one out to the
// worker plugins as a ProxyEvent, so the pass-by-reference data plane leaves
// the same kind of provenance trail as executions and transfers. Nil when
// the proxy store is disabled (ProxyThresholdBytes == 0).
type proxyPlane struct {
	c     *Cluster
	store *proxystore.Store
}

func newProxyPlane(c *Cluster) *proxyPlane {
	return &proxyPlane{c: c, store: proxystore.New()}
}

func (pp *proxyPlane) emit(op string, key TaskKey, worker string, bytes int64, latency sim.Time) {
	ev := ProxyEvent{
		Op: op, Key: key, Worker: worker, Bytes: bytes,
		Resident: pp.store.ResidentBytes(), ResolveLatency: latency,
		At: pp.c.kernel.Now(),
	}
	for _, p := range pp.c.workerPlugins {
		p.ProxyEvent(ev)
	}
}

// publish registers a finished task's output as a blob owned by the
// producing worker incarnation. Republishing a recomputed key first frees
// the stale blob, which gets its own free event so resident accounting
// stays a pure delta stream.
//
// First-write-wins fence: when the key already has a blob owned by a
// DIFFERENT worker whose incarnation is still alive, this publish is the
// losing half of a speculation race (every legitimate republish path — lost
// replica, recompute, resume — has a dead or restarted prior owner) and is
// rejected, so a cancelled attempt's output never displaces the winner's
// blob or strands its reference counts.
func (pp *proxyPlane) publish(key TaskKey, owner, incarnation int, size int64, workerAddr string) proxystore.Ref {
	if old, ok := pp.store.Lookup(string(key)); ok && old.Owner != owner {
		ow := pp.c.workers[old.Owner]
		if ow.alive && ow.incarnation == old.Incarnation {
			pp.emit(ProxyOpDuplicate, key, workerAddr, size, 0)
			return old
		}
	}
	ref, replaced := pp.store.Publish(string(key), owner, incarnation, size)
	if replaced >= 0 {
		pp.emit(ProxyOpFree, key, workerAddr, replaced, 0)
	}
	pp.emit(ProxyOpPublish, key, workerAddr, size, 0)
	return ref
}

// lookup inspects a key's blob without perturbing resolve statistics — the
// scheduler's speculation settlement uses it to align its winner with the
// store's first publisher.
func (pp *proxyPlane) lookup(key TaskKey) (proxystore.Ref, bool) {
	return pp.store.Lookup(string(key))
}

// resolve looks up a reference on behalf of a consuming worker. A miss is
// recorded (with the event) and reported to the caller, which falls back to
// the missing-data recovery path.
func (pp *proxyPlane) resolve(key TaskKey, workerAddr string) (proxystore.Ref, bool) {
	ref, ok := pp.store.Resolve(string(key))
	if !ok {
		pp.emit(ProxyOpMiss, key, workerAddr, 0, 0)
		return ref, false
	}
	return ref, true
}

// resolved records a successful demand-to-arrival resolution (emitted when
// the payload lands, so ResolveLatency is known).
func (pp *proxyPlane) resolved(key TaskKey, workerAddr string, bytes int64, latency sim.Time) {
	pp.emit(ProxyOpResolve, key, workerAddr, bytes, latency)
}

// retain mirrors scheduler-side dependent refcount acquisition.
func (pp *proxyPlane) retain(key TaskKey, n int) { pp.store.Retain(string(key), n) }

// release mirrors one dependent refcount release; the blob is destroyed
// when the count drains.
func (pp *proxyPlane) release(key TaskKey) {
	if freed, size := pp.store.Release(string(key)); freed {
		pp.emit(ProxyOpFree, key, "scheduler", size, 0)
	}
}

// free destroys a blob outright (scheduler free-keys broadcast).
func (pp *proxyPlane) free(key TaskKey) {
	if freed, size := pp.store.Free(string(key)); freed {
		pp.emit(ProxyOpFree, key, "scheduler", size, 0)
	}
}

// reclaimWorker sweeps a dead worker's blobs at eviction time, emitting one
// reclaim event per blob (sorted by key — deterministic) and returning the
// sweep summary for the aggregate recovery warning.
func (pp *proxyPlane) reclaimWorker(rank int, addr string) (blobs int, bytes int64) {
	refs, bytes := pp.store.ReclaimWorker(rank)
	for _, r := range refs {
		pp.emit(ProxyOpReclaim, TaskKey(r.Key), addr, r.Size, 0)
	}
	return len(refs), bytes
}

// ProxyStats returns a snapshot of proxy-store counters (zero when the
// store is disabled).
func (c *Cluster) ProxyStats() proxystore.Stats {
	if c.proxy == nil {
		return proxystore.Stats{}
	}
	return c.proxy.store.Stats()
}

// String-ifies a reclaim sweep for the aggregate warning message.
func reclaimMessage(addr string, blobs int, bytes int64) string {
	return fmt.Sprintf("reclaimed %d proxy blob(s) (%d bytes) owned by dead worker %s", blobs, bytes, addr)
}

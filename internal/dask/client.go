package dask

import (
	"time"

	"taskprov/internal/platform"
	"taskprov/internal/sim"
)

var wallEpoch = time.Now()

// nowWall returns monotonic wall-clock nanoseconds, used by
// TaskContext.Measure to charge real computation to the virtual clock.
func nowWall() int64 { return int64(time.Since(wallEpoch)) }

// Client is the workflow driver's handle: it submits task graphs to the
// scheduler and waits for their completion, from inside a sim.Proc (the
// "client program").
type Client struct {
	c    *Cluster
	node *platform.Node

	waiters map[int]func() // graphID -> completion callback
	done    map[int]bool
	errs    map[int]string

	// Submission overheads model the client-side cost of building and
	// serializing the task graph ("creating the task graph" coordination
	// time in Fig. 3).
	SubmitBase    sim.Time
	SubmitPerTask sim.Time
}

func newClient(c *Cluster, node *platform.Node) *Client {
	return &Client{
		c: c, node: node,
		waiters:       make(map[int]func()),
		done:          make(map[int]bool),
		errs:          make(map[int]string),
		SubmitBase:    sim.Milliseconds(20),
		SubmitPerTask: sim.Microseconds(120),
	}
}

// WaitForWorkers blocks the client process until n workers have connected
// (distributed.Client.wait_for_workers).
func (cl *Client) WaitForWorkers(p *sim.Proc, n int) {
	for cl.c.scheduler.ConnectedWorkers() < n {
		p.Sleep(sim.Milliseconds(100))
	}
}

// Submit sends a graph to the scheduler without waiting for completion.
// The graph must be finalizable; cross-graph dependencies must reference
// keys already in distributed memory.
func (cl *Client) Submit(p *sim.Proc, g *Graph) {
	if err := g.Finalize(); err != nil {
		panic(err)
	}
	// Client-side graph construction/serialization cost.
	p.Sleep(cl.SubmitBase + sim.Time(int64(cl.SubmitPerTask)*int64(g.Len())))
	cl.c.control(cl.node, cl.c.scheduler.node, func() {
		cl.c.scheduler.handleGraph(g)
	})
}

// Wait blocks the client process until the given graph completes.
func (cl *Client) Wait(p *sim.Proc, graphID int) {
	if cl.done[graphID] {
		return
	}
	p.Await(func(done func()) {
		prev := cl.waiters[graphID]
		cl.waiters[graphID] = func() {
			if prev != nil {
				prev()
			}
			done()
		}
	})
}

// SubmitAndWait submits a graph and blocks until it completes — the
// "compute()" pattern of a sequential multi-graph workflow.
func (cl *Client) SubmitAndWait(p *sim.Proc, g *Graph) {
	cl.Submit(p, g)
	cl.Wait(p, g.ID)
}

// Gather pulls the results of the given keys back to the client process,
// returning the total bytes delivered. In the direct data plane each payload
// relays through the scheduler (distributed's gather(direct=False) default);
// with the proxy store enabled the scheduler answers with a reference and the
// payload streams peer-to-peer from the owning worker. Keys still computing
// are waited for; erred keys deliver zero bytes.
func (cl *Client) Gather(p *sim.Proc, keys []TaskKey) int64 {
	var total int64
	for _, key := range keys {
		k := key
		p.Await(func(done func()) {
			cl.c.control(cl.node, cl.c.scheduler.node, func() {
				cl.c.scheduler.handleGather(k, func(size int64) {
					total += size
					done()
				})
			})
		})
	}
	return total
}

// graphDone is invoked (via a control message) when the scheduler reports a
// graph finished (errMsg is non-empty if any task erred).
func (cl *Client) graphDone(graphID int, errMsg string) {
	cl.done[graphID] = true
	if errMsg != "" {
		cl.errs[graphID] = errMsg
	}
	if w := cl.waiters[graphID]; w != nil {
		delete(cl.waiters, graphID)
		w()
	}
}

// GraphError returns the failure message of a completed graph ("" when it
// succeeded), like gathering an erred future raises in Dask.
func (cl *Client) GraphError(graphID int) string { return cl.errs[graphID] }

package chaos

import (
	"os"
	"regexp"
	"testing"

	"taskprov/internal/sim"
)

// docSpecs are the chaos specs the documentation shows that are not spelled
// as a `-chaos "…"` argument (FuzzParse picks those up from the files
// themselves): README's composed plan and an instance of every line of
// DESIGN §8's and §13's grammar, the wal and net lines also with their
// optional fields left out.
var docSpecs = []string{
	"kill worker=0 at=10s; wal topic=warnings after=100 count=5",
	"kill worker=1 at=5s",
	"wal topic=task-transitions partition=0 after=3 count=40",
	"wal partition=1 count=2",
	"scheduler at-task=imread-fc00afccf84e",
	"slow worker=1 at=2s factor=6 until=3s",
	"net src=0 dst=1 factor=4 at=5s until=3s",
	"net src=0 dst=1 factor=4",
	"broker node=1 at=3s",
}

// smallCluster is everything a plan can be armed against, sized like the
// smallest deployment; a rank, node or broker id outside it indexes out of
// range, so a plan that Check lets through with a bad target panics here as
// it would in a session.
type smallCluster struct {
	workers [4]float64 // slow factor; 0 = dead
	links   [2][2]float64
	brokers [3]bool
	hook    func(topic string, partition int) error
}

func (c *smallCluster) KillWorker(rank int)                 { c.workers[rank] = 0 }
func (c *smallCluster) RestartWorker(rank int)              { c.workers[rank] = 1 }
func (c *smallCluster) SlowWorker(rank int, factor float64) { c.workers[rank] = factor }
func (c *smallCluster) ClearSlowdown(rank int)              { c.workers[rank] = 1 }
func (c *smallCluster) SetLinkFactor(src, dst int, f float64) {
	c.links[src][dst] = f
}
func (c *smallCluster) KillBroker(id int) error    { c.brokers[id] = false; return nil }
func (c *smallCluster) RestartBroker(id int) error { c.brokers[id] = true; return nil }
func (c *smallCluster) SetAppendFault(h func(topic string, partition int) error) {
	c.hook = h
}

// FuzzParse: no spec, however malformed, panics the parser, and a plan the
// parser accepts and Check passes against a small cluster's shape arms
// against that cluster and runs to the end of its schedule without panicking.
func FuzzParse(f *testing.F) {
	for _, s := range docSpecs {
		f.Add(s)
	}
	quoted := regexp.MustCompile(`-chaos "([^"]+)"`)
	for _, doc := range []string{"../../README.md", "../../DESIGN.md", "../../.claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			f.Fatal(err)
		}
		for _, m := range quoted.FindAllSubmatch(raw, -1) {
			f.Add(string(m[1]))
		}
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := Parse(spec)
		if err != nil {
			return
		}
		cl := &smallCluster{}
		if plan.Check(len(cl.workers), len(cl.links), len(cl.brokers)) != nil {
			return
		}
		c := NewController(plan)
		k := sim.NewKernel(1)
		c.ArmWorkerFaults(k, cl)
		c.ArmSlowdowns(k, cl)
		c.ArmLinkFaults(k, cl)
		c.ArmClusterFaults(k, cl)
		c.ArmSchedulerFaults(k, func(SchedulerKill) { k.Stop() })
		_ = c.TaskTriggeredSchedulerKills()
		c.ArmBroker(cl)
		if cl.hook != nil {
			for i := 0; i < 3; i++ {
				_ = cl.hook("task-transitions", 0)
			}
		}
		k.Run()
	})
}

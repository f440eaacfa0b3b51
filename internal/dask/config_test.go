package dask

import (
	"reflect"
	"testing"
)

// TestDefaultsAreAFixedPoint holds withDefaults to giving its own output
// back: a run records the config its cluster was built with
// (Cluster.Config), and a resume rebuilds the cluster from that record, so a
// second pass that moved a value would resume the run on other values than
// it crashed on.
func TestDefaultsAreAFixedPoint(t *testing.T) {
	for name, c := range map[string]Config{
		"zero":    {},
		"default": DefaultConfig(),
		"negative": {WorkerTTL: -1, HeartbeatJitterCV: -1, ProxyThresholdBytes: -1,
			Speculation: SpeculationConfig{Enabled: true, Quantile: 2, SlowFactor: 0.5}},
		"proxy":       {ProxyThresholdBytes: 1 << 20},
		"speculation": {Speculation: SpeculationConfig{Enabled: true}},
	} {
		once := c.withDefaults()
		if twice := once.withDefaults(); !reflect.DeepEqual(twice, once) {
			t.Errorf("%s: defaults applied twice give\n%+v\nonce\n%+v", name, twice, once)
		}
	}
}

package bedrock

import (
	"strings"
	"testing"
	"time"

	"taskprov/internal/mochi/mercury"
)

func TestParseConfig(t *testing.T) {
	js := `{
		"address": "local://svc",
		"yokan": {"databases": ["meta", "index"]},
		"warabi": {"targets": ["data"]},
		"ssg": {"groups": [{"name": "g", "suspect_after_ms": 100, "dead_after_ms": 300}]}
	}`
	cfg, err := ParseConfig([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Address != "local://svc" || len(cfg.Yokan.Databases) != 2 {
		t.Fatalf("cfg = %+v", cfg)
	}
}

func TestParseConfigErrors(t *testing.T) {
	if _, err := ParseConfig([]byte("{nope")); err == nil {
		t.Fatal("garbage config parsed")
	}
	if _, err := ParseConfig([]byte(`{"yokan":{}}`)); err == nil || !strings.Contains(err.Error(), "address") {
		t.Fatalf("missing address not caught: %v", err)
	}
}

func TestDeployLocal(t *testing.T) {
	reg := mercury.NewRegistry()
	d, err := Deploy(DefaultConfig("local://mofka"), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	if d.Yokan.Open("metadata") == nil {
		t.Fatal("yokan database missing")
	}
	if d.Warabi.Target("data") == nil {
		t.Fatal("warabi target missing")
	}
	if d.Group("members") == nil {
		t.Fatal("ssg group missing")
	}
	if d.Group("absent") != nil {
		t.Fatal("unexpected group")
	}
	if d.Addr() != "local://mofka" {
		t.Fatalf("Addr = %q", d.Addr())
	}

	// Endpoint is reachable through the registry.
	d.Endpoint().Register("ping", func(req []byte) ([]byte, error) { return []byte("pong"), nil })
	resp, err := reg.Call(d.Addr(), "ping", nil)
	if err != nil || string(resp) != "pong" {
		t.Fatalf("ping = %q, %v", resp, err)
	}
}

func TestDeployLocalWithoutRegistryFails(t *testing.T) {
	if _, err := Deploy(DefaultConfig("local://x"), nil); err == nil {
		t.Fatal("local deploy without registry succeeded")
	}
}

func TestDeployTCP(t *testing.T) {
	d, err := Deploy(DefaultConfig("127.0.0.1:0"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	d.Endpoint().Register("ping", func(req []byte) ([]byte, error) { return []byte("pong"), nil })
	if d.Addr() == "127.0.0.1:0" || d.Addr() == "" {
		t.Fatalf("Addr not resolved: %q", d.Addr())
	}
	c, err := mercury.Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call("ping", nil)
	if err != nil || string(resp) != "pong" {
		t.Fatalf("ping over TCP = %q, %v", resp, err)
	}
}

func TestShutdownUnregistersLocal(t *testing.T) {
	reg := mercury.NewRegistry()
	d, err := Deploy(DefaultConfig("local://gone"), reg)
	if err != nil {
		t.Fatal(err)
	}
	d.Shutdown()
	if _, err := reg.Call("local://gone", "x", nil); err == nil {
		t.Fatal("endpoint still reachable after shutdown")
	}
}

func TestSSGGroupThresholdsApplied(t *testing.T) {
	cfg := DefaultConfig("local://svc")
	cfg.SSG.Groups = []SSGGroupConfig{{Name: "fast", SuspectAfterMS: 10, DeadAfterMS: 30}}
	reg := mercury.NewRegistry()
	d, err := Deploy(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	g := d.Group("fast")
	now := time.Now()
	g.Join("m0", now)
	g.Sweep(now.Add(15 * time.Millisecond))
	if ms := g.Members(); len(ms) != 1 || ms[0].State.String() != "suspect" {
		t.Fatalf("members = %+v, want one suspect (thresholds not applied)", ms)
	}
}

package bedrock

import (
	"strings"
	"testing"
	"time"

	"taskprov/internal/mochi/mercury"
	"taskprov/internal/mochi/ssg"
)

// TestParseConfig: a configuration parses, and one that still has a
// "warabi" section parses too — the section is ignored.
func TestParseConfig(t *testing.T) {
	for _, warabi := range []string{"", `"warabi": {"targets": ["data"]},`} {
		js := `{
			"address": "127.0.0.1:7791",
			"yokan": {"databases": ["meta", "index"]},
			` + warabi + `
			"ssg": {"groups": [{"name": "g", "suspect_after_ms": 100, "dead_after_ms": 300}]}
		}`
		cfg, err := ParseConfig([]byte(js))
		if err != nil {
			t.Fatalf("%q: %v", warabi, err)
		}
		if cfg.Address != "127.0.0.1:7791" || len(cfg.Yokan.Databases) != 2 || len(cfg.SSG.Groups) != 1 {
			t.Fatalf("%q: cfg = %+v", warabi, cfg)
		}
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

// TestDeployLocal: a deployment instantiates the configured services and
// groups, and its endpoint answers a call made on it in process.
func TestDeployLocal(t *testing.T) {
	d, err := Deploy(DefaultConfig("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	if d.Yokan.Open("metadata") == nil {
		t.Fatal("yokan database missing")
	}
	if d.Group("members") == nil {
		t.Fatal("ssg group missing")
	}
	if d.Group("absent") != nil {
		t.Fatal("unexpected group")
	}
	d.Endpoint().Register("ping", func(req []byte) ([]byte, error) { return []byte("pong"), nil })
	resp, err := d.Endpoint().Call("ping", nil)
	if err != nil || string(resp) != "pong" {
		t.Fatalf("ping = %q, %v", resp, err)
	}
}

// TestDeployTCP: a deployment serves its endpoint on the resolved TCP
// address.
func TestDeployTCP(t *testing.T) {
	d, err := Deploy(DefaultConfig("127.0.0.1:0"))
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

// TestDeployRefusesNonTCPAddress: an address that is no host:port, such as
// a bare service label, fails at the listen, with an error that names it.
func TestDeployRefusesNonTCPAddress(t *testing.T) {
	const addr = "mofka-svc"
	if _, err := Deploy(DefaultConfig(addr)); err == nil || !strings.Contains(err.Error(), addr) {
		t.Fatalf("Deploy(%q) = %v, want an error naming the address", addr, err)
	}
}

func TestSSGGroupThresholdsApplied(t *testing.T) {
	cfg := DefaultConfig("127.0.0.1:0")
	cfg.SSG.Groups = []SSGGroupConfig{{Name: "fast", SuspectAfterMS: 10, DeadAfterMS: 30}}
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	g := d.Group("fast")
	var seen []ssg.Event
	g.Observe(func(ev ssg.Event) { seen = append(seen, ev) })
	now := time.Now()
	g.Join("m0", now)
	g.Sweep(now.Add(15 * time.Millisecond))
	if len(seen) != 2 || seen[1].Kind != ssg.EventSuspect {
		t.Fatalf("membership events = %+v, want a join, then a suspect (thresholds not applied)", seen)
	}
}

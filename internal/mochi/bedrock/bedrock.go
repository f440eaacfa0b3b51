// Package bedrock reimplements the role of Mochi's Bedrock bootstrapper: a
// JSON configuration describes which microservices (Yokan databases, Warabi
// targets, SSG groups) a process should host and under which Mercury
// address, and Deploy instantiates them as one Deployment handle. Mofka
// builds its brokers on top of a bedrock Deployment, exactly as the real
// Mofka is bootstrapped by the real Bedrock.
package bedrock

import (
	"encoding/json"
	"fmt"
	"time"

	"taskprov/internal/mochi/mercury"
	"taskprov/internal/mochi/ssg"
	"taskprov/internal/mochi/warabi"
	"taskprov/internal/mochi/yokan"
)

// Config is the JSON deployment description.
type Config struct {
	// Address is the TCP host:port the deployment's Mercury endpoint
	// listens on ("127.0.0.1:0" picks a free port).
	Address string       `json:"address"`
	Yokan   YokanConfig  `json:"yokan"`
	Warabi  WarabiConfig `json:"warabi"`
	SSG     SSGConfig    `json:"ssg"`
}

// YokanConfig lists databases to create.
type YokanConfig struct {
	Databases []string `json:"databases"`
}

// WarabiConfig lists blob targets to create.
type WarabiConfig struct {
	Targets []string `json:"targets"`
}

// SSGConfig lists membership groups to create.
type SSGConfig struct {
	Groups []SSGGroupConfig `json:"groups"`
}

// SSGGroupConfig describes one group's failure detection thresholds.
type SSGGroupConfig struct {
	Name           string `json:"name"`
	SuspectAfterMS int64  `json:"suspect_after_ms"`
	DeadAfterMS    int64  `json:"dead_after_ms"`
}

// DefaultConfig returns a single-process composition suitable for running a
// Mofka-style service in tandem with a workflow.
func DefaultConfig(address string) Config {
	return Config{
		Address: address,
		Yokan:   YokanConfig{Databases: []string{"metadata"}},
		Warabi:  WarabiConfig{Targets: []string{"data"}},
		SSG: SSGConfig{Groups: []SSGGroupConfig{{
			Name: "members", SuspectAfterMS: 2000, DeadAfterMS: 5000,
		}}},
	}
}

// ParseConfig decodes a JSON configuration.
func ParseConfig(data []byte) (Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("bedrock: parse config: %w", err)
	}
	if c.Address == "" {
		return Config{}, fmt.Errorf("bedrock: config missing address")
	}
	return c, nil
}

// Deployment is a bootstrapped composition of microservices.
type Deployment struct {
	endpoint *mercury.Endpoint
	server   *mercury.Server

	Yokan  *yokan.Store
	Warabi *warabi.Provider
	groups map[string]*ssg.Group
}

// Deploy instantiates the configured services and serves their endpoint
// over TCP on the configured address.
func Deploy(cfg Config) (*Deployment, error) {
	if cfg.Address == "" {
		return nil, fmt.Errorf("bedrock: config missing address")
	}
	d := &Deployment{
		Yokan:  yokan.NewStore(),
		Warabi: warabi.NewProvider(),
		groups: make(map[string]*ssg.Group),
	}
	for _, db := range cfg.Yokan.Databases {
		d.Yokan.Open(db)
	}
	for _, tg := range cfg.Warabi.Targets {
		d.Warabi.Target(tg)
	}
	for _, gc := range cfg.SSG.Groups {
		d.groups[gc.Name] = ssg.NewGroup(gc.Name, ssg.Config{
			SuspectAfter: time.Duration(gc.SuspectAfterMS) * time.Millisecond,
			DeadAfter:    time.Duration(gc.DeadAfterMS) * time.Millisecond,
		})
	}
	d.endpoint = mercury.NewEndpoint(cfg.Address)
	srv, err := mercury.Serve(d.endpoint, cfg.Address)
	if err != nil {
		return nil, fmt.Errorf("bedrock: listen %q: %w", cfg.Address, err)
	}
	d.server = srv
	return d, nil
}

// Endpoint returns the Mercury endpoint services register RPCs on.
func (d *Deployment) Endpoint() *mercury.Endpoint { return d.endpoint }

// Addr returns the TCP address clients should dial: the configured one with
// its port resolved.
func (d *Deployment) Addr() string { return d.server.Addr() }

// Group returns the named SSG group, or nil if not configured.
func (d *Deployment) Group(name string) *ssg.Group { return d.groups[name] }

// Shutdown stops the deployment's listener.
func (d *Deployment) Shutdown() { _ = d.server.Close() }

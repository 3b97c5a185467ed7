package service

import (
	"encoding/json"
	"fmt"

	"oovr/internal/registry"
)

// NodeView is the router's read-only picture of one node at an arrival
// instant: enough load and shape information to place a session without
// exposing engine internals.
type NodeView struct {
	// ID is the node's index in the cluster.
	ID int
	// Active is how many admitted sessions are currently resident.
	Active int
	// Admitted is how many sessions the node has accepted so far.
	Admitted int
	// Capacity is the admission limit (MaxSessionsPerNode).
	Capacity int
	// NumGPMs is the node's GPU-module count.
	NumGPMs int
	// FabricCost is the mean hop count between the node's GPM pairs — a
	// scalar proxy for how expensive its interconnect traffic is (1 for a
	// full mesh, higher for routed fabrics).
	FabricCost float64
}

// Full reports whether the node is at its admission limit.
func (v NodeView) Full() bool { return v.Active >= v.Capacity }

// Router places one arriving session on a node. Route returns the chosen
// node's ID, or -1 to refuse placement; choosing a full node (or -1) rejects
// the session — admission control is reject-on-saturation either way.
// seq is the arrival's index in the cell (0-based), so stateless policies
// like round-robin stay deterministic and replayable.
//
// Implementations must be pure functions of (seq, nodes): the serving
// simulator replays cells serially, in parallel and across fleet shards,
// and all three must route identically.
type Router interface {
	Route(seq int, nodes []NodeView) int
}

// RouterFactory builds a routing policy from its JSON params. A nil or
// empty params message must yield the policy's defaults; unknown param
// fields are an error.
type RouterFactory func(params json.RawMessage) (Router, error)

// routers is the routing-policy name table (case-insensitive).
var routers = registry.New[RouterFactory]("service", "router", true)

// RegisterRouter adds a named session→node routing policy, so ServiceSpecs
// can reference it by string. Names are case-insensitive; registering a
// taken name panics. The builtins — "least-loaded", "round-robin",
// "topology-aware" — register at init.
func RegisterRouter(name string, f RouterFactory) {
	if f == nil {
		panic("service: nil RouterFactory for " + name)
	}
	routers.Register(name, f)
}

// NewRouter resolves a registered routing policy and builds it from the
// given params. Unknown names report the sorted registered list.
func NewRouter(name string, params json.RawMessage) (Router, error) {
	f, ok := routers.Lookup(name)
	if !ok {
		return nil, routers.Unknown(name)
	}
	r, err := f(params)
	if err != nil {
		return nil, fmt.Errorf("service: router %q params: %w", name, err)
	}
	return r, nil
}

// RouterNames returns the sorted names of all registered routing policies.
func RouterNames() []string { return routers.Names() }

// roundRobin cycles arrivals across the cluster regardless of load: the
// baseline policy. A full node in the rotation rejects its session.
type roundRobin struct{}

func (roundRobin) Route(seq int, nodes []NodeView) int {
	if len(nodes) == 0 {
		return -1
	}
	return seq % len(nodes)
}

// leastLoaded places each session on the node with the fewest resident
// sessions (ties: lowest ID) — the classic load balancer.
type leastLoaded struct{}

func (leastLoaded) Route(seq int, nodes []NodeView) int {
	best := -1
	for _, v := range nodes {
		if best < 0 || v.Active < nodes[best].Active {
			best = v.ID
		}
	}
	return best
}

// topologyAware weighs load by the node's interconnect cost: it picks the
// node minimizing (Active+1) x FabricCost among those with spare capacity,
// so tightly-coupled fabrics (full mesh) fill before routed ones (chains,
// rings) at equal occupancy. Ties: lowest ID. With every candidate full it
// refuses, like any other policy.
type topologyAware struct{}

func (topologyAware) Route(seq int, nodes []NodeView) int {
	best := -1
	var bestScore float64
	for _, v := range nodes {
		if v.Full() {
			continue
		}
		score := float64(v.Active+1) * v.FabricCost
		if best < 0 || score < bestScore {
			best, bestScore = v.ID, score
		}
	}
	return best
}

func noParams(name string, params json.RawMessage, r Router) (Router, error) {
	if len(params) > 0 && string(params) != "null" && string(params) != "{}" {
		return nil, fmt.Errorf("policy %s takes no params", name)
	}
	return r, nil
}

func init() {
	RegisterRouter("round-robin", func(p json.RawMessage) (Router, error) {
		return noParams("round-robin", p, roundRobin{})
	})
	RegisterRouter("least-loaded", func(p json.RawMessage) (Router, error) {
		return noParams("least-loaded", p, leastLoaded{})
	})
	RegisterRouter("topology-aware", func(p json.RawMessage) (Router, error) {
		return noParams("topology-aware", p, topologyAware{})
	})
}

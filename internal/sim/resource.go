// Package sim provides the simulated-time substrate of the OO-VR multi-GPU
// model: FIFO bandwidth resources that model DRAM channels, inter-GPM links
// and other rate-limited servers. The frame loop reserves them in issue
// order; there is no event queue.
//
// Time is measured in GPU cycles (the paper's baseline clocks GPMs at 1 GHz,
// so one cycle is one nanosecond). Fractional cycles are permitted because
// bandwidth reservations rarely end on cycle boundaries at transaction
// granularity.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in GPU cycles.
type Time float64

// Resource is a FIFO bandwidth server: a DRAM channel, one direction of an
// inter-GPM link, a ROP array, or any other component that serves work at a
// fixed rate. Requests queue in arrival order; a reservation of amount A
// on a resource with rate R occupies the server for A/R cycles.
//
// Resource deliberately has no notion of preemption or fair sharing between
// requesters: the paper models NVLinks as dedicated point-to-point channels
// and DRAM as a bandwidth-limited pipe, for which FIFO occupancy is the
// right first-order model.
type Resource struct {
	name     string
	rate     float64 // units per cycle (e.g. bytes/cycle)
	nextFree Time
	busy     Time    // total occupied cycles
	total    float64 // total units served
	maxWait  Time    // longest queueing delay any reservation saw
}

// NewResource creates a resource serving rate units per cycle. Rate must be
// positive and finite.
func NewResource(name string, rate float64) *Resource {
	if !(rate > 0) || math.IsInf(rate, 1) {
		panic(fmt.Sprintf("sim: resource %q rate %v must be positive and finite", name, rate))
	}
	return &Resource{name: name, rate: rate}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Reserve queues a request of the given amount arriving at time at, and
// returns the time the transfer completes. Zero amounts complete immediately
// at max(at, queue head) without occupying the server. A negative or NaN
// amount panics: a NaN would lose every later end-time comparison and
// leave the resource uncharged.
func (r *Resource) Reserve(at Time, amount float64) Time {
	if !(amount >= 0) {
		panic(fmt.Sprintf("sim: resource %q invalid amount %v", r.name, amount))
	}
	start := at
	if r.nextFree > start {
		start = r.nextFree
	}
	if amount == 0 {
		return start
	}
	if wait := start - at; wait > r.maxWait {
		r.maxWait = wait
	}
	dur := Time(amount / r.rate)
	end := start + dur
	r.nextFree = end
	r.busy += dur
	r.total += amount
	return end
}

// NextFree returns the earliest time a new reservation could begin service.
func (r *Resource) NextFree() Time { return r.nextFree }

// BusyCycles returns the total cycles the server has been occupied.
func (r *Resource) BusyCycles() Time { return r.busy }

// TotalServed returns the total units served.
func (r *Resource) TotalServed() float64 { return r.total }

// MaxQueueDelay returns the longest time any reservation spent queued
// behind earlier work — the peak-congestion indicator the interconnect
// metrics report per link.
func (r *Resource) MaxQueueDelay() Time { return r.maxWait }

// Utilization returns busy/horizon, the fraction of the given horizon the
// server was occupied. Horizon must be positive.
func (r *Resource) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	u := float64(r.busy) / float64(horizon)
	if u > 1 {
		u = 1
	}
	return u
}

package main

import (
	"crypto/sha256"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"time"
)

// The shared 2-vCPU reference host changes speed under its neighbours'
// load: the same runs of one workload, minutes apart, differed by up to
// 44%, with no steal time reported. Reference computations that share
// nothing with the simulator slow with it, so every untraced run times a
// reference slice between its units of work and scales the times it
// reports to the reference host's idle speed. A slice is two parts: a
// memory chase plus sha256 (arithmetic and memory latency) and loopback
// TCP round trips (wake-ups, syscalls and the network stack the HTTP
// workloads cross). Over 6–7 runs of each workload, raw throughput spread
// (interquartile range over median) by 13–32%; scaled by the geometric mean
// of the two parts' speeds, by 5–11%. Slices run outside the timed phase's
// wall time, after a collection, so neither the workload's garbage nor its
// requests overlap them, and they allocate nothing.

// Each part of a slice on the idle reference host.
const (
	refComputeNominal = 8 * time.Millisecond
	refNetNominal     = 2 * time.Millisecond
	refRoundTrips     = 200
)

// hostRef is the reference computation's state: a 16 MiB single-cycle
// permutation to chase, a buffer to hash and a loopback connection to an
// echo goroutine. Only one goroutine at a time may time a slice.
type hostRef struct {
	perm []int32
	buf  []byte
	msg  []byte
	conn net.Conn
	echo chan struct{} // closed when the echo goroutine has returned
	sink int32         // keeps the compute part from being optimized away
}

func newHostRef() (*hostRef, error) {
	const n = 1 << 22
	h := &hostRef{perm: make([]int32, n), buf: make([]byte, 1<<20), msg: make([]byte, 64), echo: make(chan struct{})}
	for i := range h.perm {
		h.perm[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(1))
	// Sattolo's algorithm: one cycle through every entry, so the chase
	// never settles into a short loop that fits in cache.
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		h.perm[i], h.perm[j] = h.perm[j], h.perm[i]
	}
	rng.Read(h.buf)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		defer close(h.echo)
		c, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, len(h.msg))
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	if h.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close() // ends the echo goroutine's Accept
		<-h.echo
		return nil, err
	}
	return h, nil
}

// close ends the echo goroutine and waits for it.
func (h *hostRef) close() {
	h.conn.Close()
	<-h.echo
}

// slice runs the reference computation once and returns how long each part
// took.
func (h *hostRef) slice() (compute, network time.Duration, err error) {
	t0 := time.Now()
	x := int32(0)
	for i := 0; i < 1<<15; i++ {
		x = h.perm[x]
	}
	for i := 0; i < 4; i++ {
		sum := sha256.Sum256(h.buf)
		x ^= int32(sum[0])
	}
	h.sink = x
	t1 := time.Now()
	for i := 0; i < refRoundTrips; i++ {
		if _, err := h.conn.Write(h.msg); err != nil {
			return 0, 0, err
		}
		if _, err := io.ReadFull(h.conn, h.msg); err != nil {
			return 0, 0, err
		}
	}
	return t1.Sub(t0), time.Since(t1), nil
}

// pause times one reference slice, after collecting the workload's
// garbage, when the recorder has a reference. Workloads call it between
// units of work, from the goroutine that runs the timed phase, while none
// of their operations is in flight.
func (r *recorder) pause() {
	if r.ref == nil {
		return
	}
	t0 := time.Now()
	runtime.GC()
	compute, network, err := r.ref.slice()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.checks++
		r.checksFailed++
		r.note("reference slice: %v", err)
		return
	}
	r.refCompute += compute
	r.refNet += network
	r.refSlices++
	r.refSpent += time.Since(t0)
}

// speed is the host's speed during the run relative to the idle reference
// host: the geometric mean of the two parts' nominal over mean times, 1
// without slices. A reported time is the measured one times speed, a rate
// the measured one over it.
func (r *recorder) speed() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.refSlices == 0 {
		return 1
	}
	n := float64(r.refSlices)
	compute := refComputeNominal.Seconds() * n / r.refCompute.Seconds()
	network := refNetNominal.Seconds() * n / r.refNet.Seconds()
	return math.Sqrt(compute * network)
}

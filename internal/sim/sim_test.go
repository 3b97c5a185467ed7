package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestResourceBasicReservation(t *testing.T) {
	r := NewResource("dram", 100) // 100 bytes/cycle
	end := r.Reserve(0, 1000)
	if end != 10 {
		t.Errorf("end = %v, want 10", end)
	}
	if r.TotalServed() != 1000 {
		t.Errorf("TotalServed = %v", r.TotalServed())
	}
	if r.BusyCycles() != 10 {
		t.Errorf("BusyCycles = %v", r.BusyCycles())
	}
}

func TestResourceFIFOQueueing(t *testing.T) {
	r := NewResource("link", 10)
	e1 := r.Reserve(0, 100) // occupies [0,10)
	e2 := r.Reserve(0, 50)  // queued: [10,15)
	e3 := r.Reserve(20, 10) // idle gap then [20,21)
	if e1 != 10 || e2 != 15 || e3 != 21 {
		t.Errorf("ends = %v %v %v", e1, e2, e3)
	}
}

func TestResourceZeroAmount(t *testing.T) {
	r := NewResource("x", 5)
	r.Reserve(0, 100) // busy until 20
	end := r.Reserve(0, 0)
	if end != 20 {
		t.Errorf("zero-amount reservation should complete at queue head: %v", end)
	}
	if r.BusyCycles() != 20 || r.TotalServed() != 100 {
		t.Errorf("zero-amount reservation should not occupy the server: busy %v, served %v",
			r.BusyCycles(), r.TotalServed())
	}
}

func TestResourceNegativePanics(t *testing.T) {
	r := NewResource("x", 1)
	defer func() {
		if recover() == nil {
			t.Errorf("negative amount did not panic")
		}
	}()
	r.Reserve(0, -5)
}

func TestNewResourceInvalidRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("zero rate did not panic")
		}
	}()
	NewResource("bad", 0)
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource("x", 10)
	r.Reserve(0, 100) // busy 10 cycles
	if u := r.Utilization(20); u != 0.5 {
		t.Errorf("Utilization = %v", u)
	}
	if u := r.Utilization(5); u != 1 {
		t.Errorf("Utilization should clamp to 1, got %v", u)
	}
	if u := r.Utilization(0); u != 0 {
		t.Errorf("zero horizon Utilization = %v", u)
	}
}

// Property: for any sequence of reservations, completion times are
// non-decreasing and total busy time equals total amount / rate.
func TestResourceFIFOPropertyQuick(t *testing.T) {
	f := func(amounts []uint16, gaps []uint8) bool {
		r := NewResource("q", 7)
		var at Time
		var prevEnd Time
		var totalAmount float64
		for i, a := range amounts {
			if i < len(gaps) {
				at += Time(gaps[i])
			}
			amt := float64(a % 1000)
			end := r.Reserve(at, amt)
			if end < prevEnd-1e-9 {
				return false // FIFO violated
			}
			if amt > 0 {
				prevEnd = end
				totalAmount += amt
			}
		}
		return math.Abs(float64(r.BusyCycles())-totalAmount/7) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestResourceRejectsNaN pins the rate and amount guards against values
// every ordered comparison lets through: a NaN rate or amount would make
// end times NaN, which lose every later `e > end` test and so charge no
// time at all.
func TestResourceRejectsNaN(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		mustPanic(fmt.Sprintf("rate %v", rate), func() { NewResource("bad", rate) })
	}
	r := NewResource("x", 1)
	mustPanic("NaN amount", func() { r.Reserve(0, math.NaN()) })
	mustPanic("negative amount", func() { r.Reserve(0, -1) })
	if end := r.Reserve(0, 2); end != 2 {
		t.Errorf("valid reservation after rejected ones ends at %v, want 2", end)
	}
}

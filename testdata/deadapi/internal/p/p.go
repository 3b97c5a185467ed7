// Package p is a fixture for the test-only API scan: Used has a non-test
// caller, TestOnly is called only from a test, and T.String is called by
// fmt through an interface.
package p

import "fmt"

// T is a value fmt prints through its String method.
type T int

func (t T) String() string { return fmt.Sprintf("T(%d)", int(t)) }

// Used is called from cmd/x.
func Used() T { return 1 }

// TestOnly is called only from p_test.go.
func TestOnly() int { return 2 }

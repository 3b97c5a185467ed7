package p

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 2 {
		t.Fail()
	}
}

package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Chaos is the worker's deterministic fault-injection layer: with
// probability Crash the worker abandons a lease without a word (the
// coordinator must notice by expiry), with Stall it keeps heartbeating
// but sits on the result long enough to trip the straggler re-issue, and
// with Corrupt it posts a Result whose content address lies (the
// integrity gate must reject it). The three are mutually exclusive per
// decision and their probabilities therefore must sum to at most 1.
//
// Decisions are a pure function of (Seed, spec hash, how many times this
// worker has seen that spec), so a chaos run is reproducible regardless
// of goroutine or fleet scheduling — the failure paths are first-class
// tested behavior, not hope.
type Chaos struct {
	Crash   float64
	Stall   float64
	Corrupt float64
	Seed    int64
}

// ParseChaos reads the -chaos flag syntax: comma-separated
// crash=P,stall=P,corrupt=P,seed=N pairs, each optional. The empty string
// disables injection.
func ParseChaos(s string) (Chaos, error) {
	var c Chaos
	if s == "" {
		return c, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Chaos{}, fmt.Errorf("fleet: chaos: %q is not key=value", kv)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Chaos{}, fmt.Errorf("fleet: chaos seed: %w", err)
			}
			c.Seed = n
		case "crash", "stall", "corrupt":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || !(p >= 0 && p <= 1) { // NaN fails both bounds
				return Chaos{}, fmt.Errorf("fleet: chaos %s: %q is not a probability", k, v)
			}
			switch k {
			case "crash":
				c.Crash = p
			case "stall":
				c.Stall = p
			case "corrupt":
				c.Corrupt = p
			}
		default:
			return Chaos{}, fmt.Errorf("fleet: chaos: unknown knob %q (crash, stall, corrupt, seed)", k)
		}
	}
	if c.Crash+c.Stall+c.Corrupt > 1 {
		return Chaos{}, fmt.Errorf("fleet: chaos probabilities sum past 1")
	}
	return c, nil
}

// Enabled reports whether any fault fires with non-zero probability.
func (c Chaos) Enabled() bool { return c.Crash > 0 || c.Stall > 0 || c.Corrupt > 0 }

// chaosAction is one injection decision.
type chaosAction int

const (
	chaosNone chaosAction = iota
	chaosCrash
	chaosStall
	chaosCorrupt
)

func (a chaosAction) String() string {
	switch a {
	case chaosCrash:
		return "crash"
	case chaosStall:
		return "stall"
	case chaosCorrupt:
		return "corrupt"
	}
	return "none"
}

// decide draws the fault for one (spec, attempt) pair: a single uniform
// value partitions into [crash | stall | corrupt | none], so the knobs are
// mutually exclusive and additive.
func (c Chaos) decide(hash string, try int) chaosAction {
	if !c.Enabled() {
		return chaosNone
	}
	h := sha256.New()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(c.Seed))
	h.Write(seed[:])
	h.Write([]byte(hash))
	binary.LittleEndian.PutUint64(seed[:], uint64(try))
	h.Write(seed[:])
	u := float64(binary.LittleEndian.Uint64(h.Sum(nil)[:8])>>11) / float64(1<<53)
	switch {
	case u < c.Crash:
		return chaosCrash
	case u < c.Crash+c.Stall:
		return chaosStall
	case u < c.Crash+c.Stall+c.Corrupt:
		return chaosCorrupt
	}
	return chaosNone
}

// corruptBody deterministically falsifies a Result's claimed content
// address (first hex digit flipped), so the coordinator's integrity gate
// — not JSON parsing — is what has to catch it.
func corruptBody(body []byte) []byte {
	out := append([]byte(nil), body...)
	const key = `"spec_hash":"`
	if i := strings.Index(string(out), key); i >= 0 {
		j := i + len(key)
		if out[j] == 'f' {
			out[j] = '0'
		} else {
			out[j] = 'f'
		}
	}
	return out
}

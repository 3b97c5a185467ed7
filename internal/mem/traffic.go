package mem

// Traffic accumulates the byte flows of a simulation run. It distinguishes
// local DRAM traffic from inter-GPM traffic, attributes inter-GPM bytes to
// logical (source, destination) GPM pairs, and breaks inter-GPM totals
// down by segment kind; Figure 9 and Figure 16 of the paper are plots of
// these counters. Bytes per *physical* link are not counted here: under a
// routed topology one logical flow crosses several links, and each link's
// FIFO server in internal/link counts the bytes it serves.
type Traffic struct {
	local      []float64   // per GPM
	link       [][]float64 // [src][dst] bytes moved from src's DRAM to dst
	kindRemote []float64   // per SegmentKind
}

// NewTraffic creates an empty traffic account for n GPMs.
func NewTraffic(n int) *Traffic {
	link := make([][]float64, n)
	for i := range link {
		link[i] = make([]float64, n)
	}
	return &Traffic{
		local:      make([]float64, n),
		link:       link,
		kindRemote: make([]float64, numKinds),
	}
}

// TotalLocal returns local DRAM bytes summed over all GPMs.
func (t *Traffic) TotalLocal() float64 {
	var s float64
	for _, v := range t.local {
		s += v
	}
	return s
}

// LinkBytes returns the bytes moved from src's DRAM to dst (one logical
// pair; a routed topology carries them over every link of the route).
func (t *Traffic) LinkBytes(src, dst GPMID) float64 { return t.link[src][dst] }

// TotalInterGPM returns the total bytes moved between GPMs, each counted
// once whatever its route — the paper's headline "inter-GPM memory
// traffic" metric.
func (t *Traffic) TotalInterGPM() float64 {
	var s float64
	for i := range t.link {
		for j := range t.link[i] {
			s += t.link[i][j]
		}
	}
	return s
}

// RemoteByKind returns the inter-GPM bytes attributed to the given kind.
func (t *Traffic) RemoteByKind(k SegmentKind) float64 { return t.kindRemote[k] }

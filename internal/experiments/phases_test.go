package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"oovr/internal/core"
	"oovr/internal/driver"
	"oovr/internal/multigpu"
	"oovr/internal/workload"
)

// TestPhaseBucketsCoverTheRun sanity-checks the phase accounting itself:
// rendering work must land in the execute bucket and OO-VR's distribution
// traffic in ship, with no negative buckets anywhere.
func TestPhaseBucketsCoverTheRun(t *testing.T) {
	c, ok := workload.CaseByName("DM3-640")
	if !ok {
		t.Fatal("missing benchmark case DM3-640")
	}
	sc := c.Spec.Generate(c.Width, c.Height, 4, 1)
	sys := multigpu.New(multigpu.DefaultOptions(), sc)
	driver.Run(sys, core.NewOOVR())
	p := sys.Phases()
	if p.Ship < 0 || p.Execute < 0 || p.Compose < 0 {
		t.Fatalf("negative phase bucket: %+v", p)
	}
	if p.Execute == 0 {
		t.Error("execute bucket empty after a full run")
	}
	if p.Ship == 0 {
		t.Error("ship bucket empty: OO-VR distributes object data every frame")
	}
	names := []string{"ship", "execute", "compose"}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if !strings.Contains(string(b), `"`+n+`"`) {
			t.Errorf("PhaseCycles JSON missing %q key: %s", n, b)
		}
	}
}

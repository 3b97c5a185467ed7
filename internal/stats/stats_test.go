package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Errorf("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Errorf("Mean = %v", Mean([]float64{1, 2, 3}))
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Errorf("GeoMean(nil) != 0")
	}
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("GeoMean of zero did not panic")
		}
	}()
	GeoMean([]float64{0})
}

func TestFigureSeries(t *testing.T) {
	f := Figure{ID: "Figure X", Caption: "test", XLabels: []string{"a", "b"}}
	f.AddSeries("s1", []float64{1, 2})
	if s, ok := f.SeriesByName("s1"); !ok || s.Values[1] != 2 {
		t.Errorf("SeriesByName failed")
	}
	if _, ok := f.SeriesByName("nope"); ok {
		t.Errorf("found nonexistent series")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("misaligned series did not panic")
		}
	}()
	f.AddSeries("bad", []float64{1})
}

func TestFigureRenderAndCSV(t *testing.T) {
	f := Figure{ID: "Figure 9", Caption: "traffic", XLabels: []string{"DM3", "HL2"}}
	f.AddSeries("Baseline", []float64{1, 1})
	f.AddSeries("OOVR", []float64{0.25, 0.22})
	out := f.Render()
	for _, want := range []string{"Figure 9", "Baseline", "OOVR", "DM3", "mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	csv := f.CSV()
	if !strings.HasPrefix(csv, "series,DM3,HL2\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
	if !strings.Contains(csv, "OOVR,0.25,0.22") {
		t.Errorf("CSV row wrong: %q", csv)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("SortedKeys = %v", got)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"time"

	"oovr/internal/service"
	"oovr/internal/spec"
)

// fsSpec is the ServiceSpec behind one series of the FS capacity figure
// (experiments.FSCapacity): 3 cluster sizes × 6 arrival rates of DM3-640
// sessions at the 0.2 ms render deadline. Smoke runs shrink it to one tiny
// cell.
func fsSpec(scheduler string, seed int64, smoke bool) spec.ServiceSpec {
	s := spec.ServiceSpec{
		ServiceVersion:     spec.ServiceVersion,
		Nodes:              []spec.NodeGroup{{Count: 1}},
		NodeSweep:          []int{1, 2, 4},
		Scheduler:          spec.SchedulerRef{Name: scheduler},
		Sessions:           []spec.SessionMix{{Workload: "DM3-640"}},
		LambdaSweep:        []float64{16, 32, 64, 128, 256, 512},
		MeanFrames:         30,
		DeadlineMs:         0.2,
		HorizonMs:          300,
		MaxSessionsPerNode: 64,
		Seed:               seed,
	}
	if smoke {
		s.NodeSweep, s.LambdaSweep, s.MeanFrames, s.HorizonMs = []int{1}, []float64{64}, 3, 30
	}
	return s
}

type cellJob struct {
	key  string
	spec spec.ServiceSpec
}

// serviceNominal is what one pass over the grid takes on the reference
// host, in seconds.
const serviceNominal = 12

// serviceBench simulates whole passes over the OO-VR series of the FS
// figure — 18 cells, in grid order — each cell driven event by event
// through OpenCell / Step / Report. An op is one Step: one arrival or one
// frame coming due. The baseline series is left out: its frames cost 1.6x
// OO-VR's, which would make the per-step latency bimodal, and it would more
// than double the run.
type serviceBench struct {
	cells  []cellJob
	passes int

	// Traced-pass boundary totals.
	open, step time.Duration
	done       int
	admitted   int
}

func setupService(c config, rec *recorder) (bench, error) {
	b := &serviceBench{passes: units(c, serviceNominal)}
	cells, err := service.CellSpecs(fsSpec("oovr", c.seed, c.smoke))
	if err != nil {
		return nil, err
	}
	for _, cs := range cells {
		key := fmt.Sprintf("oovr/n%d/l%g", cs.Nodes[0].Count, cs.LambdaSweep[0])
		b.cells = append(b.cells, cellJob{key, cs})
	}
	// Warm-up: the seed-1 cell of the smallest cluster at the lowest rate.
	warm, err := service.CellSpecs(fsSpec("oovr", 1, c.smoke))
	if err != nil {
		return nil, err
	}
	if _, _, err := b.simulate(warm[0], nil); err != nil {
		return nil, err
	}
	b.open, b.step = 0, 0
	return b, nil
}

// verify runs the first cell through service.RunCell, which must report
// what the timed phase's own event loop reported.
func (b *serviceBench) verify(rec *recorder) {
	job := b.cells[0]
	want, err := service.RunCell(job.spec)
	rec.check(err == nil && digest([]byte(encode(want))) == rec.digestOf(job.key),
		"%s through service.RunCell differs from the stepped cell", job.key)
}

func encode(r service.CellReport) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a CellReport is plain data
	}
	return string(b)
}

func (b *serviceBench) run(rec *recorder) {
	for k := 0; k < b.passes; k++ {
		for _, job := range b.cells {
			rep, steps, err := b.simulate(job.spec, rec)
			if err != nil {
				steps = 1
				rec.fail(steps, "%s: %v", job.key, err)
			} else {
				rec.output(job.key, []byte(encode(rep)), steps)
				rec.addFrames(int64(rep.Frames))
				b.done++
				b.admitted += rep.Admitted
			}
			rec.done(steps)
			rec.pause()
		}
	}
}

// simulate runs one cell to drain, timing each Step into rec (when
// non-nil), and returns its report and step count.
func (b *serviceBench) simulate(sp spec.ServiceSpec, rec *recorder) (service.CellReport, int64, error) {
	t0 := time.Now()
	cell, err := service.OpenCell(sp)
	if err != nil {
		return service.CellReport{}, 0, err
	}
	t1 := time.Now()
	b.open += t1.Sub(t0)
	var steps int64
	for more := true; more; steps++ {
		s := time.Now()
		more = cell.Step()
		e := time.Now()
		if rec != nil {
			rec.latency(s, e)
		}
		b.step += e.Sub(s)
	}
	return cell.Report(), steps, nil
}

func (b *serviceBench) layers(wall time.Duration) map[string]float64 {
	share := func(d time.Duration) float64 { return 100 * d.Seconds() / wall.Seconds() }
	return map[string]float64{
		"service.open_cell_share":   share(b.open),
		"service.step_share":        share(b.step),
		"service.cells":             float64(b.done),
		"service.sessions_admitted": float64(b.admitted),
	}
}

func (b *serviceBench) close() {}

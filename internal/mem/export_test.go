package mem

// The per-page reference, exported to booking_test.go: that test drives a
// real link.Fabric, and package link imports mem, so it is an external
// test.

type PageRef = pageRefSystem

func NewPageRef(cfg Config) *PageRef { return newPageRef(cfg) }

func (r *pageRefSystem) Alloc(kind SegmentKind, size int64) int { return r.alloc(kind, size) }
func (r *pageRefSystem) Place(id int, g GPMID)                  { r.place(id, g) }
func (r *pageRefSystem) PlacePartitioned(id int)                { r.placePartitioned(id) }
func (r *pageRefSystem) ResetWarmth()                           { r.resetWarmth() }
func (r *pageRefSystem) Record(f Flow) Flow                     { return r.record(f) }
func (r *pageRefSystem) Traffic() *Traffic                      { return r.traffic }

func (r *pageRefSystem) Access(gpm GPMID, id int, offset, n int64, isRead bool) Flow {
	return r.access(gpm, id, offset, n, isRead)
}

func (r *pageRefSystem) ReadProportional(gpm GPMID, id int, bytes float64) Flow {
	return r.readProportional(gpm, id, bytes)
}

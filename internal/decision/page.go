package decision

// Page is a filtered snapshot of a recorder: what a DecisionsReply and
// condor-web's /api/decisions carry.
type Page struct {
	Cycles  []CycleAudit `json:"cycles"`
	Total   uint64       `json:"total"`   // audits ever recorded
	Dropped uint64       `json:"dropped"` // audits lost to ring wraparound
}

// PageFor snapshots the recorder into a Page with Filter semantics.
func (r *Recorder) PageFor(job, station string, cycle int64, last int) Page {
	audits := Filter(r.Snapshot(), job, station, cycle, last)
	if audits == nil {
		audits = []CycleAudit{}
	}
	return Page{Cycles: audits, Total: r.Total(), Dropped: r.Dropped()}
}

package uafcheck

// Clone returns a deep copy of the report: mutating the copy (or the
// original) never affects the other. The analysis cache round-trips
// every stored report through Clone, so batch and single-file callers
// can freely edit what they get back.
func (r *Report) Clone() *Report {
	if r == nil {
		return nil
	}
	// Positional composite literal on purpose: adding a field to Report
	// without extending this clone becomes a compile error instead of a
	// silently-shared (or silently-dropped) field.
	cp := Report{r.Warnings, r.Notes, r.Truncated, r.Stats, r.PPSTraces, r.Metrics, r.Degraded}

	cp.Warnings = append([]Warning(nil), r.Warnings...)
	for i := range cp.Warnings {
		if p := cp.Warnings[i].Prov; p != nil {
			pc := *p
			pc.Chain = append([]string(nil), p.Chain...)
			cp.Warnings[i].Prov = &pc
		}
	}
	cp.Notes = append([]string(nil), r.Notes...)
	cp.Stats = append([]ProcStats(nil), r.Stats...)
	if r.PPSTraces != nil {
		cp.PPSTraces = make(map[string]string, len(r.PPSTraces))
		for k, v := range r.PPSTraces {
			cp.PPSTraces[k] = v
		}
	}
	cp.Metrics = r.Metrics.Clone()
	if r.Degraded != nil {
		d := *r.Degraded
		d.Procs = append([]string(nil), r.Degraded.Procs...)
		d.Crashes = append([]Crash(nil), r.Degraded.Crashes...)
		cp.Degraded = &d
	}
	return &cp
}

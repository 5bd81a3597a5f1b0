package core

// ResidualSummary is a shard's headroom census: the residual CPU the
// federation router re-centers its view on after a capacity change,
// and the host and guest counts the census endpoint reports.
type ResidualSummary struct {
	// TotalProc is the sum of residual CPU (MIPS) across
	// non-quarantined hosts.
	TotalProc float64
	// Hosts counts non-quarantined hosts and Guests the guests of the
	// deployed environments.
	Hosts  int
	Guests int
}

// ResidualSummary captures the census in one pass over the hosts and
// the deployed environments, under the session lock.
func (s *Session) ResidualSummary() ResidualSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum ResidualSummary
	for _, node := range s.c.HostNodes() {
		if s.led.Quarantined(node) {
			continue
		}
		sum.TotalProc += s.led.ResidualProc(node)
		sum.Hosts++
	}
	//hmn:orderinvariant
	for m := range s.active {
		sum.Guests += len(m.GuestHost)
	}
	return sum
}

package pipeline

// StoreSets is a store-set style memory dependence predictor (Chrysos &
// Emer). Loads and stores that have violated together are placed in the
// same store set; a load with a store set must wait for the last in-flight
// store of that set to resolve before issuing.
//
// The implementation is the common simplified variant: a PC-indexed store
// set ID table (SSIT) and a last-fetched-store table (LFST) holding the
// youngest in-flight store per set.
type StoreSets struct {
	slab    *slab
	ssit    []int32 // PC hash -> set id (-1 = none)
	lfst    map[int32]Handle
	nextSet int32

	// Statistics.
	Violations uint64
	Waits      uint64
}

const ssitSize = 4096

// newStoreSets returns an empty predictor over a pipeline's records.
func newStoreSets(sl *slab) *StoreSets {
	s := &StoreSets{
		slab: sl,
		ssit: make([]int32, ssitSize),
		lfst: make(map[int32]Handle),
	}
	for i := range s.ssit {
		s.ssit[i] = -1
	}
	return s
}

func ssitIndex(pc uint64) int { return int((pc >> 2) % ssitSize) }

// OnDispatchStore records the store as the last fetched member of its set.
func (s *StoreSets) OnDispatchStore(st *Inflight) {
	sid := s.ssit[ssitIndex(st.U.PC)]
	if sid >= 0 {
		s.lfst[sid] = st.h
	}
}

// DependencyFor returns the in-flight store a dispatched load should wait
// for, if its PC belongs to a store set with an in-flight member (zero
// otherwise).
func (s *StoreSets) DependencyFor(ld *Inflight) Handle {
	sid := s.ssit[ssitIndex(ld.U.PC)]
	if sid < 0 {
		return 0
	}
	h := s.lfst[sid]
	if h == 0 {
		return 0
	}
	if st := s.slab.at(h); st.Committed || st.Squashed || st.Seq() > ld.Seq() {
		return 0
	}
	s.Waits++
	return h
}

// OnViolation trains the predictor after a memory-order violation between
// a store and a younger load: both PCs join the same set.
func (s *StoreSets) OnViolation(st, ld *Inflight) {
	s.Violations++
	si, li := ssitIndex(st.U.PC), ssitIndex(ld.U.PC)
	switch {
	case s.ssit[si] < 0 && s.ssit[li] < 0:
		s.ssit[si] = s.nextSet
		s.ssit[li] = s.nextSet
		s.nextSet++
	case s.ssit[si] < 0:
		s.ssit[si] = s.ssit[li]
	case s.ssit[li] < 0:
		s.ssit[li] = s.ssit[si]
	default:
		// Merge by pointing the load's set at the store's.
		s.ssit[li] = s.ssit[si]
	}
}

// OnComplete clears LFST entries that point at a store leaving flight.
func (s *StoreSets) OnComplete(st *Inflight) {
	sid := s.ssit[ssitIndex(st.U.PC)]
	if sid >= 0 && s.lfst[sid] == st.h {
		delete(s.lfst, sid)
	}
}

// OnSquash drops LFST entries for squashed stores.
func (s *StoreSets) OnSquash(fromSeq uint64) {
	for sid, h := range s.lfst {
		if s.slab.at(h).Seq() >= fromSeq {
			delete(s.lfst, sid)
		}
	}
}

package core

// LiveSlots exposes the live slots of a sharded artifact to the
// external equivalence tests (see liveSlots).
func (sc *ShardedCompiled) LiveSlots() []int { return sc.liveSlots() }

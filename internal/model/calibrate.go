package model

// The model's fitted coefficients. The structural inputs (latencies,
// widths, structure sizes) come from the run's own pipeline.Config;
// these constants absorb the second-order effects the interval model
// does not simulate (wakeup/select loops, issue-port contention,
// partial squash overlap), and were fitted so the model tracks the
// cycle-accurate backend across the kernel registry and the scenario
// families (see TestModelTracksCycleBackend).
const (
	// dispatchWidth is the sustained front-end throughput in µops per
	// cycle. It sits below the nominal rename width: the fitted value
	// covers fetch fragmentation and issue-port contention the model
	// does not simulate.
	dispatchWidth = 4.0
	// branchBubble is the redirect penalty in cycles charged beyond
	// the configured front-end refill depth for every mispredicted
	// branch (resolve-to-fetch turnaround).
	branchBubble = 2.0
	// parkThreshold is the operand-slack in cycles beyond which a
	// non-urgent µop is parked when the LTP is attached (the model's
	// stand-in for the non-urgent classification latency class).
	parkThreshold = 8.0
	// wakeDelay is the dequeue/re-dispatch delay in cycles a parked
	// µop pays when it wakes (finite queue ports, in-order drain).
	wakeDelay = 4.0
	// loadExtra is the fixed per-load overhead in cycles added on top
	// of the hierarchy's level latency (AGU, issue-to-execute skew).
	loadExtra = 1.0
	// storeDrain scales how long a missing store's SQ entry outlives
	// retirement (post-commit write buffering overlaps most of the
	// fill latency).
	storeDrain = 0.25
	// cpiScale is a final multiplicative correction applied to the
	// estimated cycle count.
	cpiScale = 1.0
)

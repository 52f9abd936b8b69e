// Package model implements the "model" execution backend: an
// interval-style analytical performance model of the out-of-order core
// behind the same sim.Backend interface as the cycle-accurate
// pipeline. Its lanes start from the same warm checkpoint as the cycle
// and sampled tiers (sim.RunBatch): one functional pass trains the
// caches, the branch predictor and each lane's LTP unit. The model then
// executes the measured region functionally and estimates CPI from
// first-order structure: the µop mix and its dependency-chain depth (a
// dataflow timeline over architectural registers and forwarded stores),
// per-level memory latencies from a timing-free hierarchy walk,
// branch-entropy-driven redirect bubbles from the real gshare tables,
// finite-window constraints (ROB, IQ, rename registers, LQ/SQ, MSHRs)
// as sliding release-time rings, and LTP parking coverage
// (slack-classified, urgency-filtered, capacity-bounded) that relieves
// IQ and register pressure exactly where the mechanism does. It runs
// one to two orders of magnitude faster than the detailed pipeline and
// is calibrated against it (see Calibration and the differential
// tests); use it to rank configurations and triage sweeps, not for
// absolute numbers.
package model
